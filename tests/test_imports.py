"""Every name a `marsplan` module imports is read in that module, none is
another module's private (underscore) name, and the package runs on numpy
alone, which only the margin kernel imports: scipy is a test-only
reference."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "marsplan"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    assert unused_imports("from a import b, c\nimport d.e\nc()\n") == ["b", "d"]
    assert unused_imports("from __future__ import annotations\nimport d.e\nd.e.f()\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


def private_imports(source: str) -> list[str]:
    """Underscore names that `source` imports from a `marsplan` module."""
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "marsplan")
            for alias in node.names if alias.name.startswith("_")]


def test_the_check_finds_a_private_import():
    source = ("from __future__ import annotations\nfrom .io import _a, b\n"
              "from marsplan.model import _c\nfrom os import _exit\n")
    assert private_imports(source) == ["_a", "_c"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name_of_another(module):
    assert private_imports(module.read_text()) == []


def imports_numpy(source: str) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
               or isinstance(node, ast.ImportFrom) and not node.level
               and (node.module or "").split(".")[0] == "numpy"
               for node in ast.walk(ast.parse(source)))


def test_the_check_finds_a_numpy_import():
    assert imports_numpy("import numpy as np\n") and imports_numpy("from numpy.linalg import svd\n")
    assert not imports_numpy("import numbers\nfrom .numpy_like import f\n")


def test_only_the_margin_kernel_imports_numpy():
    # the planner, the model, the paths and the writer run on plain Python
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if imports_numpy(p.read_text())] == [
        "controllability.py"]


def test_importing_marsplan_loads_no_scipy():
    # a fresh interpreter, as the CLI starts: scipy.optimize alone took most
    # of the start-up time when the package used it
    code = ("import sys, marsplan, marsplan.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"
