"""Every name a `marsplan` module imports is read in that module."""

import ast
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
