"""Only `step_verdict` in `planner.py` reads a margin function, and only
`_Pipeline._commit_first` commits a step.

The planner's gate and `validate_plan` share one safety check; a second
margin query anywhere else in the module would be a second gate. Every
phase commits its steps through `_commit_first`, so a step appended or a
state advanced anywhere else would bypass the one commit point.
"""

import ast
from pathlib import Path

PLANNER = Path(__file__).resolve().parent.parent / "src" / "marsplan" / "planner.py"
GATE = "step_verdict"
MARGINS = {"system_cm", "cached_subassembly_cm"}


def margin_reads(source: str) -> dict[str, list[str]]:
    """The margin functions each function of `source` reads, by function name."""
    reads: dict[str, list[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = sorted({n.id for n in ast.walk(node)
                            if isinstance(n, ast.Name) and n.id in MARGINS})
            if names:
                reads[node.name] = names
    return reads


def test_the_check_finds_a_margin_read():
    source = ("def step_verdict():\n    return system_cm()\n"
              "class P:\n    def _step(self):\n        return cached_subassembly_cm()\n")
    assert margin_reads(source) == {"step_verdict": ["system_cm"],
                                    "_step": ["cached_subassembly_cm"]}


def test_only_the_gate_reads_margins_in_the_planner():
    reads = margin_reads(PLANNER.read_text())
    assert reads.pop(GATE) == sorted(MARGINS)
    assert reads == {}


def commit_sites(source: str) -> tuple[list[str], list[str]]:
    """The methods of `_Pipeline` in `source` that assign `self.work`, and
    those that call `self.steps.append`."""
    (pipeline,) = [n for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.ClassDef) and n.name == "_Pipeline"]
    assigns, appends = [], []
    for method in pipeline.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for n in ast.walk(method):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) \
                    and ast.unparse(n) == "self.work":
                assigns.append(method.name)
            if isinstance(n, ast.Call) and ast.unparse(n.func) == "self.steps.append":
                appends.append(method.name)
    return assigns, appends


def test_the_check_finds_a_commit_site():
    source = ("class _Pipeline:\n    def __init__(self, c):\n        self.work = c\n"
              "    def _commit(self, step):\n        self.steps.append(step)\n"
              "        self.work = step.post_config\n"
              "    def _swap(self, o):\n        self.work, o.work = o.work, self.work\n")
    assert commit_sites(source) == (["__init__", "_commit", "_swap"], ["_commit"])


def test_every_phase_commits_at_one_point():
    # one place to count, budget or hold back committed steps for all phases
    assigns, appends = commit_sites(PLANNER.read_text())
    assert assigns == ["__init__", "_commit_first"]
    assert appends == ["_commit_first"]
