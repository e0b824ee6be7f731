"""Only `step_verdict` in `planner.py` reads a margin function.

The planner's gate and `validate_plan` share one safety check; a second
margin query anywhere else in the module would be a second gate.
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
