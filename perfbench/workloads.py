"""Inputs of the four benchmark workloads: fixed case sets, ordered by the seed.

Every case is made here or read from `scenarios/`; nothing comes from the
test suite, so editing the tests never shifts what the benchmark plans.

Why each workload exists:

- ``bundled``: the paper's scenarios with their own settings, plus the
  heart11 relocation-rule ablation. Margin cache cleared before each plan.
  The interior facet path of the margin kernel dominates, at up to m = 72
  generators (icra_letters).
- ``fuzz``: sparse random polyominoes from the distribution of the safety
  fuzz in tests/test_acceptance.py (criterion 8: n = 2..12, 0..2 unit
  faults). Small generator counts, the exterior (least-squares) margin path
  and the typed failure paths. The shapes are drawn once from a fixed
  generator seed, so every run plans the same cases; the run seed orders
  them, as for the other workloads.
- ``blocks``: solid 3x3 and 4x3 rectangles with one or two unit or rotor
  faults, drawn once from a fixed seed. Every case starts as one dense block
  (m = 28..47 generators), so the interior facet enumeration of the margin
  kernel and the fault-placement search dominate. Margin cache cleared
  before each plan.
- ``sweep``: every bundled scenario under c1 in {2, 4} x relocation rule
  on/off with the margin cache warm, so the planner's own search (partition,
  A*, gates) carries the load and the kernel does no work.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from marsplan.controllability import DEFAULT_PARAMS, PhysicalParams
from marsplan.io import config_to_json, load_scenario
from marsplan.model import UNIT_FAULT, Cell, Configuration, FaultState, rotor_fault

WORKLOADS = ("bundled", "fuzz", "blocks", "sweep")

# Workloads whose margin cache is cleared before every plan, so a case's
# time does not depend on the cases planned before it.
COLD_CACHE = frozenset({"bundled", "fuzz", "blocks"})

# Criterion-8 distribution: n uniform on 2..12, a fault draw uniform on
# 0..2 capped at n - 1, unit faults only. One stratum per (n, draw) pair,
# so the case set holds each pair the same number of times.
FUZZ_SIZES = range(2, 13)
FUZZ_FAULT_DRAWS = range(3)
FUZZ_REPEATS = 1
# The shapes and fault cells come from this seed alone (criterion 8's own
# seed), so a run's seed changes the order of the fuzz cases, not the cases.
FUZZ_CASE_SEED = 777

# Rectangle (width, height) and fault kinds ("u" unit, "r" one rotor); the
# fault cells and lost rotors come from BLOCKS_CASE_SEED alone. Two-fault
# 4x3 blocks are left out: one of them takes longer than all six cases here.
BLOCK_CASES = (((3, 3), "u"), ((3, 3), "r"), ((3, 3), "uu"), ((3, 3), "ur"),
               ((4, 3), "u"), ((4, 3), "r"))
BLOCKS_CASE_SEED = 5

SWEEP_C1 = (2.0, 4.0)
SWEEP_RULE = (True, False)

_NEIGHBOR_STEPS = ((0, -1), (-1, 0), (1, 0), (0, 1))


@dataclass(frozen=True)
class Case:
    """One plan request: the start configuration and the planner settings."""

    name: str
    config: Configuration
    params: PhysicalParams = DEFAULT_PARAMS
    c1: float = 2.0
    c2: float = -0.1
    epsilon: float = 0.0
    relocation_rule: bool = True

    def settings(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "epsilon": self.epsilon,
                "relocation_rule": self.relocation_rule}


def random_polyomino(rng: np.random.Generator, n: int) -> list[Cell]:
    """4-connected footprint grown from the origin by random neighbor steps."""
    cells = {Cell(0, 0)}
    while len(cells) < n:
        ordered = sorted(cells)
        base = ordered[int(rng.integers(len(ordered)))]
        dx, dy = _NEIGHBOR_STEPS[int(rng.integers(4))]
        cells.add(Cell(base.x + dx, base.y + dy))
    return sorted(cells)


def _unit_faults(rng: np.random.Generator, cells: list[Cell], count: int) -> dict[Cell, FaultState]:
    picks = rng.choice(len(cells), size=count, replace=False)
    return {cells[int(index)]: UNIT_FAULT for index in picks}


def fuzz_cases(seed: int = FUZZ_CASE_SEED) -> list[Case]:
    """One stratified draw of the criterion-8 distribution, in stratum order."""
    rng = np.random.default_rng(seed)
    cases = []
    for repeat in range(FUZZ_REPEATS):
        for n in FUZZ_SIZES:
            for draw in FUZZ_FAULT_DRAWS:
                n_faults = min(draw, n - 1)
                cells = random_polyomino(rng, n)
                faults = _unit_faults(rng, cells, n_faults)
                cases.append(Case(f"fuzz-n{n}-f{n_faults}-{repeat}",
                                  Configuration.from_cells(cells, faults)))
    return cases


def block_cases(seed: int = BLOCKS_CASE_SEED) -> list[Case]:
    """Solid rectangles, one per entry of BLOCK_CASES."""
    rng = np.random.default_rng(seed)
    cases = []
    for (width, height), kinds in BLOCK_CASES:
        cells = [Cell(x, y) for y in range(height) for x in range(width)]
        picks = rng.choice(len(cells), size=len(kinds), replace=False)
        faults = {cells[int(index)]: UNIT_FAULT if kind == "u" else rotor_fault(int(rng.integers(4)))
                  for index, kind in zip(picks, kinds)}
        cases.append(Case(f"block-{width}x{height}-{kinds}", Configuration.from_cells(cells, faults)))
    return cases


def _scenario_case(path: Path, name: str, **overrides) -> Case:
    scenario = load_scenario(path)
    settings = {
        "c1": 2.0 if scenario.c1 is None else scenario.c1,
        "c2": -0.1 if scenario.c2 is None else scenario.c2,
        "epsilon": 0.0 if scenario.epsilon is None else scenario.epsilon,
        "relocation_rule": True if scenario.relocation_rule is None else scenario.relocation_rule,
    }
    settings.update(overrides)
    return Case(name, scenario.config, scenario.params, **settings)


def bundled_cases(scenarios: Path) -> list[Case]:
    paths = sorted(scenarios.glob("*.json"))
    cases = [_scenario_case(p, p.stem) for p in paths]
    cases.append(_scenario_case(scenarios / "heart11.json", "heart11-rule-off",
                                relocation_rule=False))
    return cases


def sweep_cases(scenarios: Path) -> list[Case]:
    return [
        _scenario_case(p, f"{p.stem}-c1={c1:g}-rule={'on' if rule else 'off'}",
                       c1=c1, relocation_rule=rule)
        for p in sorted(scenarios.glob("*.json"))
        for c1 in SWEEP_C1
        for rule in SWEEP_RULE
    ]


def build_cases(workload: str, seed: int, scenarios: Path) -> list[Case]:
    """The workload's cases: a fixed set, put in an order drawn from `seed`."""
    if workload == "fuzz":
        cases = fuzz_cases()
    elif workload == "blocks":
        cases = block_cases()
    elif workload == "bundled":
        cases = bundled_cases(scenarios)
    elif workload == "sweep":
        cases = sweep_cases(scenarios)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(cases)
    return cases


def case_digest(cases: list[Case]) -> str:
    """sha256 over the cases' names, configurations and settings."""
    h = hashlib.sha256()
    for case in cases:
        record = {"name": case.name, "config": config_to_json(case.config),
                  "params": repr(case.params), **case.settings()}
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()
