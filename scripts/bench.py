#!/usr/bin/env python3
"""Run the planner benchmark over workloads and seeds and write BENCH_<label>.json.

Run from anywhere in a checkout:

    python3 scripts/bench.py --label mylabel --seeds 1 2 3 4 5 --seconds 6

Each (workload, seed) runs `perfbench/run.py --trace 0` of the same checkout
once, one after another, and must exit 0 with no `problems` in the record it
writes, `.perfbench-out/<workload>-seed<S>-trace0.json`. From those records
the file takes, per workload, the plan digest of each seed and, for every
end-to-end metric, its value per seed, median, quartiles (inclusive method)
and unit, plus the first run's environment and the checkout's git commit.
A plan digest hashes a pass's documents in the case order the seed draws,
so it differs between seeds; two files made with the same seeds compare
seed by seed, and equal digests mean byte-identical plans.

The file also times four layers, each as the median of repeated calls,
scaled by the speed probe of `perfbench/speed.py` as the end-to-end times
are:
- the margin kernel by generator count m (`kernel_by_m`): warm
  `cm_signed_distance` calls on solid w x w blocks with a centre unit
  fault, w = 1..7 (m = 0..192), with BLAS on one thread;
- warm A* on fixed arenas (`astar_by_arena`), one call being one pass over the
  arena's routes: unit routes from the first ring cell of the icra_letters
  start's arena to every vacant cell of the letters' bounding box, and
  rigid routes of a 2x2 footprint from a corner of a 12x12 arena across a
  seeded obstacle field to every position on the far row and column;
- the fill-round assignment by matrix size (`assign_by_size`): warm
  `lexicographic_min_assignment` calls on fixed seeded integer matrices of
  3x6, 10x12, 20x20 and 30x30 with costs 1-30;
- the fault-placement search by fault count (`placement_by_faults`): cold
  `optimal_configuration` calls, each after `clear_cm_cache()`, on solid
  w x w blocks, w = 4, 5, 6, with 1, 2 and 3 unit faults at cells drawn by
  `random.Random(5).sample`, and on a random 40-unit polyomino, grown cell
  by cell from the origin by `numpy.random.default_rng(1040)` as
  `tests/helpers.random_connected_cells` grows one, with 4 faults at cells
  drawn by `random.Random(1).sample`: unit, rotor 1, unit, rotor 3.
The other layer timings are not recorded: they wait for per-plan statistics
in the library.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("bundled", "fuzz", "blocks", "sweep")
# layer timing: per block or arena at least MIN_CALLS calls and more while
# they take under LAYER_SECONDS, up to MAX_CALLS
KERNEL_WIDTHS = range(1, 8)
MIN_CALLS, MAX_CALLS, LAYER_SECONDS = 5, 200, 0.3
# the rigid A* arena: side, obstacle density and the seed of the field
RIGID_SIDE, RIGID_DENSITY, RIGID_SEED = 12, 0.1, 2
# the assignment matrices: (rows, columns), the cost range and the seed of the costs
ASSIGN_SIZES, ASSIGN_COSTS, ASSIGN_SEED = ((3, 6), (10, 12), (20, 20), (30, 30)), (1, 30), 3
# the placement blocks: widths, unit-fault counts and the seed of the fault cells
PLACEMENT_WIDTHS, PLACEMENT_FAULTS, PLACEMENT_SEED = (4, 5, 6), (1, 2, 3), 5
# the random placement footprint: its size, the seed of its growth and of its fault cells
RANDOM_UNITS, RANDOM_SEED, RANDOM_FAULT_SEED = 40, 1040, 1


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """The digest, environment and end-to-end metrics of one benchmark run,
    read from the record the run writes."""
    record_path = ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json"
    record_path.unlink(missing_ok=True)     # so a failed run cannot leave an older record
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    record = json.loads(record_path.read_text()) if done.returncode == 0 else None
    if record is None or record["problems"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct\n{done.stdout}{done.stderr}")
    return {"digest": record["plan_digest"], "env": record["env"], "metrics": record["metrics"]}


def summary(values: list[float], unit: str) -> dict:
    """Values in seed order with their median and inclusive quartiles."""
    quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else [values[0]] * 3)
    return {"values": values, "median": statistics.median(values),
            "q1": quartiles[0], "q3": quartiles[2], "unit": unit}


def _import_library() -> None:
    """Put the checkout's library and probe on the path, BLAS on one thread."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"         # before numpy loads, as perfbench/run.py does
    for path in (str(ROOT / "src"), str(ROOT / "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _timed(cases: list[tuple[dict, object]]) -> list[dict]:
    """Each case's record with its call count and the median scaled seconds
    of its calls after a first untimed one, timed under one speed probe."""
    import speed

    probe = speed.SpeedProbe().start()
    timed = []
    try:
        for record, call in cases:
            call()                                 # warm: caches and first-call costs
            spans = []
            start = perf_counter()
            while len(spans) < MIN_CALLS or (len(spans) < MAX_CALLS
                                             and perf_counter() - start < LAYER_SECONDS):
                t0 = perf_counter()
                call()
                spans.append((t0, perf_counter()))
            timed.append((record, spans))
    finally:
        probe.stop()
    scaled = probe.scaler()
    return [{**record, "calls": len(spans),
             "median_scaled_s": statistics.median(scaled(t0, t1) for t0, t1 in spans)}
            for record, spans in timed]


def kernel_by_m() -> list[dict]:
    """Median scaled seconds of warm margin-kernel calls per block, with its m."""
    _import_library()
    from marsplan.controllability import build_zonotope, cm_signed_distance, gravity_wrench
    from marsplan.model import UNIT_FAULT, Cell, Configuration, partition

    cases = []
    for w in KERNEL_WIDTHS:
        cells = [Cell(x, y) for y in range(w) for x in range(w)]
        (sub,) = partition(Configuration.from_cells(cells, {Cell(w // 2, w // 2): UNIT_FAULT}))
        zono, g = build_zonotope(sub), gravity_wrench(sub.n)
        cases.append(({"block": f"{w}x{w}", "m": zono.m},
                      lambda zono=zono, g=g: cm_signed_distance(zono, g)))
    return _timed(cases)


def astar_by_arena() -> list[dict]:
    """Median scaled seconds of a warm pass over each fixed arena's A* routes,
    with the route count and how many of them have no path."""
    _import_library()
    from marsplan.io import load_scenario
    from marsplan.model import Cell
    from marsplan.paths import Arena, NoPathError, arena_around, astar_subassembly, astar_unit

    def routes(search, goals: list):
        """A pass over the goals that returns how many have no path."""
        def run() -> int:
            failed = 0
            for goal in goals:
                try:
                    search(goal)
                except NoPathError:
                    failed += 1
            return failed
        return run

    letters = load_scenario(ROOT / "scenarios" / "icra_letters.json").config
    arena = arena_around(letters.cells)
    occupied = letters.cell_set
    entry = arena.cells_on_ring()[0]
    box = Arena(min(c.x for c in letters.cells), min(c.y for c in letters.cells),
                max(c.x for c in letters.cells), max(c.y for c in letters.cells))
    vacancies = [c for c in box.cells() if c not in occupied]
    unit = routes(lambda goal: astar_unit(entry, goal, occupied, arena), vacancies)

    rng = random.Random(RIGID_SEED)
    field = Arena(0, 0, RIGID_SIDE - 1, RIGID_SIDE - 1)
    square = frozenset(Cell(x, y) for x in (0, 1) for y in (0, 1))
    obstacles = frozenset(c for c in field.cells()
                          if c not in square and rng.random() < RIGID_DENSITY)
    far = RIGID_SIDE - 2          # the largest reference coordinate of the square
    goals = [c for c in field.cells() if far in (c.x, c.y) and max(c.x, c.y) <= far]
    rigid = routes(lambda goal: astar_subassembly(square, Cell(0, 0), goal, obstacles, field),
                   goals)
    return _timed([
        ({"arena": "icra_letters ring to vacancies", "search": "unit",
          "routes": len(vacancies), "no_path": unit()}, unit),
        ({"arena": f"2x2 across a {RIGID_SIDE}x{RIGID_SIDE} field, density {RIGID_DENSITY}, "
                   f"seed {RIGID_SEED}", "search": "rigid",
          "routes": len(goals), "no_path": rigid()}, rigid),
    ])


def assign_by_size() -> list[dict]:
    """Median scaled seconds of warm assignment calls per fixed matrix, with its size."""
    _import_library()
    from marsplan.planner import lexicographic_min_assignment

    rng = random.Random(ASSIGN_SEED)
    cases = []
    for rows, cols in ASSIGN_SIZES:
        cost = [[rng.randint(*ASSIGN_COSTS) for _ in range(cols)] for _ in range(rows)]
        cases.append(({"size": f"{rows}x{cols}", "rows": rows, "cols": cols},
                      lambda cost=cost: lexicographic_min_assignment(cost)))
    return _timed(cases)


def placement_by_faults() -> list[dict]:
    """Median scaled seconds of cold placement searches per block and fault count."""
    _import_library()
    import numpy as np
    from marsplan.controllability import clear_cm_cache
    from marsplan.model import UNIT_FAULT, Cell, Configuration, rotor_fault
    from marsplan.vmcs import optimal_configuration

    def cold(config):
        def run():
            clear_cm_cache()
            return optimal_configuration(config)
        return run

    cases = []
    for w in PLACEMENT_WIDTHS:
        cells = [Cell(x, y) for y in range(w) for x in range(w)]
        for count in PLACEMENT_FAULTS:
            faults = sorted(random.Random(PLACEMENT_SEED).sample(cells, count))
            config = Configuration.from_cells(cells, dict.fromkeys(faults, UNIT_FAULT))
            cases.append(({"block": f"{w}x{w}", "faults": count,
                           "fault_cells": [[c.x, c.y] for c in faults]}, cold(config)))
    rng = np.random.default_rng(RANDOM_SEED)
    grown = {Cell(0, 0)}
    while len(grown) < RANDOM_UNITS:
        base = sorted(grown)[rng.integers(len(grown))]
        grown.add(base.neighbors4()[rng.integers(4)])
    cells = sorted(grown)
    faults = random.Random(RANDOM_FAULT_SEED).sample(cells, 4)
    states = (UNIT_FAULT, rotor_fault(1), UNIT_FAULT, rotor_fault(3))
    config = Configuration.from_cells(cells, dict(zip(faults, states)))
    cases.append(({"block": f"random n={RANDOM_UNITS}", "faults": len(faults),
                   "fault_cells": [[c.x, c.y] for c in faults],
                   "fault_states": ["unit", "rotor 1", "unit", "rotor 3"]}, cold(config)))
    return _timed(cases)


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=6.0, help="length of each run")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the output file")
    args = parser.parse_args(argv)

    workloads: dict[str, dict] = {}
    env = None
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {runs[-1]['digest']}", file=sys.stderr)
        env = env or runs[0]["env"]
        metrics = {name: summary([run["metrics"][name]["value"] for run in runs], metric["unit"])
                   for name, metric in runs[0]["metrics"].items()}
        workloads[workload] = {
            "plan_digests": {str(seed): run["digest"] for seed, run in zip(args.seeds, runs)},
            "metrics": metrics,
        }

    status = git("status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.label, "seeds": args.seeds, "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "env": env,
        "layer_timings": "kernel_by_m, astar_by_arena, assign_by_size and placement_by_faults "
                         "(solid blocks and one random 40-unit footprint with 4 faults) "
                         "only: the support search by k and the per-phase times are not "
                         "recorded yet",
        "kernel_by_m": kernel_by_m(),
        "astar_by_arena": astar_by_arena(),
        "assign_by_size": assign_by_size(),
        "placement_by_faults": placement_by_faults(),
        "workloads": workloads,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
