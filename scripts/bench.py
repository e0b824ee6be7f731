#!/usr/bin/env python3
"""Run the planner benchmark over workloads and seeds and write BENCH_<label>.json.

Run from anywhere in a checkout:

    python3 scripts/bench.py --label mylabel --seeds 1 2 3 4 5 --seconds 6

Each (workload, seed) runs `perfbench/run.py --trace 0` of the same checkout
once, one after another, and must report `correct`. The file records, per
workload, the plan digest of each seed and, for every end-to-end metric, its
value per seed, median, quartiles (inclusive method) and unit, plus the first
run's environment and the checkout's git commit. A plan digest hashes a
pass's documents in the case order the seed draws, so it differs between
seeds; two files made with the same seeds compare seed by seed, and equal
digests mean byte-identical plans.

The file also times the margin kernel by generator count m (`kernel_by_m`):
warm `cm_signed_distance` calls on solid w x w blocks with a centre unit
fault, w = 1..7 (m = 0..192), with BLAS on one thread. Each block records the
median of its repeated calls, scaled by the speed probe of
`perfbench/speed.py` as the end-to-end times are. The other layer timings
are not recorded: they wait for per-plan statistics in the library.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("bundled", "fuzz", "blocks", "sweep")
_DIGEST = "# plan digest "
_ENV = "# env "
# kernel timing: block widths, and per block at least KERNEL_MIN_CALLS calls
# and more while they take under KERNEL_SECONDS, up to KERNEL_MAX_CALLS
KERNEL_WIDTHS = range(1, 8)
KERNEL_MIN_CALLS, KERNEL_MAX_CALLS, KERNEL_SECONDS = 5, 200, 0.3


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """The digest, environment and end-to-end metrics of one benchmark run."""
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{workload} seed {seed}: no result line\n{done.stderr}") from None
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed}: run not correct\n{done.stdout}{done.stderr}")
    digest = next(line[len(_DIGEST):] for line in lines if line.startswith(_DIGEST))
    env = json.loads(next(line[len(_ENV):] for line in lines if line.startswith(_ENV)))
    return {"digest": digest, "env": env, "metrics": result["metrics"]}


def summary(values: list[float], unit: str) -> dict:
    """Values in seed order with their median and inclusive quartiles."""
    quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else [values[0]] * 3)
    return {"values": values, "median": statistics.median(values),
            "q1": quartiles[0], "q3": quartiles[2], "unit": unit}


def kernel_by_m() -> list[dict]:
    """Median scaled seconds of warm margin-kernel calls per block, with its m."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"         # before numpy loads, as perfbench/run.py does
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import speed
    from marsplan.controllability import build_zonotope, cm_signed_distance, gravity_wrench
    from marsplan.model import UNIT_FAULT, Cell, Configuration, partition

    probe = speed.SpeedProbe().start()
    blocks = []
    try:
        for w in KERNEL_WIDTHS:
            cells = [Cell(x, y) for y in range(w) for x in range(w)]
            (sub,) = partition(Configuration.from_cells(cells, {Cell(w // 2, w // 2): UNIT_FAULT}))
            zono, g = build_zonotope(sub), gravity_wrench(sub.n)
            cm_signed_distance(zono, g)            # warm: the kernel's index caches
            spans = []
            start = perf_counter()
            while len(spans) < KERNEL_MIN_CALLS or (len(spans) < KERNEL_MAX_CALLS
                                                    and perf_counter() - start < KERNEL_SECONDS):
                t0 = perf_counter()
                cm_signed_distance(zono, g)
                spans.append((t0, perf_counter()))
            blocks.append((f"{w}x{w}", zono.m, spans))
    finally:
        probe.stop()
    scaled = probe.scaler()
    return [{"block": block, "m": m, "calls": len(spans),
             "median_scaled_s": statistics.median(scaled(t0, t1) for t0, t1 in spans)}
            for block, m, spans in blocks]


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
        "layer_timings": "kernel_by_m only: the other per-layer timings wait for per-plan "
                         "statistics (PlanStats) in the library",
        "kernel_by_m": kernel_by_m(),
        "workloads": workloads,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
