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
digests mean byte-identical plans. Layer timings are not recorded: they wait
for per-plan statistics in the library.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("bundled", "fuzz", "blocks", "sweep")
_DIGEST = "# plan digest "
_ENV = "# env "


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
        "layer_timings": "not recorded: per-layer timings wait for per-plan statistics "
                         "(PlanStats) in the library",
        "workloads": workloads,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
