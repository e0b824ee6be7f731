#!/usr/bin/env python3
"""Check a benchmark run's plan digest against the newest committed BENCH file.

Name the record that one `perfbench/run.py` run writes:

    python3 perfbench/run.py --workload blocks --seed 1 --trace 0
    python3 scripts/check_plan_digest.py .perfbench-out/blocks-seed1-trace0.json

The record holds the run's workload, seed and plan digest. The reference is
the digest of that workload and seed in the checkout's BENCH_pr<N>.json with
the largest N. Equal digests mean byte-identical plan documents. The exit
status is 0 when they are equal, and 1, naming the workload, the seed and
both digests, when they differ or the reference has no such entry.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BENCH = re.compile(r"BENCH_pr(\d+)\.json")


def newest_bench(directory: Path) -> Path:
    """BENCH_pr<N>.json with the largest N in `directory`."""
    numbered = [(int(m.group(1)), p) for p in directory.iterdir()
                if (m := _BENCH.fullmatch(p.name))]
    if not numbered:
        raise SystemExit(f"no BENCH_pr<N>.json in {directory}")
    return max(numbered)[1]


def check(record: dict, bench: Path) -> int:
    """0 when the run `record`'s plan digest equals `bench`'s digest of its
    workload and seed; otherwise 1, after printing both to standard error."""
    workload, seed, digest = record["workload"], str(record["seed"]), record["plan_digest"]
    digests = json.loads(bench.read_text())["workloads"].get(workload, {}).get("plan_digests", {})
    expected = digests.get(seed)
    if digest != expected:
        print(f"plan digest of workload {workload} seed {seed} is {digest}, "
              f"{bench.name} has {expected}", file=sys.stderr)
        return 1
    print(f"plan digest of workload {workload} seed {seed} equals {bench.name}'s")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("record", type=Path, help="the JSON record of a perfbench/run.py run")
    args = parser.parse_args()
    return check(json.loads(args.record.read_text()), newest_bench(ROOT))


if __name__ == "__main__":
    raise SystemExit(main())
