#!/usr/bin/env python3
"""Plan every bundled scenario and print a one-line summary per scenario.

Optionally writes each plan document (and CM trace / SVG frames) to an
output directory, mirroring what `marsplan plan` produces.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marsplan.errors import InfeasibleTargetError, PlanningError  # noqa: E402
from marsplan.io import load_scenario, save_plan, write_cm_trace  # noqa: E402
from marsplan.planner import plan  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=Path,
                        default=Path(__file__).resolve().parent.parent / "scenarios",
                        help="directory of scenario JSON files")
    parser.add_argument("--out", type=Path, default=None,
                        help="write plan.json / trace.csv per scenario here")
    args = parser.parse_args()

    paths = sorted(args.scenarios.glob("*.json"))
    if not paths:
        print(f"no scenario files in {args.scenarios}", file=sys.stderr)
        return 1

    header = f"{'scenario':<22} {'steps':>5} {'d/a':>4} {'len':>4} {'min_cm':>10} {'time':>7}"
    print(header)
    print("-" * len(header))
    failures = 0
    for path in paths:
        scenario = load_scenario(path)
        t0 = time.monotonic()
        try:
            result = plan(scenario.config, scenario.params, **scenario.settings())
        except (InfeasibleTargetError, PlanningError) as exc:
            failures += 1
            print(f"{path.stem:<22} {type(exc).__name__}: {exc}")
            continue
        dt = time.monotonic() - t0
        print(f"{path.stem:<22} {result.step_count:>5} {result.detach_attach_count:>4} "
              f"{result.total_path_length:>4} {result.min_cm:>10.6f} {dt:>6.2f}s")
        if args.out is not None:
            out_dir = args.out / path.stem
            out_dir.mkdir(parents=True, exist_ok=True)
            save_plan(result, scenario.config, out_dir / "plan.json", scenario.name)
            write_cm_trace(result, out_dir / "trace.csv")
    return 2 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
