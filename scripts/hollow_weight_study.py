#!/usr/bin/env python3
"""Study how the donor-selection weight c1 shapes plan quality.

The donor objective scores each candidate donor unit by
c1 * (margin drop)^2 + c2 * (path length); raising c1 penalizes donors
whose removal weakens the remaining assembly, trading path length for
higher margins along the way.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from marsplan.io import load_scenario  # noqa: E402
from marsplan.planner import plan  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "scenarios" / "hollow3x3.json")
    parser.add_argument("--c1", type=float, nargs="*", default=[2.0, 4.0],
                        help="margin-drop weights to compare")
    parser.add_argument("--c2", type=float, default=None,
                        help="path-length weight (default: the scenario's, else plan()'s)")
    args = parser.parse_args()

    scenario = load_scenario(args.scenario)
    # the scenario's other settings hold in every run
    settings = scenario.settings()
    if args.c2 is not None:
        settings["c2"] = args.c2
    print(f"{'c1':>6} {'steps':>5} {'path length':>11} {'min_cm':>10} "
          f"{'avg post-step cm':>17}")
    for c1 in args.c1:
        result = plan(scenario.config, scenario.params, **{**settings, "c1": c1})
        avg = (sum(s.post_cm for s in result.steps) / len(result.steps)
               if result.steps else float("nan"))
        print(f"{c1:>6.2f} {result.step_count:>5} {result.total_path_length:>11} "
              f"{result.min_cm:>10.6f} {avg:>17.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
