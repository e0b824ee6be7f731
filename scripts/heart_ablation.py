#!/usr/bin/env python3
"""Compare planning with the path-clearance relocation rule on and off.

With the rule on, units blocking the support shape's flight corridor are
relocated once, up front, instead of being shuffled repeatedly; on the
bundled heart-shaped assembly this saves both steps and path length.
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
                        / "scenarios" / "heart11.json")
    args = parser.parse_args()

    scenario = load_scenario(args.scenario)
    # the scenario's other settings hold in both runs
    settings = scenario.settings()
    results = {
        flag: plan(scenario.config, scenario.params, **{**settings, "relocation_rule": flag})
        for flag in (True, False)
    }
    print(f"{'relocation rule':<16} {'steps':>5} {'detach/attach':>13} "
          f"{'path length':>11} {'min_cm':>10}")
    for flag, result in results.items():
        label = "on" if flag else "off"
        print(f"{label:<16} {result.step_count:>5} {result.detach_attach_count:>13} "
              f"{result.total_path_length:>11} {result.min_cm:>10.6f}")
    on, off = results[True], results[False]
    saved_steps = off.step_count - on.step_count
    ratio = off.total_path_length / on.total_path_length
    print(f"\nrule saves {saved_steps} steps; "
          f"off/on path-length ratio = {ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
