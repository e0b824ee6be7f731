"""Command-line interface.

    marsplan plan --input scenario.json --output plan.json
                  [--cm-trace trace.csv] [--svg-dir dir]
                  [--c1 f] [--c2 f] [--epsilon f]
                  [--no-relocation-rule]
    marsplan cm   --input scenario.json

Exit codes: 0 success, 1 input error, 2 no fault placement reaches the margin
floor, 3 the planner could not complete a phase. Planner weights resolve as
command line over scenario file over the defaults of `plan()`. Setting
MARSPLAN_PARAMS to a JSON file of physical-parameter fields replaces the
built-in defaults (scenario overrides still apply on top).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .controllability import DEFAULT_PARAMS, PhysicalParams, system_cm, cached_subassembly_cm
from .errors import InfeasibleTargetError, PlanningError, ScenarioError
from .io import _parse_params, load_scenario, save_plan, write_cm_trace
from .model import partition
from .planner import plan as compute_plan
from .render import render_plan_svgs

_PARAMS_ENV = "MARSPLAN_PARAMS"


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the input-error code."""

    def error(self, message: str):  # noqa: D401 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="marsplan",
                     description="controllability-safe reconfiguration planning "
                                 "for modular aerial robot assemblies")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan a reconfiguration for a scenario")
    p_plan.add_argument("--input", required=True, help="scenario JSON file")
    p_plan.add_argument("--output", required=True, help="plan JSON file to write")
    p_plan.add_argument("--cm-trace", help="CSV file for the per-step margin trace")
    p_plan.add_argument("--svg-dir", help="directory for per-step SVG renderings")
    p_plan.add_argument("--c1", type=float, help="weight on the margin shortfall term")
    p_plan.add_argument("--c2", type=float, help="weight on the flight-distance term")
    p_plan.add_argument("--epsilon", type=float, help="margin floor for every step")
    p_plan.add_argument("--no-relocation-rule", action="store_true",
                        help="park cleared blockers in their own row instead of "
                             "on vacant target cells")

    p_cm = sub.add_parser("cm", help="print controllability margins for a scenario")
    p_cm.add_argument("--input", required=True, help="scenario JSON file")
    return parser


def _base_params() -> PhysicalParams:
    override = os.environ.get(_PARAMS_ENV)
    if not override:
        return DEFAULT_PARAMS
    try:
        data = json.loads(Path(override).read_text())
    except (OSError, ValueError) as exc:     # ValueError covers JSONDecodeError
        raise ScenarioError(f"cannot load params file {override} from "
                            f"{_PARAMS_ENV}: {exc}") from None
    try:
        return _parse_params(data, DEFAULT_PARAMS)
    except ScenarioError as exc:
        raise ScenarioError(f"params file {override}: {exc}") from None


def _cmd_plan(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.input, _base_params())
    # forward only the values that are set, so plan() holds the defaults
    chosen = {"c1": args.c1, "c2": args.c2, "epsilon": args.epsilon,
              "relocation_rule": False if args.no_relocation_rule else None}
    settings = scenario.settings()
    settings.update((key, value) for key, value in chosen.items() if value is not None)
    result = compute_plan(scenario.config, scenario.params, **settings)
    save_plan(result, scenario.config, args.output, name=scenario.name)
    if args.cm_trace:
        write_cm_trace(result, args.cm_trace)
    if args.svg_dir:
        render_plan_svgs(result, scenario.config, args.svg_dir)
    summary_cm = "n/a" if math.isinf(result.min_cm) else f"{result.min_cm:.6f}"
    print(f"steps={result.step_count} detach_attach={result.detach_attach_count} "
          f"path_length={result.total_path_length} min_cm={summary_cm}")
    return 0


def _cmd_cm(args: argparse.Namespace) -> int:
    base = _base_params()
    scenario = load_scenario(args.input, base)
    label = f"file:{os.environ[_PARAMS_ENV]}" if os.environ.get(_PARAMS_ENV) else "default"
    if scenario.params != base:
        label += "+scenario-overrides"
    print(f"# params: {label}")
    overall = system_cm(scenario.config, scenario.params)
    if math.isinf(overall):
        print("fault-free")
        return 0
    print(f"system {overall:.6f}")
    for sub in partition(scenario.config):
        if not sub.faulty_cells:
            continue
        anchor = sub.cells[0]
        value = cached_subassembly_cm(sub, scenario.params)
        print(f"subassembly [{anchor.x}, {anchor.y}] n={sub.n} {value:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name in ("c1", "c2", "epsilon"):
        value = getattr(args, name, None)     # the cm command has no weights
        if value is not None and not math.isfinite(value):
            parser.error(f"argument --{name}: expected a finite number, got {value}")
    try:
        if args.command == "plan":
            return _cmd_plan(args)
        return _cmd_cm(args)
    except ScenarioError as exc:
        print(f"marsplan: input error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleTargetError as exc:
        print(f"marsplan: infeasible target: {exc}", file=sys.stderr)
        return 2
    except PlanningError as exc:
        print(f"marsplan: planning failed ({exc.reason}): {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
