#!/usr/bin/env python3
"""Planner benchmark: plan every case of one workload for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Workloads are described in `workloads.py`. The run builds the workload's
cases, puts them in an order drawn from the seed, then plans every case once
per pass, serializing each plan as `marsplan plan` does. It starts passes
while the next one is expected to end within `--seconds`; a pass is never cut
short. Each pass is checked after its timer stops: every plan is re-simulated
and replayed, it ends on its target, every typed planning failure names its
reason, and the plan documents hash the same in every pass. Every step's
margin is then computed again without the planner's cache; it must match the
recorded margin and clear the plan's floor.

Times are scaled by the speed probe of `speed.py` to the speed of one
reference machine, because the speed of a shared machine drifts by tens of
percent between seconds. `--trace 0` prints the end-to-end metrics of
BENCHMARK.json. `--trace 1` prints its per-layer metrics, unscaled wall times
among them: passes alternate between untraced and traced (wrapping the public
functions of each `marsplan` module), and the ratio of their times is the
tracing overhead. The last line of standard output is one JSON object;
records and spans go to `.perfbench-out/`.

Single process, single thread: BLAS threading is pinned to one thread before
numpy loads.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402

# Started first, so the probe also covers the imports counted in set-up time.
PROBE = speed.SpeedProbe()
if __name__ == "__main__":
    PROBE.start()

from time import perf_counter  # noqa: E402

_T_START = perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("bundled", "fuzz", "blocks", "sweep")


def _missing_inputs() -> list[str]:
    needed = (SRC / "marsplan" / "__init__.py", SCENARIOS, SPEC)
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


@dataclass
class Outcome:
    """One case's plan interval and either its plan and document or its error."""

    start: float
    end: float
    plan: object = None          # marsplan.planner.Plan when planning succeeded
    document: dict | None = None
    error: Exception | None = None


@dataclass
class PassResult:
    start: float
    end: float
    traced: bool
    outcomes: list[Outcome]      # in case order
    digest: str                  # sha256 over the pass's plan documents and errors


def run_pass(cases, cold_cache: bool, mp, tracer=None) -> PassResult:
    """Plan and serialize every case once; only this loop is timed."""
    planner, mio, errors, controllability = mp.planner, mp.io, mp.errors, mp.controllability
    outcomes = []
    blobs = []
    t_pass = perf_counter()
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        if cold_cache:
            controllability.clear_cm_cache()
        t0 = perf_counter()
        try:
            result = planner.plan(case.config, case.params, c1=case.c1, c2=case.c2,
                                  relocation_rule=case.relocation_rule, epsilon=case.epsilon)
        except (errors.InfeasibleTargetError, errors.PlanningError) as exc:
            outcomes.append(Outcome(t0, perf_counter(), error=exc))
            blobs.append(f"{case.name}: {type(exc).__name__} {getattr(exc, 'reason', '')}\n".encode())
            continue
        t1 = perf_counter()
        document = mio.plan_to_document(result, case.config, case.name)
        blobs.append(mio.document_to_bytes(document))
        outcomes.append(Outcome(t0, t1, plan=result, document=document))
    digest = hashlib.sha256(b"".join(blobs)).hexdigest()
    return PassResult(t_pass, perf_counter(), tracer is not None, outcomes, digest)


def check_pass(result: PassResult, cases, mp) -> list[str]:
    """Problems found in one pass's plans and failures (empty when correct)."""
    problems = []
    for case, outcome in zip(cases, result.outcomes):
        if outcome.error is not None:
            if isinstance(outcome.error, mp.errors.PlanningError):
                reason = outcome.error.reason
                if not isinstance(reason, str) or not reason:
                    problems.append(f"{case.name}: planning error without a reason")
            continue
        plan = outcome.plan
        try:
            final = mp.planner.validate_plan(case.config, plan)
            replayed = mp.io.replay_document(outcome.document)
        except mp.errors.PlanningError as exc:
            problems.append(f"{case.name}: plan does not re-simulate: {exc}")
            continue
        if final != plan.target.config:
            problems.append(f"{case.name}: plan ends away from its target")
        if replayed != final:
            problems.append(f"{case.name}: replayed document ends elsewhere")
    return problems


def check_margins(result: PassResult, cases, mp, memo: dict) -> list[str]:
    """Recompute every step's margin from scratch and compare it with the plan's.

    `subassembly_cm` is called directly, so neither the planner's margin cache
    nor its canonical key is involved; `memo` reuses results for subassemblies
    that are identical cell for cell.
    """
    problems = []
    for case, outcome in zip(cases, result.outcomes):
        if outcome.plan is None:
            continue
        plan = outcome.plan
        for index, step in enumerate(plan.steps):
            margin = math.inf
            for sub in mp.model.partition(step.post_config):
                if not sub.faulty_cells:
                    continue
                key = (sub.units, plan.params)
                if key not in memo:
                    memo[key] = mp.controllability.subassembly_cm(sub, plan.params)
                margin = min(margin, memo[key])
            if not math.isclose(margin, step.post_cm, rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"{case.name}: step {index} records margin "
                                f"{step.post_cm!r}, recomputed {margin!r}")
            if margin < plan.epsilon:
                problems.append(f"{case.name}: step {index} margin {margin!r} "
                                f"below epsilon {plan.epsilon}")
    return problems


def _outcome_label(outcome: Outcome) -> str:
    if outcome.error is None:
        return "plan"
    return getattr(outcome.error, "reason", "infeasible-target")


def planning_reasons(errors) -> list[str]:
    """Reason slugs of PlanningError and every subclass, sorted."""
    found, todo = set(), [errors.PlanningError]
    while todo:
        cls = todo.pop()
        found.add(cls.reason)
        todo.extend(cls.__subclasses__())
    return sorted(found)


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "note": "shared, unpinned machine: other tenants' load shifts wall times; "
                "end-to-end times are scaled by the speed probe",
    }


def case_medians(passes: list[PassResult], span) -> list[float]:
    """Each case's median plan time over the given passes, timed by `span`."""
    return [statistics.median(span(p.outcomes[i].start, p.outcomes[i].end) for p in passes)
            for i in range(len(passes[0].outcomes))]


def timings(passes: list[PassResult], cases, span) -> tuple[float, float]:
    """(median pass time, geometric mean of the median times of cases with faults).

    Intervals are timed by `span`. A configuration without faults needs no
    plan and returns within microseconds, below what the timer resolves
    steadily, so those cases count in the pass time only.
    """
    medians = case_medians(passes, span)
    faulty = [t for case, t in zip(cases, medians) if case.config.n_faulty]
    return (statistics.median(span(p.start, p.end) for p in passes),
            statistics.geometric_mean(faulty))


def outcome_counts(result: PassResult, mp, reasons) -> tuple[dict, dict]:
    """(steps per phase, failures per reason) of one pass."""
    steps = {phase.value.replace("-", "_"): 0 for phase in mp.planner.Phase}
    failures = dict.fromkeys(reasons, 0)
    failures["infeasible-target"] = 0
    for outcome in result.outcomes:
        if outcome.plan is not None:
            for step in outcome.plan.steps:
                steps[step.phase.value.replace("-", "_")] += 1
        elif isinstance(outcome.error, mp.errors.PlanningError):
            failures[outcome.error.reason] += 1
        else:
            failures["infeasible-target"] += 1
    return steps, failures


def collect_metrics(passes: list[PassResult], cases, mp, tracer, setup: dict,
                    probe: speed.SpeedProbe, scaled) -> tuple[int, int, dict[str, float]]:
    """(plans attempted, planning errors, metrics) of a finished run.

    `setup` holds the set-up time scaled and unscaled ("scaled", "wall");
    `scaled` maps an interval to its scaled seconds, as drawn from `probe`
    (or `speed.wall`). Untraced runs give the
    end-to-end metrics; traced runs the per-layer metrics, as per-pass means
    over the traced passes.
    """
    plain = [p for p in passes if not p.traced]
    steps, failures = outcome_counts(passes[0], mp, planning_reasons(mp.errors))
    attempted = len(cases) * len(passes)
    failed = sum(count for reason, count in failures.items()
                 if reason != "infeasible-target") * len(passes)
    pass_scaled, geomean_scaled = timings(plain, cases, scaled)
    if tracer is None:
        return attempted, failed, {
            "pass_scaled_s": pass_scaled,
            "plan_geomean_scaled_s": geomean_scaled,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup["scaled"],
        }
    traced = [p for p in passes if p.traced]
    computed = tracing.layer_metrics(tracer, len(traced), sum(steps.values()))
    for phase, count in steps.items():
        computed[f"planner.steps_{phase}"] = float(count)
    for reason, count in failures.items():
        computed[f"planner.failures.{reason}"] = float(count)
    computed["planner.fail_ratio"] = failed / attempted
    computed["bench.trace_overhead"] = (statistics.median(scaled(p.start, p.end) for p in traced)
                                        / pass_scaled)
    pooled = [scaled(o.start, o.end) for p in plain for o in p.outcomes]
    pass_wall, geomean_wall = timings(plain, cases, speed.wall)
    computed.update({
        "bench.pass_wall_s": pass_wall,
        "bench.plan_geomean_wall_s": geomean_wall,
        "bench.setup_wall_s": setup["wall"],
        "bench.plan_p95_s": float(np.percentile(pooled, 95)),
        "bench.plan_samples": float(len(pooled)),
        "bench.probe_us": probe.median_us(),
    })
    return attempted, failed, computed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = _missing_inputs()
    if missing:
        print(f"run from a repository checkout; missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    import marsplan
    from marsplan import controllability
    if Path(marsplan.__file__).resolve().parent != SRC / "marsplan":
        print(f"imported marsplan from {marsplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads(SPEC.read_text())
    setup_spans = [(_T_START, perf_counter())]          # imports

    builds, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cases = workloads.build_cases(args.workload, args.seed, SCENARIOS)
        builds.append((t0, perf_counter()))
        digests.add(workloads.case_digest(cases))
    if len(digests) != 1:
        print("case generation is not deterministic", file=sys.stderr)
        return 1
    cold = args.workload in workloads.COLD_CACHE
    controllability.clear_cm_cache()
    if not cold:
        t0 = perf_counter()
        run_pass(cases, False, marsplan)
        setup_spans.append((t0, perf_counter()))     # warm-up pass

    tracer = tracing.Tracer() if args.trace else None
    passes: list[PassResult] = []
    problems: list[str] = []
    margins: dict = {}
    t_begin = perf_counter()
    while True:
        t0 = perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.phase = tracing.PHASE_PASS
            with tracing.installed(tracer):
                result = run_pass(cases, cold, marsplan, tracer)
                tracer.phase = tracing.PHASE_CHECK
                problems += check_pass(result, cases, marsplan)
        else:
            result = run_pass(cases, cold, marsplan)
            problems += check_pass(result, cases, marsplan)
        problems += check_margins(result, cases, marsplan, margins)
        if passes:
            # checked and hashed; only the first pass keeps its plans, so that
            # memory does not grow with the number of passes
            for outcome in result.outcomes:
                outcome.plan = outcome.document = None
        passes.append(result)
        # A pass is never cut short, so the next one starts only if at least
        # half of it should fit. A traced run needs one pass of each kind.
        now = perf_counter()
        if (len(passes) >= 1 + args.trace
                and now - t_begin + (now - t0) / 2 > args.seconds):
            break
    PROBE.stop()

    if len({p.digest for p in passes}) != 1:
        problems.append("plan documents differ between passes")
    scaled = PROBE.scaler()

    def setup_time(span) -> float:
        return (sum(span(t0, t1) for t0, t1 in setup_spans)
                + statistics.median(span(t0, t1) for t0, t1 in builds))

    setup = {"scaled": setup_time(scaled), "wall": setup_time(speed.wall)}
    attempted, failed, computed = collect_metrics(passes, cases, marsplan, tracer, setup,
                                                  PROBE, scaled)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    undeclared = sorted(set(computed) - {m["name"] for m in declared})
    if undeclared:
        print(f"metrics not declared in BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cases": len(cases), "case_digest": digests.pop(),
        "plan_digest": passes[0].digest,
        "passes_wall_s": [p.end - p.start for p in passes],
        "passes_scaled_s": [scaled(p.start, p.end) for p in passes],
        "case_scaled_s": dict(zip((c.name for c in cases), case_medians(passes, scaled))),
        "case_outcomes": {c.name: _outcome_label(o) for c, o in zip(cases, passes[0].outcomes)},
        "traced": [p.traced for p in passes], "setup": setup,
        "probe": {"count": len(PROBE.took), "median_us": PROBE.median_us(),
                  "reference_us": speed.REFERENCE_PROBE_S * 1e6},
        "problems": problems, "env": env, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.npz")

    print(f"# workload {args.workload} seed {args.seed} cases {len(cases)} "
          f"passes {len(passes)} ({sum(p.traced for p in passes)} traced)")
    print(f"# case digest {record['case_digest']}")
    print(f"# plan digest {record['plan_digest']}")
    print(f"# env {json.dumps(env)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"# check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        # an armed timer left to interpreter shutdown would kill the process
        PROBE.stop()
    raise SystemExit(status)
