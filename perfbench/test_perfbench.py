"""Tests of the benchmark itself: its inputs, its tracing and its output contract.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest

import run  # puts the repository's src/ on sys.path
import speed
import tracing
import workloads

import marsplan
from marsplan import cli, controllability, planner, vmcs
from marsplan.model import UNIT_FAULT, Cell, Configuration, is_connected, partition

SPEC = json.loads(run.SPEC.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _small_cases():
    """Cheap cases that still reach every layer: small fuzz shapes and rect3x2."""
    fuzz = [c for c in workloads.fuzz_cases(5) if c.config.n <= 6]
    bundled = [c for c in workloads.bundled_cases(run.SCENARIOS) if c.name.startswith("rect3x2")]
    return fuzz + bundled


def _traced_pass(cases):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = run.run_pass(cases, True, marsplan, tracer)
    return tracer, result


def test_case_generation_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        first = workloads.build_cases(workload, 7, run.SCENARIOS)
        again = workloads.build_cases(workload, 7, run.SCENARIOS)
        other = workloads.build_cases(workload, 8, run.SCENARIOS)
        assert workloads.case_digest(first) == workloads.case_digest(again), workload
        # the seed orders a fixed case set
        assert workloads.case_digest(first) != workloads.case_digest(other), workload
        key = lambda case: case.name  # noqa: E731
        assert (workloads.case_digest(sorted(first, key=key))
                == workloads.case_digest(sorted(other, key=key))), workload


def test_fuzz_cases_cover_the_criterion_8_distribution_evenly():
    cases = workloads.fuzz_cases(3)
    strata = Counter((c.config.n, c.config.n_faulty) for c in cases)
    repeats = workloads.FUZZ_REPEATS
    for n in workloads.FUZZ_SIZES:
        draws = Counter(min(d, n - 1) for d in workloads.FUZZ_FAULT_DRAWS)
        for faults, count in draws.items():
            assert strata[(n, faults)] == count * repeats, (n, faults)
    for case in cases:
        assert is_connected(case.config.cells)
        assert all(case.config.state(c) == UNIT_FAULT for c in case.config.faulty_cells)


def test_block_cases_are_solid_rectangles_with_faults():
    for case, ((width, height), kinds) in zip(workloads.block_cases(), workloads.BLOCK_CASES):
        cells = case.config.cells
        assert len(cells) == width * height
        assert len({c.x for c in cells}) == width and len({c.y for c in cells}) == height
        assert case.config.n_faulty == len(kinds)


def test_wrappers_rebind_every_consumer_and_are_removed_afterwards():
    original = controllability.system_cm
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wrapped = controllability.system_cm
        assert wrapped is not original
        for module in (planner, vmcs, cli, marsplan):
            assert module.system_cm is wrapped
    for module in (controllability, planner, vmcs, cli, marsplan):
        assert module.system_cm is original


def test_traced_and_untraced_passes_give_the_same_plans():
    cases = _small_cases()
    plain = run.run_pass(cases, True, marsplan)
    tracer, traced = _traced_pass(cases)
    assert plain.digest == traced.digest
    assert run.check_pass(plain, cases, marsplan) == []
    spans = tracer.arrays()
    plan_id = tracer.names.index("planner.plan")
    assert (spans["name_id"] == plan_id).sum() == len(cases)
    # gate evaluations made by the pipeline hang directly under the plan span
    gate = (spans["name_id"] == tracer.names.index("controllability.system_cm"))
    assert (spans["name_id"][spans["parent"][gate & (spans["parent"] >= 0)]] == plan_id).any()


def test_self_times_partition_the_traced_time():
    tracer, _ = _traced_pass(_small_cases())
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    assert (spans["self_time"] <= duration + 1e-9).all()
    roots = spans["parent"] < 0
    assert abs(spans["self_time"].sum() - duration[roots].sum()) < 1e-6 * len(duration) + 1e-3


def test_every_computed_metric_is_declared():
    cases = _small_cases()
    plain = run.run_pass(cases, True, marsplan)
    tracer, traced = _traced_pass(cases)
    setup = {"scaled": 0.5, "wall": 0.4}
    probe = speed.SpeedProbe()
    _, _, end_to_end = run.collect_metrics([plain], cases, marsplan, None, setup, probe,
                                           speed.wall)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    _, _, per_layer = run.collect_metrics([plain, traced], cases, marsplan, tracer, setup,
                                          probe, speed.wall)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v > 0 for v in end_to_end.values())


def test_exterior_margin_of_a_lone_faulty_unit_is_counted():
    lone = Configuration.from_cells([Cell(0, 0)], {Cell(0, 0): UNIT_FAULT})
    sub = partition(lone)[0]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        margin = controllability.subassembly_cm(sub)
    assert margin < 0
    metrics = tracing.layer_metrics(tracer, 1, 0)
    assert metrics["controllability.exterior_evals"] == 1
    assert metrics["controllability.cm_calls.m_le_16"] == 1
    assert metrics["controllability.exterior_s"] > 0


def test_margin_check_recomputes_margins_without_the_cache():
    cases = [c for c in workloads.bundled_cases(run.SCENARIOS) if c.name.startswith("rect3x2")]
    result = run.run_pass(cases, True, marsplan)
    assert run.check_margins(result, cases, marsplan, {}) == []
    plan = result.outcomes[0].plan
    step = plan.steps[0]
    plan.steps[0] = dataclasses.replace(step, post_cm=step.post_cm + 1e-3)
    problems = run.check_margins(result, cases, marsplan, {})
    assert len(problems) == 1 and "recomputed" in problems[0]


def test_probe_scales_each_interval_by_the_speed_around_it():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_PROBE_S
    for i in range(200):                      # half speed for 1 s, then full speed
        probe.at.append(i * 0.01)
        probe.took.append(2 * ref if i < 100 else ref)
    scaled = probe.scaler()
    busy_slow = 2 * ref * 50                  # probes inside [0.2, 0.7)
    assert scaled(0.2, 0.7) == pytest.approx((0.5 - busy_slow) * 0.5)
    assert scaled(1.2, 1.7) == pytest.approx(0.5 - ref * 50)
    with pytest.raises(ValueError):
        scaled(5.0, 6.0)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "{" not in done.stdout
