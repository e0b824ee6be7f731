"""The scripts under scripts/ run end to end on a small bundled scenario."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from marsplan.io import config_from_json, replay_document

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "rect3x2_fault3.json"


def _run(script, *args, check=True):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          capture_output=True, text=True, timeout=300)
    if check:
        assert done.returncode == 0, done.stderr
    return done


def test_run_all_scenarios_writes_a_plan_per_scenario(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    shutil.copy(SCENARIO, scenarios)
    out = _run("run_all_scenarios.py", "--scenarios", scenarios, "--out", tmp_path / "out").stdout
    assert SCENARIO.stem in out
    doc = json.loads((tmp_path / "out" / SCENARIO.stem / "plan.json").read_text())
    assert replay_document(doc) == config_from_json(doc["summary"]["target_config"])
    assert (tmp_path / "out" / SCENARIO.stem / "trace.csv").is_file()


@pytest.mark.parametrize("script,args", [
    ("heart_ablation.py", ("--scenario", SCENARIO)),
    ("hollow_weight_study.py", ("--scenario", SCENARIO, "--c1", 2, 4)),
])
def test_study_scripts_run(script, args):
    assert _run(script, *args).stdout.strip()


@pytest.mark.parametrize("script", ["heart_ablation.py", "hollow_weight_study.py"])
def test_study_scripts_keep_the_scenario_floor(script, tmp_path):
    # only the setting under study varies: a floor above the best placement's
    # margin must stop the study, not be dropped
    scenario = json.loads(SCENARIO.read_text())
    scenario["weights"] = {"epsilon": 1000.0}
    path = tmp_path / "floored.json"
    path.write_text(json.dumps(scenario))
    done = _run(script, "--scenario", path, check=False)
    assert done.returncode != 0
    assert "InfeasibleTargetError" in done.stderr


def test_bench_writes_every_end_to_end_metric_of_a_correct_run(tmp_path):
    _run("bench.py", "--label", "check", "--workloads", "blocks", "--seeds", 1,
         "--seconds", 0.3, "--out", tmp_path)
    record = json.loads((tmp_path / "BENCH_check.json").read_text())
    assert record["label"] == "check" and record["seeds"] == [1]
    assert record["env"] and "layer_timings" in record
    assert "git_head" in record and "git_dirty" in record
    (workload,) = record["workloads"]
    assert workload == "blocks"
    blocks = record["workloads"]["blocks"]
    assert set(blocks["plan_digests"]) == {"1"} and len(blocks["plan_digests"]["1"]) == 64
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(blocks["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for name, metric in blocks["metrics"].items():
        assert set(metric) == {"values", "median", "q1", "q3", "unit"}, name
        assert len(metric["values"]) == 1
        assert all(v > 0 for v in (*metric["values"], metric["median"], metric["q1"], metric["q3"]))
        assert metric["q1"] <= metric["median"] <= metric["q3"]
    kernel = record["kernel_by_m"]
    assert [entry["block"] for entry in kernel] == [f"{w}x{w}" for w in range(1, 8)]
    assert [entry["m"] for entry in kernel] == [0, 12, 32, 60, 96, 140, 192]
    for entry in kernel:
        assert entry["calls"] >= 5
        assert entry["m"] == 0 or entry["median_scaled_s"] > 0, entry
    astar = record["astar_by_arena"]
    assert [entry["search"] for entry in astar] == ["unit", "rigid"]
    for entry in astar:
        assert entry["calls"] >= 5 and entry["median_scaled_s"] > 0, entry
        assert entry["routes"] > entry["no_path"] > 0, entry
    assign = record["assign_by_size"]
    assert [entry["size"] for entry in assign] == ["3x6", "10x12", "20x20", "30x30"]
    for entry in assign:
        assert entry["calls"] >= 5 and entry["median_scaled_s"] > 0, entry
        assert entry["size"] == f"{entry['rows']}x{entry['cols']}", entry
    placement = record["placement_by_faults"]
    assert [(entry["block"], entry["faults"]) for entry in placement] == [
        (f"{w}x{w}", count) for w in (4, 5, 6) for count in (1, 2, 3)]
    for entry in placement:
        assert entry["calls"] >= 5 and entry["median_scaled_s"] > 0, entry
        assert len(entry["fault_cells"]) == entry["faults"], entry
    assert "astar_by_arena" in record["layer_timings"]
    assert "assign_by_size" in record["layer_timings"]
    assert "placement_by_faults" in record["layer_timings"]
