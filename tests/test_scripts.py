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
