"""The scripts under scripts/ run end to end on a small bundled scenario."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from marsplan.io import config_from_json, load_plan_document, replay_document

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "rect3x2_fault3.json"


def _run(script, *args):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_all_scenarios_writes_a_plan_per_scenario(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    shutil.copy(SCENARIO, scenarios)
    out = _run("run_all_scenarios.py", "--scenarios", scenarios, "--out", tmp_path / "out")
    assert SCENARIO.stem in out
    doc = load_plan_document(tmp_path / "out" / SCENARIO.stem / "plan.json")
    assert replay_document(doc) == config_from_json(doc["summary"]["target_config"])
    assert (tmp_path / "out" / SCENARIO.stem / "trace.csv").is_file()


@pytest.mark.parametrize("script,args", [
    ("heart_ablation.py", ("--scenario", SCENARIO)),
    ("hollow_weight_study.py", ("--scenario", SCENARIO, "--c1", 2, 4)),
])
def test_study_scripts_run(script, args):
    assert _run(script, *args).strip()
