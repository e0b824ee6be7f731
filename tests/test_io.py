"""Scenario parsing, plan files, replay, CSV trace, SVG rendering, and the CLI."""

import hashlib
import json
from pathlib import Path

import pytest

from marsplan.cli import main
from marsplan.controllability import DEFAULT_PARAMS, system_cm
from marsplan.errors import PlanningError, ScenarioError
from marsplan.io import (
    config_from_json,
    config_to_json,
    document_to_bytes,
    load_plan_document,
    load_scenario,
    params_to_json,
    parse_scenario,
    plan_to_document,
    replay_document,
    save_plan,
    write_cm_trace,
)
from marsplan.model import UNIT_FAULT, Cell, Configuration, rotor_fault
from marsplan.planner import plan
from marsplan.render import render_plan_svgs

RECT32 = {
    "cells": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]],
    "faults": [{"cell": [2, 0], "kind": "unit"}],
}


def scenario_file(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- scenario parsing -----------------------------------------------------------


def test_minimal_scenario_parses():
    s = parse_scenario({"cells": [[0, 0], [1, 0]]})
    assert s.config == Configuration.from_cells([Cell(0, 0), Cell(1, 0)])
    assert s.params == DEFAULT_PARAMS
    assert (s.name, s.c1, s.c2, s.epsilon, s.relocation_rule) == (None,) * 5


def test_full_scenario_parses():
    s = parse_scenario(
        {
            "name": "demo",
            "notes": "free-text field",
            "cells": [[0, 0], [1, 0], [1, 1]],
            "faults": [
                {"cell": [0, 0], "kind": "unit"},
                {"cell": [1, 1], "kind": "rotor", "rotor_index": 2},
            ],
            "params": {"gravity": 9.81, "unit_mass": 0.04},
            "weights": {"c1": 4, "c2": -0.2, "epsilon": 0.001},
            "flags": {"relocation_rule": False},
        }
    )
    assert s.name == "demo"
    assert s.config.state(Cell(0, 0)) == UNIT_FAULT
    assert s.config.state(Cell(1, 1)) == rotor_fault(2)
    assert s.params.unit_mass == 0.04
    assert (s.c1, s.c2, s.epsilon, s.relocation_rule) == (4.0, -0.2, 0.001, False)


@pytest.mark.parametrize(
    "data,fragment",
    [
        ([], "must be a JSON object"),
        ({"cells": [[0, 0]], "cellz": []}, "'cellz'"),
        ({}, "'cells'"),
        ({"cells": []}, "non-empty"),
        ({"cells": "nope"}, "non-empty"),
        ({"cells": [[0, 0], [0]]}, "cells[1]"),
        ({"cells": [[0, 0], [1, True]]}, "cells[1]"),
        ({"cells": [[0, 0], [1.5, 0]]}, "cells[1]"),
        ({"cells": [[0, 0], [0, 0]]}, "duplicate cell [0, 0]"),
        ({"cells": [[0, 0]], "faults": ["x"]}, "faults[0] must be an object"),
        ({"cells": [[0, 0]], "faults": [{"cell": [0, 0], "kind": "unit", "extra": 1}]},
         "'extra'"),
        ({"cells": [[0, 0]], "faults": [{"kind": "unit"}]}, "missing key 'cell'"),
        ({"cells": [[0, 0]], "faults": [{"cell": [0, 0], "kind": "engine"}]},
         "'unit' or 'rotor'"),
        ({"cells": [[0, 0]], "faults": [{"cell": [0, 0], "kind": "unit", "rotor_index": 1}]},
         "not valid for a unit fault"),
        ({"cells": [[0, 0]], "faults": [{"cell": [0, 0], "kind": "rotor"}]},
         "rotor_index"),
        ({"cells": [[0, 0]], "faults": [{"cell": [0, 0], "kind": "rotor", "rotor_index": 4}]},
         "rotor_index"),
        ({"cells": [[0, 0]], "faults": [{"cell": [0, 0], "kind": "rotor", "rotor_index": True}]},
         "rotor_index"),
        ({"cells": [[0, 0]],
          "faults": [{"cell": [0, 0], "kind": "unit"}, {"cell": [0, 0], "kind": "unit"}]},
         "duplicate fault cell"),
        ({"cells": [[0, 0]], "faults": [{"cell": [5, 5], "kind": "unit"}]},
         "not in 'cells'"),
        ({"cells": [[0, 0]], "params": "x"}, "'params' must be an object"),
        ({"cells": [[0, 0]], "params": {"mass": 1}}, "'mass'"),
        ({"cells": [[0, 0]], "params": {"gravity": "heavy"}}, "must be a number"),
        ({"cells": [[0, 0]], "params": {"gravity": True}}, "must be a number"),
        ({"cells": [[0, 0]], "params": {"unit_mass": -1}}, "invalid params"),
        ({"cells": [[0, 0]], "params": {"spin": [1, 1, 1, 1]}}, "spin"),
        ({"cells": [[0, 0]], "params": {"spin": [1, -1]}}, "spin"),
        ({"cells": [[0, 0]], "weights": "x"}, "'weights' must be an object"),
        ({"cells": [[0, 0]], "weights": {"c3": 1}}, "'c3'"),
        ({"cells": [[0, 0]], "weights": {"c1": "big"}}, "weights.c1"),
        ({"cells": [[0, 0]], "weights": {"c1": True}}, "weights.c1"),
        ({"cells": [[0, 0]], "flags": "x"}, "'flags' must be an object"),
        ({"cells": [[0, 0]], "flags": {"fast": True}}, "'fast'"),
        ({"cells": [[0, 0]], "flags": {"relocation_rule": 1}}, "must be a boolean"),
        ({"cells": [[0, 0]], "name": 7}, "'name' must be a string"),
        ({"cells": [[0, 0]], "notes": 7}, "'notes' must be a string"),
    ],
)
def test_scenario_rejections_name_the_problem(data, fragment):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(data)
    assert fragment in str(exc.value)


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(broken)


# -- configuration serialization ---------------------------------------------------


def test_config_json_round_trip_preserves_order_and_faults():
    cfg = Configuration.from_cells(
        [Cell(1, 1), Cell(0, 0), Cell(1, 0)],
        {Cell(1, 0): UNIT_FAULT, Cell(1, 1): rotor_fault(3)},
    )
    data = config_to_json(cfg)
    assert data["cells"] == [[0, 0], [1, 0], [1, 1]]  # (y, x) sorted
    assert data["faults"] == [
        {"cell": [1, 0], "kind": "unit"},
        {"cell": [1, 1], "kind": "rotor", "rotor_index": 3},
    ]
    assert config_from_json(data) == cfg


def test_params_to_json_lists_every_field():
    data = params_to_json(DEFAULT_PARAMS)
    assert data["unit_mass"] == 0.032
    assert data["spin"] == [1, -1, 1, -1]
    assert set(data) == {
        "unit_mass", "module_pitch", "arm_offset", "rotor_thrust_max",
        "yaw_torque_coeff", "gravity", "spin",
    }


# -- plan documents ------------------------------------------------------------------


@pytest.fixture(scope="module")
def rect_plan():
    start = Configuration.from_cells(
        [Cell(x, y) for y in range(2) for x in range(3)], {Cell(2, 0): UNIT_FAULT}
    )
    return start, plan(start)


def test_plan_document_structure(rect_plan):
    start, p = rect_plan
    doc = plan_to_document(p, start, name="demo")
    assert doc["format"] == "marsplan-plan-v1"
    assert doc["name"] == "demo"
    assert doc["weights"] == {"c1": 2.0, "c2": -0.1, "epsilon": 0.0}
    assert doc["flags"] == {"relocation_rule": True}
    assert doc["start_config"] == config_to_json(start)
    assert [s["index"] for s in doc["steps"]] == list(range(p.step_count))
    summary = doc["summary"]
    assert summary["step_count"] == p.step_count == 5
    assert summary["detach_attach_count"] == 10
    assert summary["total_path_length"] == p.total_path_length
    assert summary["min_cm"] == round(p.min_cm, 6)
    assert summary["target_cm"] == round(p.target.cm, 6)
    assert summary["target_config"] == config_to_json(p.target.config)
    step = doc["steps"][0]
    assert set(step) >= {"index", "kind", "phase", "moved_cells", "path", "post_cm", "post_config"}


def test_fault_free_plan_serializes_infinite_margins_as_null():
    cfg = Configuration.from_cells([Cell(0, 0), Cell(1, 0)])
    doc = plan_to_document(plan(cfg), cfg)
    assert doc["summary"]["min_cm"] is None
    assert doc["summary"]["target_cm"] is None
    assert doc["steps"] == []


def test_document_bytes_are_stable_and_compact(rect_plan):
    start, p = rect_plan
    doc = plan_to_document(p, start)
    blob = document_to_bytes(doc)
    assert blob.endswith(b"\n")
    assert b"[2, 0]" in blob  # coordinate pairs collapsed onto one line
    # Byte-stability through a JSON round trip (the determinism contract).
    assert document_to_bytes(json.loads(blob.decode())) == blob
    assert document_to_bytes(plan_to_document(p, start)) == blob


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# sha256 of the plan document of each bundled scenario under the default
# weights (no bundled scenario sets its own), relocation rule on, plus the
# heart11 rule-off ablation. Any change to the kernel, the search
# or the serializer that alters a plan byte shows up here; update a digest
# only together with a stated reason for the changed plan.
GOLDEN_PLAN_DIGESTS = {
    ("heart11", True):
        "07da2b9c9c9d88ef192aeeb50913a4da88c38f722425860499bd0c8333066191",
    ("heart11", False):
        "01bf961e6549a73f8451be4f4b2957f4c01231706866cfa0ed169cb2d25a2593",
    ("hollow3x3", True):
        "16f32f5ece9ab74fdb1f5bd92e7514e7a148c1e2b89f4f128a9b8fed7dc605bb",
    ("icra_letters", True):
        "66f8f847bdf3e7fdbfda4ddf199ead269201b1090622db09b42a48e06be98d2b",
    ("rect3x2_2fault", True):
        "e1fcb53b2e420fb66f565f0f23db37b08ec29cf407811de31b0a1de4488b7066",
    ("rect3x2_fault3", True):
        "147ff0025a11c983aed854fae14e7fbd17130437c14238fae8a08b91ad7c3e40",
    ("rect3x3_fault8", True):
        "8e06c3ee19a08f3c6df67416597b61ff51e144872a8262b764b442c7b635868a",
    ("triangle9_2fault", True):
        "87dfd1126a594a788e2d27323a3672ac14b57d484e0560cfd88f42ef44340c1d",
}


@pytest.mark.parametrize("stem, rule", sorted(GOLDEN_PLAN_DIGESTS))
def test_bundled_plan_documents_match_golden_digests(stem, rule):
    scenario = load_scenario(SCENARIOS / f"{stem}.json")
    result = plan(scenario.config, scenario.params, relocation_rule=rule)
    blob = document_to_bytes(plan_to_document(result, scenario.config, scenario.name))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_PLAN_DIGESTS[stem, rule]


def test_save_and_load_plan(tmp_path, rect_plan):
    start, p = rect_plan
    out = tmp_path / "plan.json"
    doc = save_plan(p, start, out, name="demo")
    assert out.read_bytes() == document_to_bytes(doc)
    assert load_plan_document(out) == doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "other"}))
    with pytest.raises(ScenarioError):
        load_plan_document(bad)
    with pytest.raises(ScenarioError):
        load_plan_document(tmp_path / "missing.json")


def test_replay_reaches_the_target(rect_plan):
    start, p = rect_plan
    doc = plan_to_document(p, start)
    assert replay_document(doc) == p.target.config


def test_replay_rejects_corrupted_documents(rect_plan):
    start, p = rect_plan
    doc = plan_to_document(p, start)
    tampered = json.loads(document_to_bytes(doc).decode())
    tampered["steps"][-1]["post_config"]["cells"][0] = [9, 9]
    with pytest.raises(PlanningError):
        replay_document(tampered)
    shifted = json.loads(document_to_bytes(doc).decode())
    shifted["steps"][0]["path"][0] = [8, 8]
    with pytest.raises(PlanningError):
        replay_document(shifted)


def test_replay_rejects_sweeps_through_occupied_cells():
    doc = {
        "start_config": {"cells": [[0, 0], [1, 0]], "faults": []},
        "steps": [
            {
                "index": 0,
                "kind": "move-unit",
                "phase": "fill-remainder",
                "moved_cells": [[0, 0]],
                "path": [[0, 0], [1, 0], [1, 1]],
                "post_cm": None,
                "post_config": {"cells": [[1, 0], [1, 1]], "faults": []},
            }
        ],
    }
    with pytest.raises(PlanningError) as exc:
        replay_document(doc)
    assert "sweeps through" in str(exc.value)


def test_cm_trace_csv(tmp_path, rect_plan):
    start, p = rect_plan
    out = tmp_path / "trace.csv"
    write_cm_trace(p, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "step_index,phase,moved_count,path_length,post_cm"
    assert len(lines) == 1 + p.step_count
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == p.steps[0].phase.value
    assert first[4] == f"{p.steps[0].post_cm:.6f}"


# -- SVG rendering ----------------------------------------------------------------------


def test_svg_rendering_is_deterministic(tmp_path, rect_plan):
    start, p = rect_plan
    first = render_plan_svgs(p, start, tmp_path / "a")
    second = render_plan_svgs(p, start, tmp_path / "b")
    assert [f.name for f in first] == [f"step_{i:03d}.svg" for i in range(p.step_count)]
    for fa, fb in zip(first, second):
        blob = fa.read_bytes()
        assert blob == fb.read_bytes()
        assert blob.startswith(b"<svg ")
        assert blob.count(b"<rect") == 1 + 6  # background + six units


def test_svg_rendering_of_empty_plan(tmp_path):
    cfg = Configuration.from_cells([Cell(0, 0), Cell(1, 0)])
    assert render_plan_svgs(plan(cfg), cfg, tmp_path / "empty") == []


# -- CLI ---------------------------------------------------------------------------------


def test_cli_plan_writes_everything(tmp_path, capsys):
    inp = scenario_file(tmp_path, RECT32)
    out = tmp_path / "plan.json"
    trace = tmp_path / "trace.csv"
    svgs = tmp_path / "svgs"
    code = main([
        "plan", "--input", inp, "--output", str(out),
        "--cm-trace", str(trace), "--svg-dir", str(svgs),
    ])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line == "steps=5 detach_attach=10 path_length=8 min_cm=0.001549"
    doc = load_plan_document(out)
    assert replay_document(doc) is not None
    assert trace.exists()
    assert sorted(f.name for f in svgs.iterdir()) == [
        f"step_{i:03d}.svg" for i in range(5)
    ]


def test_cli_plan_is_byte_deterministic_and_ignores_seed(tmp_path, capsys):
    inp = scenario_file(tmp_path, RECT32)
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    assert main(["plan", "--input", inp, "--output", str(out1)]) == 0
    assert main(["plan", "--input", inp, "--output", str(out2), "--seed", "7"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_cli_weight_precedence(tmp_path, capsys):
    data = dict(RECT32)
    data["weights"] = {"c1": 3.0}
    data["flags"] = {"relocation_rule": True}
    inp = scenario_file(tmp_path, data)
    out = tmp_path / "plan.json"
    assert main(["plan", "--input", inp, "--output", str(out)]) == 0
    assert load_plan_document(out)["weights"]["c1"] == 3.0  # scenario beats default
    assert main(["plan", "--input", inp, "--output", str(out), "--c1", "5.0"]) == 0
    doc = load_plan_document(out)
    assert doc["weights"]["c1"] == 5.0  # command line beats scenario
    assert doc["flags"]["relocation_rule"] is True
    assert main(["plan", "--input", inp, "--output", str(out), "--no-relocation-rule"]) == 0
    assert load_plan_document(out)["flags"]["relocation_rule"] is False
    capsys.readouterr()


def test_cli_cm_reports_system_and_subassemblies(tmp_path, capsys):
    inp = scenario_file(tmp_path, RECT32)
    assert main(["cm", "--input", inp]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# params: default"
    expected = system_cm(parse_scenario(RECT32).config)
    assert lines[1] == f"system {expected:.6f}"
    assert lines[2] == f"subassembly [0, 0] n=6 {expected:.6f}"


def test_cli_cm_fault_free_sentinel(tmp_path, capsys):
    inp = scenario_file(tmp_path, {"cells": [[0, 0], [1, 0]]})
    assert main(["cm", "--input", inp]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["# params: default", "fault-free"]


def test_cli_exit_codes(tmp_path, capsys):
    bad = scenario_file(tmp_path, {"cells": [[0, 0]], "cellz": 1}, "bad.json")
    assert main(["cm", "--input", bad]) == 1
    assert "cellz" in capsys.readouterr().err
    assert main(["cm", "--input", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()
    infeasible = scenario_file(
        tmp_path,
        {"cells": [[0, 0], [1, 0]], "faults": [{"cell": [0, 0], "kind": "unit"}]},
        "infeasible.json",
    )
    assert main(["plan", "--input", infeasible, "--output", str(tmp_path / "o.json")]) == 2
    assert "infeasible target" in capsys.readouterr().err
    stuck = scenario_file(
        tmp_path,
        {
            "cells": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]],
            "faults": [
                {"cell": [0, 0], "kind": "unit"},
                {"cell": [1, 0], "kind": "unit"},
            ],
        },
        "stuck.json",
    )
    assert main(["plan", "--input", stuck, "--output", str(tmp_path / "o.json")]) == 3
    assert "no-feasible-donor" in capsys.readouterr().err


def test_cli_usage_errors_exit_with_input_error_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan"])  # missing required arguments
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_params_environment_override(tmp_path, capsys, monkeypatch):
    inp = scenario_file(tmp_path, RECT32)
    assert main(["cm", "--input", inp]) == 0
    default_out = capsys.readouterr().out
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps({"gravity": 5.0}))
    monkeypatch.setenv("MARSPLAN_PARAMS", str(params_file))
    assert main(["cm", "--input", inp]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# params: file:{params_file}"
    assert lines[1] != default_out.splitlines()[1]  # lighter gravity, new margins
    bad_params = tmp_path / "bad_params.json"
    bad_params.write_text(json.dumps({"warp": 9}))
    monkeypatch.setenv("MARSPLAN_PARAMS", str(bad_params))
    assert main(["cm", "--input", inp]) == 1
    assert "warp" in capsys.readouterr().err


def test_cli_params_label_notes_scenario_overrides(tmp_path, capsys):
    data = dict(RECT32)
    data["params"] = {"gravity": 3.7}
    inp = scenario_file(tmp_path, data)
    assert main(["cm", "--input", inp]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# params: default+scenario-overrides"
