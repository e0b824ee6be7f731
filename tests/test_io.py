"""Scenario parsing, plan files, replay, CSV trace, SVG rendering, and the CLI."""

import dataclasses
import enum
import hashlib
import importlib
import importlib.util
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import marsplan
from marsplan import cli
from marsplan.cli import main
from marsplan.controllability import DEFAULT_PARAMS, PhysicalParams, clear_cm_cache, system_cm
from marsplan.errors import PlanningError, SafetyViolationError, ScenarioError
from marsplan.io import (
    config_from_json,
    config_to_json,
    document_to_bytes,
    load_scenario,
    params_to_json,
    parse_params,
    parse_scenario,
    plan_to_document,
    replay_document,
    save_plan,
    step_to_json,
    write_cm_trace,
)
from marsplan.model import HEALTHY, UNIT_FAULT, Cell, Configuration, FaultKind, FaultState, rotor_fault
from marsplan.paths import arena_around, astar_unit
from marsplan.planner import Phase, PlanStep, StepKind, plan
from marsplan.render import render_plan_svgs

from helpers import reference_document_bytes

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
    assert s.settings() == {}
    assert parse_scenario({"cells": [[0, 0]], "weights": {"c2": 0.0}}).settings() == {"c2": 0.0}


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
    assert s.settings() == {"c1": 4.0, "c2": -0.2, "epsilon": 0.001, "relocation_rule": False}


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
        ({"cells": [[0, 0]], "faults": None}, "faults must be a list"),
        ({"cells": [[0, 0]], "params": {"gravity": math.nan}}, "invalid params"),
        ({"cells": [[0, 0]], "params": {"rotor_thrust_max": math.inf}}, "invalid params"),
        ({"cells": [[0, 0]], "weights": {"epsilon": math.nan}}, "weights.epsilon"),
        ({"cells": [[0, 0]], "params": {"spin": [True, -1, 1, -1]}}, "spin"),
        # a Cell is the tuple (y, x): read as [x, y] it would be swapped
        ({"cells": [Cell(1, 0)]}, "cells[0]"),
        ({"cells": [[1, 0]], "faults": [{"cell": Cell(1, 0), "kind": "unit"}]}, "faults[0].cell"),
        # ints too large for a float
        ({"cells": [[0, 0]], "weights": {"c1": 10**400}}, "weights.c1"),
        ({"cells": [[0, 0]], "params": {"gravity": 10**400}}, "params.gravity"),
        ({"cells": [[0, 0]], "weights": {"epsilon": -(10**309)}}, "weights.epsilon"),
        # FaultState's own rule: an exact int index, and only a unit or rotor fault
        ({"cells": [[0, 0]], "faults": [{"cell": [0, 0], "kind": "rotor", "rotor_index": 1.0}]},
         "rotor_index"),
        ({"cells": [[0, 0]], "faults": [{"cell": [0, 0], "kind": "healthy"}]}, "'unit' or 'rotor'"),
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


@pytest.mark.parametrize("text,key", [
    ('{"cells": [[0, 0], [1, 0]], "faults": [{"cell": [0, 0], "kind": "unit",'
     ' "kind": "rotor", "rotor_index": 1}]}', "kind"),
    ('{"cells": [[0, 0]], "cells": [[0, 0], [1, 0]]}', "cells"),
], ids=["fault-kind", "cells"])
def test_a_repeated_json_key_is_an_input_error(tmp_path, text, key):
    # Keeping the last value would read the fault as a rotor fault, and the
    # cells as the second list.
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(ScenarioError, match=f"repeated key '{key}'"):
        load_scenario(path)


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


_PARAM_NUMBERS = st.one_of(st.integers(1, 1000), st.floats(1e-4, 1e3),
                          st.floats(1e-4, 1e3).map(np.float64))
_NUMBER_FIELDS = [f.name for f in dataclasses.fields(PhysicalParams) if f.name != "spin"]


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({name: _PARAM_NUMBERS for name in _NUMBER_FIELDS}),
       st.sampled_from(sorted(set(itertools.permutations((1, 1, -1, -1))))))
def test_params_the_type_accepts_read_back_equal(fields, spin):
    assume(2 * fields["arm_offset"] < fields["module_pitch"])
    params = PhysicalParams(**fields, spin=spin)
    written = document_to_bytes(params_to_json(params))
    read = parse_params(json.loads(written))
    assert read == params
    assert document_to_bytes(params_to_json(read)) == written


def test_fault_states_the_type_accepts_read_back_equal():
    accepted = []
    for kind, rotor_index in itertools.product(
            [*FaultKind, *(kind.value for kind in FaultKind)],
            [None, -1, 0, 1, 2, 3, 4, True, False, 1.0, np.int64(1)]):
        try:
            state = FaultState(kind, rotor_index)
        except (TypeError, ValueError):
            continue
        accepted.append(state)
        config = Configuration.from_cells([Cell(0, 0), Cell(1, 0)], {Cell(1, 0): state})
        assert config_from_json(json.loads(document_to_bytes(config_to_json(config)))) == config
    assert sorted(accepted) == [HEALTHY, *map(rotor_fault, range(4)), UNIT_FAULT]


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


@pytest.mark.parametrize("name", ["shape [ 1,  2 ]", "[\n  1,\n  2\n]", "[ -3, 4 ] and [5,\t6]"])
def test_document_bytes_keep_a_name_that_looks_like_a_pair(rect_plan, name):
    # Only the pairs json.dumps breaks over lines are collapsed; a string
    # holding brackets and digits is written as it is.
    start, p = rect_plan
    blob = document_to_bytes(plan_to_document(p, start, name=name))
    assert json.loads(blob.decode())["name"] == name
    assert b"[2, 0]" in blob


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# strings that hold what the pair regex and the escaper look for
_TEXT = st.text(alphabet='"\\\n\t []{},:-0123456789aé→\u2028\x00', max_size=10) | st.text(max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**30, 10**30)
            | st.floats() | st.sampled_from([-0.0, 1e300, 1.0, 2.5, math.inf]) | _TEXT)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Half(float):
    pass


class _Text(str):
    pass


def _json_trees(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(_TEXT, children, max_size=4)
            | st.lists(st.integers(-10**30, 10**30), min_size=2, max_size=2)
            | st.tuples(st.booleans() | st.floats(-3, 3) | st.integers(), st.integers()).map(list))


@given(st.dictionaries(_TEXT, st.recursive(_SCALARS, _json_trees, max_leaves=25), max_size=5))
@example({"a": [True, 1], "b": [1.0, 2], "c": -0.0, "d": 1e300, "e": None, "f": {},
          "g": [], "h": [[], {}, [{}], {"": []}], "i": [-10**30, 10**30 - 1], "j": [[1, 2]],
          "k": "[\n  1,\n  2\n]", "\"[3, 4]\"\n": ["é", "\u2028"], "l": [1, 2, 3],
          "m": _Level.HIGH, "n": [_Level.LOW, 2], "o": _Half(0.5), "p": [_Half(1.5), _Half("nan")],
          "q": Cell(3, -4), "r": [Cell(0, 0), (Cell(1, 2),)],
          "s": FaultKind.UNIT, "t": [_Text("é \"q\" \u2028"), _Text("")]})
@settings(max_examples=300, deadline=None)
def test_document_bytes_match_the_reference_writer_on_json_trees(doc):
    # The reference is json.dumps(indent=2) plus the pair regex; its input is
    # a document, a dict, so a pair is never the top-level value.
    assert document_to_bytes(doc) == reference_document_bytes(doc)


def test_document_bytes_match_the_reference_writer_on_bundled_plans():
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        for rule in (True, False):
            result = plan(scenario.config, scenario.params, relocation_rule=rule)
            doc = plan_to_document(result, scenario.config, scenario.name)
            assert document_to_bytes(doc) == reference_document_bytes(doc), (path.stem, rule)


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
    ("hollow3x3", False):
        "6274d80f8ad8883dc423eb408b6026ece014c77b9dc76a8bef9117f042f9aa4e",
    ("icra_letters", True):
        "66f8f847bdf3e7fdbfda4ddf199ead269201b1090622db09b42a48e06be98d2b",
    ("icra_letters", False):
        "71b88db0a03a9313a0c3ef35164915fe7ad37fe52c0929a7a2d272b389c436bf",
    ("rect3x2_2fault", True):
        "e1fcb53b2e420fb66f565f0f23db37b08ec29cf407811de31b0a1de4488b7066",
    ("rect3x2_2fault", False):
        "b53b609b819230f8583f428f5e21f04411c6bdc6f8e786d95ce1f5bc103b8ec9",
    ("rect3x2_fault3", True):
        "147ff0025a11c983aed854fae14e7fbd17130437c14238fae8a08b91ad7c3e40",
    ("rect3x2_fault3", False):
        "a507172ebceefbe601757274c18aff0e75c658804610a22b18d7b2fe9e96dad4",
    ("rect3x3_fault8", True):
        "8e06c3ee19a08f3c6df67416597b61ff51e144872a8262b764b442c7b635868a",
    ("rect3x3_fault8", False):
        "6ce84129b9f24eee722e84f419491771ab134ada5f04d864125a92320cbb9fdb",
    ("triangle9_2fault", True):
        "87dfd1126a594a788e2d27323a3672ac14b57d484e0560cfd88f42ef44340c1d",
    ("triangle9_2fault", False):
        "6bc5dad5d3e02c9b0c16dd4b8441f7dd60e5b81daaa24aebe480194a50ae045a",
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
    assert json.loads(out.read_text()) == doc


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
    # malformed structure is an input error, a step that does not fit its
    # state is a planning error; neither escapes as a bare KeyError or
    # CellNotOccupiedError
    unindexed = json.loads(document_to_bytes(doc).decode())
    del unindexed["steps"][0]["index"]
    with pytest.raises(ScenarioError, match="index"):
        replay_document(unindexed)
    ghost = json.loads(document_to_bytes(doc).decode())
    ghost["steps"][0]["moved_cells"] = [[7, 7]]
    ghost["steps"][0]["path"] = [[7, 7]]
    with pytest.raises(SafetyViolationError, match="step 0 fails the unoccupied check") as exc:
        replay_document(ghost)
    assert exc.value.info == {"step": 0, "cause": "unoccupied"}
    # a recorded margin must be a finite number (json reads NaN, and ints of
    # any size) and must be the margin of its step's configuration
    for margin, error, fragment in ((math.nan, ScenarioError, r"steps\[0\]\.post_cm"),
                                    (10**400, ScenarioError, r"steps\[0\]\.post_cm"),
                                    (True, ScenarioError, r"steps\[0\]\.post_cm"),
                                    (-5.0, PlanningError, "step 0 records margin"),
                                    (1e9, PlanningError, "step 0 records margin")):
        edited = json.loads(document_to_bytes(doc).decode())
        edited["steps"][0]["post_cm"] = margin
        with pytest.raises(error, match=fragment):
            replay_document(edited)
    # so must each weight, however large
    for key in ("c1", "c2", "epsilon"):
        edited = json.loads(document_to_bytes(doc).decode())
        edited["weights"][key] = 10**400
        with pytest.raises(ScenarioError, match=f"weights.{key}"):
            replay_document(edited)
    # a step has only its known keys, a string note, an integer index, a
    # known kind and phase, distinct moved cells and the kind that fits
    # their number
    for i, key, value, fragment in ((0, "bogus", 1, r"unknown key 'bogus' in steps\[0\]"),
                                    (1, "note", 5, r"steps\[1\]\.note"),
                                    (1, "note", [1], r"steps\[1\]\.note"),
                                    (1, "index", True, r"steps\[1\]\.index"),
                                    (1, "index", 1.0, r"steps\[1\]\.index"),
                                    (0, "kind", "teleport", r"steps\[0\]: 'teleport' is not a valid"),
                                    (1, "phase", "warp", r"steps\[1\]: 'warp' is not a valid"),
                                    (0, "kind", "move-subassembly", r"steps\[0\]\.kind"),
                                    (2, "kind", "move-unit", r"steps\[2\]\.kind"),
                                    (2, "moved_cells", [[2, -1], [2, -1]],
                                     r"steps\[2\]\.moved_cells")):
        edited = json.loads(document_to_bytes(doc).decode())
        edited["steps"][i][key] = value
        with pytest.raises(ScenarioError, match=fragment):
            replay_document(edited)


def test_replay_checks_margins_under_the_documents_params():
    start = Configuration.from_cells(
        [Cell(x, y) for y in range(2) for x in range(3)], {Cell(2, 0): UNIT_FAULT})
    params = dataclasses.replace(DEFAULT_PARAMS, spin=(1, 1, -1, -1))
    p = plan(start, params)
    doc = plan_to_document(p, start)
    assert replay_document(doc) == p.target.config
    # without params the document is replayed under the defaults, whose
    # margin of the last configuration differs from the recorded one
    del doc["params"]
    with pytest.raises(PlanningError, match="records margin") as exc:
        replay_document(doc)
    assert exc.value.info == {"step": p.step_count - 1}


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
    with pytest.raises(SafetyViolationError, match="step 0 fails the collision check") as exc:
        replay_document(doc)
    assert exc.value.info == {"step": 0, "cause": "collision"}


def test_replay_rejects_a_flight_that_leaves_the_arena():
    # The second unit of a healthy row flies 50 cells up, far outside the
    # arena the planner searches (two free cells around the start).
    path = [[1, y] for y in range(51)]
    doc = {
        "start_config": {"cells": [[0, 0], [1, 0]], "faults": []},
        "steps": [
            {
                "index": 0,
                "kind": "move-unit",
                "phase": "fill-remainder",
                "moved_cells": [[1, 0]],
                "path": path,
                "post_cm": None,
                "post_config": {"cells": [[0, 0], [1, 50]], "faults": []},
            }
        ],
    }
    with pytest.raises(SafetyViolationError, match="step 0 fails the arena check") as exc:
        replay_document(doc)
    assert exc.value.info == {"step": 0, "cause": "arena"}
    # the same flight ending inside the arena replays
    doc["steps"][0]["path"] = path[:3]
    doc["steps"][0]["post_config"]["cells"][1] = [1, 2]
    assert replay_document(doc) == Configuration.from_cells([Cell(0, 0), Cell(1, 2)])


@pytest.mark.parametrize("key, field, value, error, fragment", [
    ("bogus", None, 1, ScenarioError, "unknown key 'bogus' in plan document"),
    ("format", None, "other", ScenarioError, "format must be 'marsplan-plan-v1'"),
    ("weights", None, "x", ScenarioError, "'weights' must be an object"),
    ("weights", "epsilon", math.nan, ScenarioError, "weights.epsilon"),
    ("flags", None, "x", ScenarioError, "'flags' must be an object"),
    ("summary", "step_count", 99, PlanningError, "summary does not match"),
    ("summary", "detach_attach_count", 12, PlanningError, "summary does not match"),
    ("summary", "total_path_length", 1, PlanningError, "summary does not match"),
    ("summary", "min_cm", 7.0, PlanningError, "summary does not match"),
    ("summary", "target_cm", 5.0, PlanningError, "summary does not match"),
    ("summary", "target_config", RECT32, PlanningError, "summary does not match"),
    ("name", None, 7, ScenarioError, "'name' must be a string"),
    # the header a plan document shares with a scenario is read the same way
    ("params", None, "x", ScenarioError, "'params' must be an object"),
    ("params", "mass", 1, ScenarioError, "unknown key 'mass' in 'params'"),
    ("flags", "relocation_rule", 1, ScenarioError, r"flags\.relocation_rule must be a boolean"),
    ("weights", "c3", 1, ScenarioError, "unknown key 'c3' in 'weights'"),
])
def test_replay_checks_the_documents_top_level_fields(rect_plan, key, field, value, error,
                                                      fragment):
    start, p = rect_plan
    doc = json.loads(document_to_bytes(plan_to_document(p, start)).decode())
    if field is None:
        doc[key] = value
    else:
        doc[key][field] = value
    with pytest.raises(error, match=fragment):
        replay_document(doc)


def test_replay_rejects_a_flying_fault_that_cannot_hover():
    # The only step flies the lone dead unit of rect3x2_fault3 off the
    # assembly and records the true margin of its configuration. The dead
    # unit cannot fly on its own, so the step fails the piece check.
    start = load_scenario(SCENARIOS / "rect3x2_fault3.json").config
    (fault,) = start.faulty_cells
    goal = Cell(-2, -2)
    path = astar_unit(fault, goal, start.cell_set - {fault}, arena_around(start.cells))
    post = start.translate_set([fault], (goal.x - fault.x, goal.y - fault.y))
    step = PlanStep(StepKind.MOVE_UNIT, Phase.FILL_REMAINDER, (fault,), path, post,
                    system_cm(post))
    doc = {"weights": {"c1": 2.0, "c2": -0.1, "epsilon": 0.0},
           "start_config": config_to_json(start), "steps": [step_to_json(0, step)]}
    assert doc["steps"][0]["post_cm"] == pytest.approx(-0.314, abs=1e-3)
    with pytest.raises(SafetyViolationError) as exc:
        replay_document(doc)
    assert exc.value.info == {"step": 0, "cause": "piece"}


def test_replay_certifies_every_step_under_the_documents_floor():
    scenario = load_scenario(SCENARIOS / "heart11.json")
    result = plan(scenario.config, scenario.params)
    doc = json.loads(document_to_bytes(plan_to_document(result, scenario.config)).decode())
    assert replay_document(doc) == result.target.config
    # the exact minimum rounds to min_cm, so this floor lies above it
    floor = doc["summary"]["min_cm"] + 1e-6
    doc["weights"]["epsilon"] = floor
    first = next(i for i, step in enumerate(doc["steps"]) if step["post_cm"] < floor)
    assert first > 0
    with pytest.raises(SafetyViolationError) as exc:
        replay_document(doc)
    assert exc.value.info == {"step": first, "cause": "post"}


def test_replay_rejects_a_piece_that_is_not_4_connected():
    # both ends of a row fly up together as if they were one rigid piece
    doc = {
        "start_config": {"cells": [[0, 0], [1, 0], [2, 0]], "faults": []},
        "steps": [
            {
                "index": 0,
                "kind": "move-subassembly",
                "phase": "vmcs-transfer",
                "moved_cells": [[0, 0], [2, 0]],
                "path": [[0, 0], [0, 1]],
                "post_cm": None,
                "post_config": {"cells": [[1, 0], [0, 1], [2, 1]], "faults": []},
            }
        ],
    }
    with pytest.raises(SafetyViolationError, match="step 0 fails the disconnected check") as exc:
        replay_document(doc)
    assert exc.value.info == {"step": 0, "cause": "disconnected"}


@pytest.mark.parametrize(
    "config,fragment",
    [
        ({"cells": [[0, 0], [1, 0]],
          "faults": [{"cell": [0, 0], "kind": "unit"},
                     {"cell": [0, 0], "kind": "rotor", "rotor_index": 1}]},
         "duplicate fault cell [0, 0] in 'start_config.faults'"),
        ({"cells": [[0, 0], [0, 0]], "faults": []},
         "duplicate cell [0, 0] in 'start_config.cells'"),
        ({"cells": [[0, 0]], "faults": [{"cell": [1, 0], "kind": "unit"}]},
         "fault cell [1, 0] is not in 'start_config.cells'"),
        ({}, "'start_config.cells' must be a non-empty list"),
        ({"cells": [], "faults": []}, "'start_config.cells' must be a non-empty list"),
    ],
)
def test_plan_document_configurations_are_checked_like_scenarios(config, fragment):
    with pytest.raises(ScenarioError) as exc:
        replay_document({"start_config": config, "steps": []})
    assert fragment in str(exc.value)


FAULT00 = Configuration.from_cells([Cell(x, y) for y in range(2) for x in range(3)],
                                   {Cell(0, 0): UNIT_FAULT})


@pytest.mark.parametrize("options,name,error", [
    ({"relocation_rule": 0}, None, TypeError),
    ({"relocation_rule": 1}, None, TypeError),
    ({"relocation_rule": np.bool_(True)}, None, TypeError),
    ({"c1": True}, None, TypeError),
    ({"c2": np.int64(-1)}, None, TypeError),
    ({"epsilon": np.float32(0.0)}, None, TypeError),
    ({}, 7, TypeError),
    ({"c1": 10**400}, None, ValueError),      # an int, but too large for a float
])
def test_settings_a_plan_document_cannot_carry_are_refused(options, name, error):
    # each of these once planned, then failed in replay or in JSON encoding,
    # or raised OverflowError
    with pytest.raises(error):
        plan_to_document(plan(FAULT00, **options), FAULT00, name=name)


def test_int_and_float64_settings_round_trip():
    p = plan(FAULT00, c1=2, c2=np.float64(-0.1), epsilon=0)
    doc = json.loads(document_to_bytes(plan_to_document(p, FAULT00, name="ints")))
    assert doc["weights"] == {"c1": 2, "c2": -0.1, "epsilon": 0}
    assert replay_document(doc) == p.target.config


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
    doc = json.loads(out.read_text())
    assert replay_document(doc) is not None
    assert trace.exists()
    assert sorted(f.name for f in svgs.iterdir()) == [
        f"step_{i:03d}.svg" for i in range(5)
    ]


def test_cli_plan_is_byte_deterministic_and_ignores_seed(tmp_path, capsys):
    inp = scenario_file(tmp_path, RECT32)
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    assert main(["plan", "--input", inp, "--output", str(out1)]) == 0
    assert main(["plan", "--input", inp, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--input", inp, "--output", str(out2), "--seed", "7"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_cli_weight_precedence(tmp_path, capsys):
    data = dict(RECT32)
    data["weights"] = {"c1": 3.0}
    data["flags"] = {"relocation_rule": True}
    inp = scenario_file(tmp_path, data)
    out = tmp_path / "plan.json"
    assert main(["plan", "--input", inp, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["weights"]["c1"] == 3.0  # scenario beats default
    assert main(["plan", "--input", inp, "--output", str(out), "--c1", "5.0"]) == 0
    doc = json.loads(out.read_text())
    assert doc["weights"]["c1"] == 5.0  # command line beats scenario
    assert doc["flags"]["relocation_rule"] is True
    assert main(["plan", "--input", inp, "--output", str(out), "--no-relocation-rule"]) == 0
    assert json.loads(out.read_text())["flags"]["relocation_rule"] is False
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
    # numbers past a float's range, or past the digit limit of int parsing,
    # are input errors, not tracebacks
    huge = scenario_file(tmp_path, {"cells": [[0, 0]], "weights": {"c1": 10**400}}, "huge.json")
    long = tmp_path / "long.json"
    long.write_text('{"cells": [[0, 0]], "params": {"gravity": ' + "9" * 5000 + "}}")
    # so is a file that is not UTF-8
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"cells": [[0, 0]], "name": "caf\u00e9"}'.encode("latin-1"))
    for path in (huge, str(long), str(latin1)):
        for command in (["cm"], ["plan", "--output", str(tmp_path / "o.json")]):
            assert main([*command, "--input", path]) == 1
            assert "input error" in capsys.readouterr().err


def test_cli_plan_far_from_the_origin_fails_as_at_it(tmp_path, capsys):
    # A row of three with a unit fault at its end has no donor for the
    # support the fault needs; the same row 10**30 cells away must read the
    # same margins and fail the same way, not hover on a rounded-off margin.
    # Each run starts from a cold cache, as `marsplan plan` does.
    for offset in (10**30, 0):
        clear_cm_cache()
        row = scenario_file(tmp_path, {"cells": [[offset + x, 0] for x in range(3)],
                                       "faults": [{"cell": [offset, 0], "kind": "unit"}]})
        out = tmp_path / "o.json"
        assert main(["plan", "--input", row, "--output", str(out)]) == 3
        assert "no-feasible-donor" in capsys.readouterr().err
        assert not out.exists()


def test_cli_usage_errors_exit_with_input_error_code(tmp_path, capsys):
    inp = scenario_file(tmp_path, RECT32)
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--input", inp, "--output", str(tmp_path / "o.json"), "--c1", "nan"])
    assert exc.value.code == 1
    assert "--c1" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
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
    reads = []
    base_params = cli._base_params
    monkeypatch.setattr(cli, "_base_params", lambda: reads.append(1) or base_params())
    assert main(["cm", "--input", inp]) == 0
    assert len(reads) == 1  # the params file is read once per command
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# params: file:{params_file}"
    assert lines[1] != default_out.splitlines()[1]  # lighter gravity, new margins
    bad_params = tmp_path / "bad_params.json"
    bad_params.write_text(json.dumps({"warp": 9}))
    monkeypatch.setenv("MARSPLAN_PARAMS", str(bad_params))
    assert main(["cm", "--input", inp]) == 1
    assert "warp" in capsys.readouterr().err
    bool_params = tmp_path / "bool_params.json"
    bool_params.write_text(json.dumps({"gravity": True}))
    monkeypatch.setenv("MARSPLAN_PARAMS", str(bool_params))
    assert main(["cm", "--input", inp]) == 1
    assert "gravity" in capsys.readouterr().err
    long_params = tmp_path / "long_params.json"
    long_params.write_text('{"gravity": ' + "9" * 5000 + "}")
    monkeypatch.setenv("MARSPLAN_PARAMS", str(long_params))
    assert main(["cm", "--input", inp]) == 1
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"{not json", '{"name": "caf\u00e9"}'.encode("latin-1"),
                                     b'{"gravity": 5.0, "gravity": 5.0}'],
                         ids=["missing", "malformed", "not-utf-8", "repeated-key"])
def test_cli_names_a_json_file_it_cannot_read(tmp_path, capsys, monkeypatch, content):
    # scenario files and the MARSPLAN_PARAMS file are read by one reader
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    good = scenario_file(tmp_path, RECT32, "good.json")
    monkeypatch.delenv("MARSPLAN_PARAMS", raising=False)
    for command in (["cm"], ["plan", "--output", str(tmp_path / "o.json")]):
        assert main([*command, "--input", str(bad)]) == 1
        assert f"input error: cannot read scenario file {bad}: " in capsys.readouterr().err
        monkeypatch.setenv("MARSPLAN_PARAMS", str(bad))
        assert main([*command, "--input", good]) == 1
        assert f"input error: cannot read MARSPLAN_PARAMS file {bad}: " in capsys.readouterr().err
        monkeypatch.delenv("MARSPLAN_PARAMS")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("option", ["--output", "--cm-trace", "--svg-dir"])
def test_cli_reports_an_output_it_cannot_write(tmp_path, capsys, option):
    # a file where a directory must be, and a directory that does not exist
    # (the SVG directory is made with its parents)
    inp = scenario_file(tmp_path, RECT32)
    (tmp_path / "file").write_text("")
    outputs = {"--output": str(tmp_path / "p.json")}
    if option == "--output":
        # every output is checked before any is written
        outputs.update({"--cm-trace": str(tmp_path / "t.csv"), "--svg-dir": str(tmp_path / "svg")})
    bads = [tmp_path / "file" / "out"] + [tmp_path / "missing" / "out"] * (option != "--svg-dir")
    for bad in bads:
        outputs[option] = str(bad)
        args = ["plan", "--input", inp] + [word for pair in outputs.items() for word in pair]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("marsplan: cannot write output: ") and err.count("\n") == 1
        assert not (tmp_path / "p.json").exists()
        assert not (tmp_path / "t.csv").exists()
        assert not list((tmp_path / "svg").glob("*.svg"))


def test_cli_keeps_the_outputs_that_existed_when_one_cannot_be_written(tmp_path, capsys):
    inp = scenario_file(tmp_path, RECT32)
    kept = {tmp_path / "p.json": "old plan", tmp_path / "t.csv": "old trace"}
    for path, text in kept.items():
        path.write_text(text)
    assert main(["plan", "--input", inp, "--output", str(tmp_path / "p.json"), "--cm-trace",
                 str(tmp_path / "t.csv"), "--svg-dir", str(tmp_path / "p.json" / "svg")]) == 1
    assert capsys.readouterr().err.startswith("marsplan: cannot write output: ")
    assert {path: path.read_text() for path in kept} == kept


def test_cli_params_label_notes_scenario_overrides(tmp_path, capsys):
    data = dict(RECT32)
    data["params"] = {"gravity": 3.7}
    inp = scenario_file(tmp_path, data)
    assert main(["cm", "--input", inp]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# params: default+scenario-overrides"


# -- documentation and interface drift ---------------------------------------------------


def test_documented_interface_exists():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S)
    assert block is not None
    parse_scenario(json.loads(block.group(1)))
    for name in marsplan.__all__:
        assert hasattr(marsplan, name), name
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"marsplan.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_readme_cli_examples_print_what_the_cli_prints(tmp_path, capsys, monkeypatch):
    # The README shows each command's output as `# ` lines under it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    monkeypatch.delenv("MARSPLAN_PARAMS", raising=False)
    scenario = str(SCENARIOS / "rect3x2_fault3.json")
    for command, argv in (
        ("cm", ["cm", "--input", scenario]),
        ("plan", ["plan", "--input", scenario, "--output", str(tmp_path / "plan.json"),
                  "--cm-trace", str(tmp_path / "trace.csv"), "--svg-dir", str(tmp_path / "frames")]),
    ):
        block = re.search(rf"```sh\nmarsplan {command} --input scenarios/rect3x2_fault3.json"
                          rf"(.*?)```", readme, re.S)
        assert block is not None, command
        shown = [line[2:] for line in block.group(1).splitlines() if line.startswith("# ")]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == shown
