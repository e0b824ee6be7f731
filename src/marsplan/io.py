"""Scenario and plan files (JSON), plus the CSV step trace.

Scenario schema::

    {
      "name":  optional string (informational),
      "notes": optional string (informational),
      "cells": [[x, y], ...],                     # required, non-empty
      "faults": [{"cell": [x, y], "kind": "unit"},
                 {"cell": [x, y], "kind": "rotor", "rotor_index": 0..3}],
      "params":  {optional physical-parameter overrides},
      "weights": {"c1": f, "c2": f, "epsilon": f},   # any subset
      "flags":   {"relocation_rule": bool}
    }

Unknown keys are rejected by name at every level. Plan files serialize every
controllability margin with six decimal digits and carry each step's full
post-move configuration so a plan can be re-simulated and checked bit-exactly;
replay certifies every step with the planner's gate, under the file's params
and floor, and checks the file's summary.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .controllability import DEFAULT_PARAMS, PhysicalParams, system_cm
from .errors import PlanningError, ScenarioError
from .model import (
    UNIT_FAULT,
    Cell,
    Configuration,
    FaultKind,
    FaultState,
    rotor_fault,
)
from .paths import GridPath
from .planner import DEFAULT_EPSILON, Phase, Plan, PlanStep, StepKind, validate_plan
from .vmcs import TargetConfiguration

_SCENARIO_KEYS = {"name", "notes", "cells", "faults", "params", "weights", "flags"}
_FAULT_KEYS = {"cell", "kind", "rotor_index"}
_WEIGHT_KEYS = {"c1", "c2", "epsilon"}
_FLAG_KEYS = {"relocation_rule"}
_PARAM_KEYS = {f.name for f in dataclasses.fields(PhysicalParams)}
_STEP_KEYS = {"index", "kind", "phase", "moved_cells", "path", "post_cm", "post_config"}
_PLAN_KEYS = {"format", "name", "params", "weights", "flags", "start_config", "steps", "summary"}
_PLAN_FORMAT = "marsplan-plan-v1"


@dataclass
class Scenario:
    """Parsed scenario: configuration plus optional planner settings."""

    config: Configuration
    params: PhysicalParams
    name: str | None = None
    c1: float | None = None
    c2: float | None = None
    epsilon: float | None = None
    relocation_rule: bool | None = None

    def settings(self) -> dict[str, Any]:
        """The planner settings the scenario sets, as keywords of `plan()`."""
        return {key: value for key in ("c1", "c2", "epsilon", "relocation_rule")
                if (value := getattr(self, key)) is not None}


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    for key in data:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in {where}")


def _list(raw: Any, where: str) -> list:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where} must be a list")
    return raw


def _number(raw: Any, where: str) -> float:
    """A JSON number as a float; a non-number, a bool, a non-finite value or
    an int too large for a float raises ScenarioError naming `where`."""
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ScenarioError(f"{where} must be a number")
    if not abs(raw) <= sys.float_info.max:     # compares an int exactly, fails NaN
        raise ScenarioError(f"{where} must be a finite number")
    return float(raw)


def _parse_cell(raw: Any, where: str) -> Cell:
    # exactly a list or tuple: a Cell is the tuple (y, x) and would read swapped
    if (type(raw) not in (list, tuple) or len(raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)):
        raise ScenarioError(f"{where} must be a two-integer [x, y] pair, got {raw!r}")
    return Cell(int(raw[0]), int(raw[1]))


def _parse_fault(raw: Any, where: str) -> tuple[Cell, FaultState]:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object")
    _reject_unknown(raw, _FAULT_KEYS, where)
    if "cell" not in raw:
        raise ScenarioError(f"missing key 'cell' in {where}")
    cell = _parse_cell(raw["cell"], f"{where}.cell")
    kind = raw.get("kind")
    if kind == "unit":
        if "rotor_index" in raw:
            raise ScenarioError(f"key 'rotor_index' is not valid for a unit fault in {where}")
        return cell, UNIT_FAULT
    if kind == "rotor":
        idx = raw.get("rotor_index")
        if not isinstance(idx, int) or isinstance(idx, bool) or idx not in (0, 1, 2, 3):
            raise ScenarioError(f"{where}.rotor_index must be an integer in 0..3")
        return cell, rotor_fault(idx)
    raise ScenarioError(f"{where}.kind must be 'unit' or 'rotor', got {kind!r}")


def _parse_config(data: dict, prefix: str) -> Configuration:
    """The `cells` and `faults` of `data`: `cells` must be a non-empty list, and
    repeated or stray cells are rejected.

    `prefix` locates the two keys in messages.
    """
    raw_cells = data.get("cells")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise ScenarioError(f"'{prefix}cells' must be a non-empty list of [x, y] pairs")
    cells: dict[Cell, None] = {}
    for i, rc in enumerate(raw_cells):
        cell = _parse_cell(rc, f"{prefix}cells[{i}]")
        if cell in cells:
            raise ScenarioError(f"duplicate cell [{cell.x}, {cell.y}] in '{prefix}cells'")
        cells[cell] = None
    faults: dict[Cell, FaultState] = {}
    for i, rf in enumerate(_list(data.get("faults", []), f"{prefix}faults")):
        cell, state = _parse_fault(rf, f"{prefix}faults[{i}]")
        if cell in faults:
            raise ScenarioError(f"duplicate fault cell [{cell.x}, {cell.y}] in '{prefix}faults'")
        if cell not in cells:
            raise ScenarioError(f"fault cell [{cell.x}, {cell.y}] is not in '{prefix}cells'")
        faults[cell] = state
    return Configuration.from_cells(cells, faults)


def _parse_params(raw: Any, base: PhysicalParams) -> PhysicalParams:
    if not isinstance(raw, dict):
        raise ScenarioError("'params' must be an object")
    _reject_unknown(raw, _PARAM_KEYS, "params")
    overrides: dict[str, Any] = {}
    try:
        for key, value in raw.items():
            if key == "spin":
                if (not isinstance(value, (list, tuple)) or len(value) != 4
                        or not all(type(v) is int and v in (1, -1) for v in value)):
                    raise ScenarioError("params.spin must be four entries of +1/-1")
                overrides[key] = tuple(value)
            else:
                overrides[key] = _number(value, f"params.{key}")
        return dataclasses.replace(base, **overrides)
    except ValueError as exc:     # a ScenarioError is a ValueError
        raise ScenarioError(f"invalid params: {exc}") from None


def _parse_weights(data: dict) -> dict[str, float]:
    """The `weights` of a scenario or plan document: any subset of c1, c2, epsilon."""
    weights = data.get("weights", {})
    if not isinstance(weights, dict):
        raise ScenarioError("'weights' must be an object")
    _reject_unknown(weights, _WEIGHT_KEYS, "weights")
    return {key: _number(value, f"weights.{key}") for key, value in weights.items()}


def _parse_name(data: dict) -> str | None:
    """The optional `name` of a scenario or plan document."""
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ScenarioError("'name' must be a string")
    return name


def _parse_relocation_rule(data: dict) -> bool | None:
    flags = data.get("flags", {})
    if not isinstance(flags, dict):
        raise ScenarioError("'flags' must be an object")
    _reject_unknown(flags, _FLAG_KEYS, "flags")
    rule = flags.get("relocation_rule")
    if rule is not None and not isinstance(rule, bool):
        raise ScenarioError("flags.relocation_rule must be a boolean")
    return rule


def parse_scenario(data: Any, base_params: PhysicalParams = DEFAULT_PARAMS) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _reject_unknown(data, _SCENARIO_KEYS, "scenario")
    config = _parse_config(data, "")
    params = _parse_params(data["params"], base_params) if "params" in data else base_params
    weights = _parse_weights(data)
    notes = data.get("notes")
    if notes is not None and not isinstance(notes, str):
        raise ScenarioError("'notes' must be a string")

    return Scenario(config=config, params=params, name=_parse_name(data), c1=weights.get("c1"),
                    c2=weights.get("c2"), epsilon=weights.get("epsilon"),
                    relocation_rule=_parse_relocation_rule(data))


def load_scenario(path: str | Path,
                  base_params: PhysicalParams = DEFAULT_PARAMS) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:     # JSONDecodeError, or an int over the digit limit
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from None
    return parse_scenario(data, base_params)


# -- serialization --------------------------------------------------------


def _cm_value(x: float) -> float | None:
    """Margins go to JSON with six decimals; +inf (fault-free) becomes null."""
    if math.isinf(x):
        return None
    return round(float(x), 6)


def config_to_json(config: Configuration) -> dict:
    faults = []
    for cell, state in config.items():
        if not state.is_faulty:
            continue
        entry: dict[str, Any] = {"cell": [cell.x, cell.y]}
        if state.kind is FaultKind.UNIT:
            entry["kind"] = "unit"
        else:
            entry["kind"] = "rotor"
            entry["rotor_index"] = state.rotor_index
        faults.append(entry)
    return {"cells": [[c.x, c.y] for c in config.cells], "faults": faults}


def config_from_json(data: Any, where: str = "config") -> Configuration:
    if not isinstance(data, dict):
        raise ScenarioError(f"{where} must be an object")
    _reject_unknown(data, {"cells", "faults"}, where)
    return _parse_config(data, f"{where}.")


def params_to_json(params: PhysicalParams) -> dict:
    out: dict[str, Any] = {}
    for f in dataclasses.fields(PhysicalParams):
        value = getattr(params, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def step_to_json(index: int, step: PlanStep) -> dict:
    out: dict[str, Any] = {
        "index": index,
        "kind": step.kind.value,
        "phase": step.phase.value,
        "moved_cells": [[c.x, c.y] for c in step.moved_cells],
        "path": [[c.x, c.y] for c in step.path.waypoints],
        "post_cm": _cm_value(step.post_cm),
        "post_config": config_to_json(step.post_config),
    }
    if step.note is not None:
        out["note"] = step.note
    return out


def plan_to_document(plan: Plan, start: Configuration,
                     name: str | None = None) -> dict:
    """Canonical JSON document for a plan (stable key order, 6-decimal CMs)."""
    doc: dict[str, Any] = {"format": _PLAN_FORMAT}
    if name is not None:
        doc["name"] = name
    doc["params"] = params_to_json(plan.params)
    doc["weights"] = {"c1": plan.c1, "c2": plan.c2, "epsilon": plan.epsilon}
    doc["flags"] = {"relocation_rule": plan.relocation_rule}
    doc["start_config"] = config_to_json(start)
    doc["steps"] = [step_to_json(i, s) for i, s in enumerate(plan.steps)]
    doc["summary"] = _summary(plan)
    return doc


def _summary(plan: Plan) -> dict:
    return {
        "step_count": plan.step_count,
        "detach_attach_count": plan.detach_attach_count,
        "total_path_length": plan.total_path_length,
        "min_cm": _cm_value(plan.min_cm),
        "target_cm": _cm_value(plan.target.cm),
        "target_config": config_to_json(plan.target.config),
    }


_PAIR = re.compile(r"\[\s+(-?\d+),\s+(-?\d+)\s+\]")


def document_to_bytes(doc: dict) -> bytes:
    text = json.dumps(doc, indent=2)
    # keep [x, y] pairs on one line for diffability; purely cosmetic
    text = _PAIR.sub(r"[\1, \2]", text)
    return (text + "\n").encode()


def save_plan(plan: Plan, start: Configuration, path: str | Path,
              name: str | None = None) -> dict:
    doc = plan_to_document(plan, start, name)
    Path(path).write_bytes(document_to_bytes(doc))
    return doc


def _step_from_json(raw: Any, index: int) -> PlanStep:
    """Inverse of step_to_json; structural faults raise ScenarioError."""
    where = f"steps[{index}]"
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object")
    _reject_unknown(raw, _STEP_KEYS | {"note"}, where)
    missing = _STEP_KEYS - raw.keys()
    if missing:
        raise ScenarioError(f"missing key {min(missing)!r} in {where}")
    if type(raw["index"]) is not int or raw["index"] != index:
        raise ScenarioError(f"{where}.index must be {index}, got {raw['index']!r}")
    try:
        kind, phase = StepKind(raw["kind"]), Phase(raw["phase"])
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    cells = [_parse_cell(c, f"{where}.moved_cells")
             for c in _list(raw["moved_cells"], f"{where}.moved_cells")]
    if not cells:
        raise ScenarioError(f"{where}.moved_cells must not be empty")
    if (kind is StepKind.MOVE_UNIT) != (len(cells) == 1):
        raise ScenarioError(f"{where}.kind {kind.value!r} does not fit {len(cells)} moved cells")
    note = raw.get("note")
    if note is not None and not isinstance(note, str):
        raise ScenarioError(f"{where}.note must be a string")
    post_cm = math.inf if raw["post_cm"] is None else _number(raw["post_cm"], f"{where}.post_cm")
    waypoints = tuple(_parse_cell(c, f"{where}.path")
                      for c in _list(raw["path"], f"{where}.path"))
    try:
        path = GridPath(waypoints)
    except ValueError as exc:
        raise PlanningError(f"step {index} path: {exc}", step=index) from None
    return PlanStep(kind=kind, phase=phase,
                    moved_cells=tuple(sorted(cells)), path=path,
                    post_config=config_from_json(raw["post_config"], f"{where}.post_config"),
                    post_cm=post_cm,
                    note=note)


def replay_document(doc: dict) -> Configuration:
    """Re-simulate a plan document with validate_plan; returns the final state.

    The floor is `weights.epsilon`, else the one `plan()` defaults to. A
    malformed document raises ScenarioError; a step that fails validate_plan,
    or a `summary` other than the replayed plan's, raises PlanningError.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("plan document must be an object")
    _reject_unknown(doc, _PLAN_KEYS, "plan document")
    if doc.get("format", _PLAN_FORMAT) != _PLAN_FORMAT:
        raise ScenarioError(f"plan document format must be {_PLAN_FORMAT!r}")
    for key in ("start_config", "steps"):
        if key not in doc:
            raise ScenarioError(f"missing key {key!r} in plan document")
    _parse_name(doc)
    params = _parse_params(doc["params"], DEFAULT_PARAMS) if "params" in doc else DEFAULT_PARAMS
    weights = _parse_weights(doc)
    start = config_from_json(doc["start_config"], "start_config")
    steps = [_step_from_json(raw, i) for i, raw in enumerate(_list(doc["steps"], "steps"))]
    final = steps[-1].post_config if steps else start
    # c1, c2 and the rule do not enter the check; they stay None when unset
    replayed = Plan(steps=steps, target=TargetConfiguration(final, system_cm(final, params)),
                    relocation_rule=_parse_relocation_rule(doc), c1=weights.get("c1"),
                    c2=weights.get("c2"), epsilon=weights.get("epsilon", DEFAULT_EPSILON),
                    params=params)
    validate_plan(start, replayed)
    summary = _summary(replayed)
    if doc.get("summary", summary) != summary:
        raise PlanningError("summary does not match the replayed plan", summary=summary)
    return final


def write_cm_trace(plan: Plan, path: str | Path) -> None:
    lines = ["step_index,phase,moved_count,path_length,post_cm"]
    for i, step in enumerate(plan.steps):
        lines.append(
            f"{i},{step.phase.value},{len(step.moved_cells)},{step.path.length},{step.post_cm:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
