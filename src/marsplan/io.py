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

Every JSON input goes through shared readers: `load_json` reads a file and
rejects a key repeated in one object, `_object` rejects unknown and missing
keys by name at every level, `_optional` reads an optional string or boolean,
`parse_params` a params object (the CLI's params file too), and `_header` the
`name`, `params`, `weights` and `flags` a scenario shares with a plan document.
Plan files serialize every controllability margin with six decimal digits and
carry each step's full post-move configuration so a plan can be re-simulated
and checked bit-exactly; replay certifies every step with the planner's gate,
under the file's params and floor, and checks the file's summary.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii     # json.dumps's writer of a str
from pathlib import Path
from typing import Any, Collection

from .controllability import DEFAULT_PARAMS, PhysicalParams, system_cm
from .errors import PlanningError, ScenarioError
from .model import Cell, Configuration, FaultKind, FaultState, require_number
from .paths import GridPath
from .planner import DEFAULT_EPSILON, Phase, Plan, PlanStep, StepKind, validate_plan
from .vmcs import TargetConfiguration

_SCENARIO_KEYS = {"name", "notes", "cells", "faults", "params", "weights", "flags"}
_FAULT_KEYS = {"cell", "kind", "rotor_index"}
_WEIGHT_KEYS = {"c1", "c2", "epsilon"}
_FLAG_KEYS = {"relocation_rule"}
_PARAM_KEYS = {f.name for f in dataclasses.fields(PhysicalParams)}
# in name order, so a step that lacks several keys is told of the first
_STEP_KEYS = ("index", "kind", "moved_cells", "path", "phase", "post_cm", "post_config")
_PLAN_KEYS = {"format", "name", "params", "weights", "flags", "start_config", "steps", "summary"}
_PLAN_FORMAT = "marsplan-plan-v1"
_KIND_NAMES = {str: "a string", bool: "a boolean"}


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


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key raises."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioError(f"repeated key {key!r}")
        data[key] = value
    return data


def load_json(path: str | Path, what: str) -> Any:
    """The JSON value in the UTF-8 file at `path`; a file that cannot be read
    or parsed, or that repeats a key in one object, raises ScenarioError
    naming `what` and the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:     # decode errors and ScenarioError are ValueErrors
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from None


def _object(raw: Any, allowed: Collection[str], where: str,
            required: tuple[str, ...] = ()) -> dict:
    """`raw` as a JSON object of `allowed` keys that has every `required` key."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object")
    for key in raw:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in raw:
            raise ScenarioError(f"missing key {key!r} in {where}")
    return raw


def _optional(data: dict, key: str, kind: type, where: str) -> Any:
    """`data[key]`, which must be a `kind` (str or bool), or None if it is unset."""
    value = data.get(key)
    if value is not None and not isinstance(value, kind):
        raise ScenarioError(f"{where} must be {_KIND_NAMES[kind]}")
    return value


def _list(raw: Any, where: str) -> list:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where} must be a list")
    return raw


def _number(raw: Any, where: str) -> float:
    """A JSON number as a float; what `require_number` rejects raises
    ScenarioError naming `where`."""
    try:
        require_number(raw, where)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from None
    return float(raw)


def _parse_cell(raw: Any, where: str) -> Cell:
    # exactly a list or tuple: a Cell is the tuple (y, x) and would read swapped
    if (type(raw) not in (list, tuple) or len(raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw)):
        raise ScenarioError(f"{where} must be a two-integer [x, y] pair, got {raw!r}")
    return Cell(int(raw[0]), int(raw[1]))


def _parse_fault(raw: Any, where: str) -> tuple[Cell, FaultState]:
    """A fault entry's cell and state; `FaultState` checks `rotor_index`."""
    raw = _object(raw, _FAULT_KEYS, where, ("cell",))
    cell = _parse_cell(raw["cell"], f"{where}.cell")
    kind = raw.get("kind")
    if kind not in ("unit", "rotor"):
        raise ScenarioError(f"{where}.kind must be 'unit' or 'rotor', got {kind!r}")
    try:
        return cell, FaultState(FaultKind(kind), raw.get("rotor_index"))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


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


def parse_params(raw: Any, base: PhysicalParams = DEFAULT_PARAMS) -> PhysicalParams:
    """`base` with the physical-parameter overrides of the params object `raw`;
    an unknown key or a value PhysicalParams refuses raises ScenarioError."""
    raw = _object(raw, _PARAM_KEYS, "'params'")
    try:
        return dataclasses.replace(base, **raw)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid params: {exc}") from None


def _header(data: dict, base: PhysicalParams) -> tuple[str | None, PhysicalParams, dict[str, Any]]:
    """The `name`, `params` (over `base`), `weights` and `flags` that a scenario
    and a plan document share; the last two as the keywords of `plan()` they set."""
    name = _optional(data, "name", str, "'name'")
    params = parse_params(data["params"], base) if "params" in data else base
    weights = _object(data.get("weights", {}), _WEIGHT_KEYS, "'weights'")
    settings = {key: _number(value, f"weights.{key}") for key, value in weights.items()}
    flags = _object(data.get("flags", {}), _FLAG_KEYS, "'flags'")
    rule = _optional(flags, "relocation_rule", bool, "flags.relocation_rule")
    if rule is not None:
        settings["relocation_rule"] = rule
    return name, params, settings


def parse_scenario(data: Any, base_params: PhysicalParams = DEFAULT_PARAMS) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _object(data, _SCENARIO_KEYS, "scenario")
    config = _parse_config(data, "")
    _optional(data, "notes", str, "'notes'")
    name, params, settings = _header(data, base_params)
    return Scenario(config=config, params=params, name=name, **settings)


def load_scenario(path: str | Path,
                  base_params: PhysicalParams = DEFAULT_PARAMS) -> Scenario:
    return parse_scenario(load_json(path, "scenario file"), base_params)


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
    return _parse_config(_object(data, ("cells", "faults"), where), f"{where}.")


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
    """Canonical JSON document for a plan (stable key order, 6-decimal CMs).
    A `name` other than None or a string raises TypeError."""
    if name is not None and not isinstance(name, str):
        raise TypeError(f"a plan document's name must be a string, got {name!r}")
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


def document_to_bytes(doc: dict) -> bytes:
    """The bytes `marsplan plan` writes: json.dumps(doc, indent=2) with every
    [x, y] pair on one line, plus a final newline, written in one pass.

    A non-empty dict or list puts each entry on its own line, two spaces
    deeper than its own; `,` follows every entry but the last and `: ` each
    key. Empty ones are `{}` and `[]`. A list or tuple of exactly two ints,
    not bools, is the one-line `[x, y]`. Keys must be strings. Strings go
    through json's own ASCII escaper; a pair's ints, exact ints, finite
    exact floats and None print as int and float repr and `null`, the bytes
    json.dumps gives them; every other scalar goes through json.dumps, so
    escaping, float repr and NaN/Infinity are json's.
    """
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out).encode()


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append `value` to `out`; `newline` is a newline plus its line's indent."""
    # exact types first; list, tuple and dict subclasses go the isinstance way, and
    # other scalars (bools, non-finite floats, str, int and float subclasses) to json.dumps
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is list or kind is tuple or isinstance(value, (list, tuple)):
        if len(value) == 2:
            x, y = value
            if (type(x) is int and type(y) is int or isinstance(x, int) and isinstance(y, int)
                    and type(x) is not bool and type(y) is not bool):
                out.append("[%d, %d]" % (x, y))
                return
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value))


def save_plan(plan: Plan, start: Configuration, path: str | Path,
              name: str | None = None) -> dict:
    doc = plan_to_document(plan, start, name)
    Path(path).write_bytes(document_to_bytes(doc))
    return doc


def _step_from_json(raw: Any, index: int) -> PlanStep:
    """Inverse of step_to_json; structural faults raise ScenarioError."""
    where = f"steps[{index}]"
    raw = _object(raw, (*_STEP_KEYS, "note"), where, _STEP_KEYS)
    if type(raw["index"]) is not int or raw["index"] != index:
        raise ScenarioError(f"{where}.index must be {index}, got {raw['index']!r}")
    try:
        kind, phase = StepKind(raw["kind"]), Phase(raw["phase"])
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    cells = [_parse_cell(c, f"{where}.moved_cells")
             for c in _list(raw["moved_cells"], f"{where}.moved_cells")]
    if not cells or len(set(cells)) < len(cells):
        raise ScenarioError(f"{where}.moved_cells must be one or more distinct cells")
    if (kind is StepKind.MOVE_UNIT) != (len(cells) == 1):
        raise ScenarioError(f"{where}.kind {kind.value!r} does not fit {len(cells)} moved cells")
    note = _optional(raw, "note", str, f"{where}.note")
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
    _object(doc, _PLAN_KEYS, "plan document", ("start_config", "steps"))
    if doc.get("format", _PLAN_FORMAT) != _PLAN_FORMAT:
        raise ScenarioError(f"plan document format must be {_PLAN_FORMAT!r}")
    _, params, settings = _header(doc, DEFAULT_PARAMS)
    start = config_from_json(doc["start_config"], "start_config")
    steps = [_step_from_json(raw, i) for i, raw in enumerate(_list(doc["steps"], "steps"))]
    final = steps[-1].post_config if steps else start
    # c1, c2 and the rule do not enter the check; they stay None when unset
    settings = {"c1": None, "c2": None, "epsilon": DEFAULT_EPSILON, "relocation_rule": None,
                **settings}
    replayed = Plan(steps=steps, target=TargetConfiguration(final, system_cm(final, params)),
                    params=params, **settings)
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
