"""Spans around the public functions of each `marsplan` module.

The library has no tracing of its own, so the benchmark wraps functions from
outside. A `from .controllability import system_cm` copies the binding into
the importing module, so a wrapper replaces the original under every name in
every loaded `marsplan` module that holds it, not only in the defining one.

Spans are kept in memory as compact arrays (name, start, end, parent span,
case id, self time, note) and written out once the run ends. Self time is a
span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from math import comb
from time import perf_counter

import numpy as np

# layer (module) -> wrapped public functions
TRACED = {
    "controllability": ("build_zonotope", "cm_signed_distance", "facet_normal_candidates",
                        "subassembly_cm", "cached_subassembly_cm", "system_cm",
                        "quick_cm_upper"),
    "model": ("connected_components", "is_connected", "partition"),
    "paths": ("arena_around", "astar_unit", "astar_subassembly", "swept_cells"),
    "vmcs": ("enumerate_connected_shapes", "ranked_support_shapes", "identify_vmcs",
             "optimal_configuration", "plan_vmcs_completion"),
    "planner": ("lexicographic_min_assignment", "conflict_free_targets", "plan",
                "validate_plan"),
    "io": ("plan_to_document", "document_to_bytes", "replay_document"),
}
LAYERS = tuple(TRACED)

NO_PARENT = -1
NO_NOTE = -1.0

# parts of a run that spans are tagged with
PHASE_PASS = 0     # the timed planning pass
PHASE_CHECK = 1    # the checks after it


def _note_for(name: str):
    """Extract one number per call where a metric needs more than timing."""
    if name == "controllability.cm_signed_distance":
        # generator count m, stored as -(m + 1) when the margin is negative
        # (exterior), so that m = 0 keeps its sign
        return lambda args, result: -(args[0].m + 1) if result < 0 else args[0].m
    if name == "controllability.facet_normal_candidates":
        return lambda args, result: args[0].shape[0]
    if name == "vmcs.enumerate_connected_shapes":
        return lambda args, result: len(result)
    return None


class Tracer:
    """Records a span for every call to a wrapped function.

    A span's id is its row in the arrays; `phase` and `case` tag each span
    with the part of the run and the case being planned.
    """

    FIELDS = ("name_id", "start", "end", "parent", "case_id", "phase_id",
              "self_time", "note", "error")

    def __init__(self):
        self.names: list[str] = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self.phase = 0
        self.case = -1
        self._stack: list[list] = []   # [span id, time covered by children]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case_id = array("i")
        self.phase_id = array("i")
        self.self_time = array("d")
        self.note = array("d")
        self.error = array("i")        # 1 when the call raised

    def wrap(self, name: str, fn):
        tracer = self
        name_index = self.names.index(name)
        note_fn = _note_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name_index)
            frame = [span, 0.0]
            tracer._stack.append(frame)
            raised = 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                duration = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                note = NO_NOTE if raised or note_fn is None else float(note_fn(args, result))
                tracer._close(span, t0, t1, duration - frame[1], note, raised)

        return traced

    def _open(self, name_index: int) -> int:
        span = len(self.name_id)
        self.name_id.append(name_index)
        self.parent.append(self._stack[-1][0] if self._stack else NO_PARENT)
        self.case_id.append(self.case)
        self.phase_id.append(self.phase)
        for values in (self.start, self.end, self.self_time, self.note):
            values.append(0.0)
        self.error.append(0)
        return span

    def _close(self, span, t0, t1, self_time, note, raised) -> None:
        self.start[span] = t0
        self.end[span] = t1
        self.self_time[span] = self_time
        self.note[span] = note
        self.error[span] = raised

    def arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for key in self.FIELDS:
            values = getattr(self, key)
            dtype = np.float64 if values.typecode == "d" else np.int32
            out[key] = np.frombuffer(values, dtype=dtype).copy()
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function in every loaded marsplan module."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "marsplan" or name.startswith("marsplan.")]
    undo = []
    for layer, fns in TRACED.items():
        home = sys.modules[f"marsplan.{layer}"]
        for fn_name in fns:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, original))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


# -- per-layer metrics ----------------------------------------------------------

M_BUCKETS = (("m_le_16", 0, 16), ("m_17_32", 17, 32), ("m_33_64", 33, 64),
             ("m_gt_64", 65, 1 << 30))
TRIPLE_BYTES = 3 * 4 * 8   # three float64 generator rows of length 4 per triple


def layer_metrics(tracer: Tracer, passes: int, steps: int) -> dict[str, float]:
    """Per-pass means of the per-layer metrics over `passes` traced passes.

    Spans of the timed passes give every metric except `io.replay_s`, which
    comes from the checks. `steps` is the number of plan steps emitted in one
    pass.
    """
    a = tracer.arrays()
    names = tracer.names
    sel = a["phase_id"] == PHASE_PASS
    name_id = a["name_id"]
    duration = a["end"] - a["start"]
    self_time = a["self_time"]
    note = a["note"]
    error = a["error"]
    parent = a["parent"]
    parent_name = np.full(len(parent), -1, dtype=np.int32)
    has_parent = parent >= 0
    parent_name[has_parent] = name_id[parent[has_parent]]
    ids = {name: i for i, name in enumerate(names)}

    def mask(name, under=None, phase=sel):
        m = (name_id == ids[name]) & phase
        if under is not None:
            m &= parent_name == ids[under]
        return m

    def calls(name, under=None):
        return float(mask(name, under).sum()) / passes

    def seconds(name, exclude_under=None, phase=sel):
        m = mask(name, phase=phase)
        if exclude_under is not None:
            m &= parent_name != ids[exclude_under]
        return float(duration[m].sum()) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        in_layer = sel & np.isin(name_id, [ids[n] for n in names if n.startswith(layer + ".")])
        out[f"{layer}.layer_self_s"] = float(self_time[in_layer].sum()) / passes

    # controllability
    returned = mask("controllability.cm_signed_distance") & (error == 0)
    cm_notes = note[returned]
    cm_durations = duration[returned]
    exterior = cm_notes < 0
    m_abs = np.where(exterior, -cm_notes - 1, cm_notes)
    lookups = calls("controllability.cached_subassembly_cm")
    misses = calls("controllability.subassembly_cm")
    facet_m = note[mask("controllability.facet_normal_candidates")].astype(int)
    triples = [comb(int(m), 3) for m in facet_m]
    out.update({
        "controllability.cm_evals": misses,
        "controllability.cm_s": seconds("controllability.subassembly_cm"),
        "controllability.facet_s": seconds("controllability.facet_normal_candidates"),
        "controllability.cache_lookups": lookups,
        "controllability.cache_hit_ratio": ratio(lookups - misses, lookups),
        "controllability.exterior_evals": float(exterior.sum()) / passes,
        "controllability.exterior_s": float(cm_durations[exterior].sum()) / passes,
        "controllability.triples": float(sum(triples)) / passes,
        "controllability.triple_mb_max": max(triples, default=0) * TRIPLE_BYTES / 1e6,
        "controllability.system_cm_calls": calls("controllability.system_cm"),
        "controllability.system_cm_s": seconds("controllability.system_cm"),
    })
    for label, lo, hi in M_BUCKETS:
        in_bucket = (m_abs >= lo) & (m_abs <= hi)
        out[f"controllability.cm_s.{label}"] = float(cm_durations[in_bucket].sum()) / passes
        out[f"controllability.cm_calls.{label}"] = float(in_bucket.sum()) / passes

    # vmcs
    evals = calls("controllability.system_cm", under="vmcs.optimal_configuration")
    bounds = calls("controllability.quick_cm_upper", under="vmcs.optimal_configuration")
    completion = mask("vmcs.plan_vmcs_completion")
    out.update({
        "vmcs.placement_s": seconds("vmcs.optimal_configuration"),
        "vmcs.placement_evals": evals,
        "vmcs.placement_bound_calls": bounds,
        "vmcs.placement_prune_ratio": ratio(evals, bounds),
        "vmcs.support_s": seconds("vmcs.identify_vmcs")
        + seconds("vmcs.ranked_support_shapes", exclude_under="vmcs.identify_vmcs"),
        "vmcs.shapes": float(note[mask("vmcs.enumerate_connected_shapes") & (error == 0)].sum()) / passes,
        "vmcs.rank_calls": calls("vmcs.ranked_support_shapes"),
        "vmcs.identify_calls": calls("vmcs.identify_vmcs"),
        "vmcs.completion_s": seconds("vmcs.plan_vmcs_completion"),
        "vmcs.donor_exhausted": float(error[completion].sum()) / passes,
    })

    # paths
    for fn in ("astar_unit", "astar_subassembly"):
        m = mask(f"paths.{fn}")
        out[f"paths.{fn}_calls"] = float(m.sum()) / passes
        out[f"paths.{fn}_s"] = float(duration[m].sum()) / passes
        out[f"paths.{fn}_nopath"] = float(error[m].sum()) / passes

    # model
    out.update({
        "model.partition_calls": calls("model.partition"),
        "model.partition_s": seconds("model.partition"),
        "model.components_calls": calls("model.connected_components"),
        "model.components_s": seconds("model.connected_components"),
    })

    # planner
    gate_evals = calls("controllability.system_cm", under="planner.plan")
    out.update({
        "planner.self_s": float(self_time[mask("planner.plan")].sum()) / passes,
        "planner.assign_s": seconds("planner.lexicographic_min_assignment"),
        "planner.fill_targets_s": seconds("planner.conflict_free_targets"),
        "planner.gate_evals": gate_evals,
        "planner.gate_evals_per_step": ratio(gate_evals, steps),
        "planner.astar_per_step": ratio(calls("paths.astar_unit", under="planner.plan"), steps),
    })

    # io
    out["io.document_s"] = (seconds("io.plan_to_document") + seconds("io.document_to_bytes"))
    out["io.replay_s"] = seconds("io.replay_document", phase=a["phase_id"] == PHASE_CHECK)
    return out
