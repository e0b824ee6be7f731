"""Search for minimum controllable supports and optimal fault placements.

A faulty unit cannot fly alone, so it travels inside a VMCS: the smallest
rigidly connected group of normal units around the faulty one(s) whose wrench
set still covers hover. Identification grows k (the number of normal units),
keeps the best-margin shape at each size, and stops at the first k whose best
shape clears the safety floor.

The companion search picks where the faulty units should end up: among all
placements of the fault multiset on the fixed footprint, the one maximizing
the system margin (ties broken toward the lexicographically smallest faulty
cell set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping

from .controllability import (
    DEFAULT_PARAMS,
    PhysicalParams,
    cached_subassembly_cm,
    faulty_cm,
    system_cm,
)
from .errors import NoPathError, VmcsSearchError
from .model import (
    HEALTHY,
    Cell,
    Configuration,
    FaultState,
    Subassembly,
    connected_components,
    is_connected,
)
from .paths import Arena, GridPath, astar_unit

_TIE_DECIMALS = 9


def enumerate_connected_shapes(anchor: Iterable[Cell], k: int) -> list[frozenset[Cell]]:
    """All 4-connected cell sets of size |anchor| + k containing the anchor cells.

    Anchor cells keep their given coordinates (no translation quotient), so
    with a single anchor and k = 1 this yields the four dominoes through that
    cell. Growth allows transiently disconnected partial sets, which is what
    makes disconnected anchors (that the added cells must bridge) reachable;
    the final connectivity filter keeps only true subassembly shapes.
    """
    anchor = frozenset(anchor)
    if not anchor:
        raise ValueError("anchor must contain at least one cell")
    if k < 0:
        raise ValueError("k must be non-negative")
    shapes: set[frozenset[Cell]] = {anchor}
    for _ in range(k):
        grown: set[frozenset[Cell]] = set()
        for shape in shapes:
            for cell in shape:
                for nb in cell.neighbors4():
                    if nb not in shape:
                        grown.add(shape | {nb})
        shapes = grown
    result = [s for s in shapes if is_connected(s)]
    result.sort(key=sorted)
    return result


@dataclass(frozen=True)
class VmcsSpec:
    """A controllable support shape in canonical local coordinates.

    footprint: all member cells, translated so the bounding-box corner sits at
    the origin; faulty lists the impaired cells (same coordinates) with their
    states; k counts the normal units; cm is the shape's margin.
    """

    footprint: tuple[Cell, ...]
    faulty: tuple[tuple[Cell, FaultState], ...]
    k: int
    cm: float


def _support(shape: frozenset[Cell], faults: Mapping[Cell, FaultState]) -> Subassembly:
    """The shape as a subassembly: the given faults, healthy units elsewhere."""
    return Subassembly(tuple((c, faults.get(c, HEALTHY)) for c in sorted(shape)))


def ranked_support_shapes(faults: Mapping[Cell, FaultState], k: int,
                          params: PhysicalParams = DEFAULT_PARAMS,
                          floor: float = -math.inf,
                          ) -> list[tuple[frozenset[Cell], float]]:
    """Shapes with k normal units around the given faults, best margin first.

    Anchored at the fault cells' own coordinates. Ties on margin fall back to
    the canonical cell order, so the ranking is deterministic. Margins below
    `floor` may be upper bounds (see cm_signed_distance); they still sort
    after every margin at or above it, whose order is unchanged.
    """
    ranked = []
    for shape in enumerate_connected_shapes(faults.keys(), k):
        ranked.append((shape, cached_subassembly_cm(_support(shape, faults), params, floor)))
    ranked.sort(key=lambda it: (-round(it[1], _TIE_DECIMALS), sorted(it[0])))
    return ranked


def _smallest_supports(faults: Mapping[Cell, FaultState], params: PhysicalParams,
                       max_normal_units: int, epsilon: float,
                       ) -> tuple[int, list[tuple[frozenset[Cell], float]]]:
    """The smallest k whose best shape reaches epsilon, and its ranked shapes.

    Margins are asked with floor epsilon, so shapes below it may carry upper
    bounds; the shapes at or above epsilon lead the list with exact margins.
    """
    for cell, state in faults.items():
        if not state.is_faulty:
            raise ValueError(f"{cell} is not faulty")
    k = 0
    while True:
        if k > max_normal_units:
            raise VmcsSearchError(
                f"no controllable support with up to {max_normal_units} normal units",
                faults=tuple(sorted(faults)),
            )
        ranked = ranked_support_shapes(faults, k, params, epsilon)
        if ranked and ranked[0][1] >= epsilon:
            return k, ranked
        k += 1


def identify_vmcs(faults: Mapping[Cell, FaultState], params: PhysicalParams = DEFAULT_PARAMS,
                  max_normal_units: int = 16, epsilon: float = 0.0) -> VmcsSpec:
    """Smallest controllable support around a group of faulty units.

    Starting from k = 0, evaluates every connected shape with k normal units
    plus the faults, and accepts the first k whose best shape has margin at
    least epsilon. Raises when k would exceed the normal units available.
    """
    k, ranked = _smallest_supports(faults, params, max_normal_units, epsilon)
    shape, cm = ranked[0]
    units = _support(shape, faults).canonical()
    return VmcsSpec(footprint=tuple(Cell(x, y) for x, y, _ in units),
                    faulty=tuple((Cell(x, y), s) for x, y, s in units if s.is_faulty),
                    k=k, cm=cm)


@dataclass(frozen=True)
class TargetConfiguration:
    """Optimal fault placement on the fixed footprint and its margin."""

    config: Configuration
    cm: float


def optimal_configuration(config: Configuration, params: PhysicalParams = DEFAULT_PARAMS,
                          ) -> TargetConfiguration:
    """Best relocation of the existing faults over the existing footprint.

    Enumerates every distinct assignment of the fault-state multiset to
    footprint cells and maximizes the system margin. Ties prefer the
    lexicographically smallest faulty cell set (then the smallest
    cell/state pairing), evaluated in enumeration order so the first best
    candidate wins. The footprint never changes, so it is split into
    components once; a candidate builds only their subassemblies, and only
    the winner a Configuration. Each candidate's margin is asked with the
    best rounded margin so far as its floor, so a candidate that cannot beat
    it may stop at a bound below it; the winner beat its floor, so the
    margin returned with it is exact.
    """
    fault_states = sorted(s for _, s in config.items() if s.is_faulty)
    if not fault_states:
        return TargetConfiguration(config, float("inf"))
    cells = config.cells
    components = connected_components(cells)
    distinct_orders = sorted(set(permutations(fault_states)))
    best: tuple[float, float, dict[Cell, FaultState]] | None = None  # (rounded cm, cm, placement)
    for combo in combinations(cells, len(fault_states)):
        for order in distinct_orders:
            placement = dict(zip(combo, order))
            subs = (Subassembly(tuple((c, placement.get(c, HEALTHY)) for c in comp))
                    for comp in components)
            floor = -math.inf if best is None else best[0]
            cm = faulty_cm(subs, params, floor)
            if best is None or round(cm, _TIE_DECIMALS) > best[0]:
                best = (round(cm, _TIE_DECIMALS), cm, placement)
    assert best is not None
    return TargetConfiguration(Configuration.from_cells(cells, best[2]), best[1])


def plan_vmcs_completion(config: Configuration, target_cm: float, vacancy: Cell,
                         params: PhysicalParams, c1: float, c2: float, *,
                         reserved: frozenset[Cell] = frozenset(),
                         arena: Arena, epsilon: float,
                         ) -> list[GridPath]:
    """Flights of donor units into `vacancy`, best donor first.

    A donor is a healthy unit off `reserved` whose removal keeps every faulty
    subassembly at or above the floor and that has a flight path to the
    vacancy. Donors rank by c1 * (cm_after_detach - target_cm)^2 -
    c2 * path_length, then by (y, x). The landing is not gated here: the
    caller gates each flight as a step and commits the first that passes.
    """
    ranked: list[tuple[tuple[float, Cell], GridPath]] = []
    for donor in config.cells:
        if config.state(donor).is_faulty or donor in reserved:
            continue
        after = config.detach(donor)
        # exact whenever it clears the floor, so it also scores the donor
        after_cm = system_cm(after, params, epsilon)
        if after_cm < epsilon:
            continue
        try:
            path = astar_unit(donor, vacancy, frozenset(after.cells), arena)
        except NoPathError:
            continue
        delta = after_cm - target_cm
        ranked.append(((round(c1 * delta * delta - c2 * path.length, _TIE_DECIMALS), donor), path))
    ranked.sort(key=lambda entry: entry[0])
    return [path for _, path in ranked]
