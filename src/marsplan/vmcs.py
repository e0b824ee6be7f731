"""Search for minimum controllable supports and optimal fault placements.

A faulty unit cannot fly alone, so it travels inside a VMCS: the smallest
rigidly connected group of normal units around the faulty one(s) whose wrench
set still covers hover. Identification grows k (the number of normal units),
keeps the best-margin shape at each size, and stops at the first k whose best
shape clears the safety floor.

The companion search picks where the faulty units should end up: among all
placements of the fault multiset on the fixed footprint, the one maximizing
the system margin (ties broken toward the lexicographically smallest faulty
cell set). Both searches skip by one rule, controllability.margin_ceiling:
a support size whose ceiling lies below the floor goes unranked, and a
placement whose ceiling cannot beat the best margin so far unbuilt.

Neither search reads the donor and path weights or the relocation rule, so
both answers are memoized under their exact arguments with the margin cache
(controllability.memoized): a warm replan of the same start reuses both,
and clear_cm_cache() makes the next plan search again.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Any, Callable, Iterable, Iterator, Mapping

from .controllability import (
    DEFAULT_PARAMS,
    PhysicalParams,
    cached_subassembly_cm,
    faulty_cm,
    margin_ceiling,
    memoized,
    system_cm,
)
from .errors import VmcsSearchError
from .model import (
    HEALTHY,
    Cell,
    Configuration,
    FaultState,
    Subassembly,
    connected_components,
    is_connected,
)
from .paths import Arena, GridPath, unit_flight

_TIE_DECIMALS = 9


def enumerate_connected_shapes(anchor: Iterable[Cell], k: int) -> list[frozenset[Cell]]:
    """All 4-connected cell sets of size |anchor| + k containing the anchor cells.

    Anchor cells keep their given coordinates (no translation quotient), so
    with a single anchor and k = 1 this yields the four dominoes through that
    cell. Each grown cell touches the set, so growth from a connected anchor
    stays connected. From a disconnected anchor, growth passes through
    disconnected partial sets to reach the shapes that bridge it, and only
    then are the shapes filtered by connectivity.
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
    result = list(shapes) if is_connected(anchor) else [s for s in shapes if is_connected(s)]
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
    """Shapes with k normal units around the given faults whose margin
    reaches `floor`, best margin first, each margin exact.

    Anchored at the fault cells' own coordinates; ties on margin keep the
    enumeration's cell order (the sort is stable).
    """
    ranked = [(shape, cm) for shape in enumerate_connected_shapes(faults.keys(), k)
              if (cm := cached_subassembly_cm(_support(shape, faults), params, floor)) >= floor]
    return sorted(ranked, key=lambda it: -round(it[1], _TIE_DECIMALS))


def smallest_supports(faults: Mapping[Cell, FaultState], params: PhysicalParams,
                      max_normal_units: int, epsilon: float,
                      ) -> tuple[int, list[tuple[frozenset[Cell], float]]]:
    """The smallest k with a shape that reaches epsilon, and its ranked shapes.

    A size is skipped, with no enumeration and no kernel call, when the
    margin_ceiling of its |faults| + k units lies below epsilon: no shape of
    that size could have reached it. The answer is memoized under the exact
    arguments until clear_cm_cache(); each call returns a list of its own.
    """
    k, ranked = memoized((params, frozenset(faults.items()), max_normal_units, epsilon),
                         lambda: _smallest_supports(faults, params, max_normal_units, epsilon))
    return k, list(ranked)


def _smallest_supports(faults: Mapping[Cell, FaultState], params: PhysicalParams,
                       max_normal_units: int, epsilon: float,
                       ) -> tuple[int, tuple[tuple[frozenset[Cell], float], ...]]:
    for cell, state in faults.items():
        if not state.is_faulty:
            raise ValueError(f"{cell} is not faulty")
    for k in range(max_normal_units + 1):
        if margin_ceiling(len(faults) + k, faults.values(), params) < epsilon:
            continue
        if ranked := ranked_support_shapes(faults, k, params, epsilon):
            return k, tuple(ranked)
    raise VmcsSearchError(
        f"no controllable support with up to {max_normal_units} normal units",
        faults=tuple(sorted(faults)),
    )


def identify_vmcs(faults: Mapping[Cell, FaultState], params: PhysicalParams = DEFAULT_PARAMS,
                  max_normal_units: int = 16, epsilon: float = 0.0) -> VmcsSpec:
    """Smallest controllable support around a group of faulty units.

    Starting from k = 0, evaluates every connected shape with k normal units
    plus the faults, and accepts the first k whose best shape has margin at
    least epsilon. Raises when k would exceed the normal units available.
    """
    k, ranked = smallest_supports(faults, params, max_normal_units, epsilon)
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

    A candidate is skipped, with no subassembly, cache lookup or kernel
    call, when the smallest margin_ceiling of the components holding its
    faults rounds to at most the best rounded margin: it could not have
    beaten the best, and every candidate that could is still evaluated with
    the same floor, so the winner and its margin are the same as without
    the skip. The loop ends once the best reaches the largest such ceiling
    over every spread of the faults across the components, since every
    later candidate would be skipped. The answer is memoized under the
    exact arguments until clear_cm_cache().
    """
    return memoized((params, config), lambda: _best_placement(config, params))


def _best_placement(config: Configuration, params: PhysicalParams) -> TargetConfiguration:
    fault_states = sorted(s for _, s in config.items() if s.is_faulty)
    if not fault_states:
        return TargetConfiguration(config, float("inf"))
    cells = config.cells
    components = connected_components(cells)     # of the configuration's own Cells
    component_of = {c: i for i, comp in enumerate(components) for c in comp}

    def ceiling(spread: Iterable[tuple[int, FaultState]]) -> float:
        # the rounded least margin_ceiling of the components holding these (component, state) pairs
        held: dict[int, list[FaultState]] = {}
        for i, state in spread:
            held.setdefault(i, []).append(state)
        return round(min(margin_ceiling(len(components[i]), states, params) for i, states in held.items()),
                     _TIE_DECIMALS)

    # a ceiling reads a component's size alone: spreads over the first few of each size reach all
    pool = [i for i, comp in enumerate(components)
            if sum(len(c) == len(comp) for c in components[:i]) < len(fault_states)]
    cap = max(ceiling(zip(spread, fault_states)) for spread in product(pool, repeat=len(fault_states)))
    distinct_orders = sorted(set(permutations(fault_states)))
    # (rounded cm, cm, placement); the first candidate beats the -inf start
    best: tuple[float, float, dict[Cell, FaultState]] = (-math.inf, -math.inf, {})
    for placement in (dict(zip(combo, order)) for combo in combinations(cells, len(fault_states))
                      for order in distinct_orders):
        if ceiling((component_of[c], s) for c, s in placement.items()) <= best[0]:
            continue
        subs = (Subassembly._of_cells(tuple((c, placement.get(c, HEALTHY)) for c in comp))
                for comp in components)
        cm = faulty_cm(subs, params, best[0])
        if round(cm, _TIE_DECIMALS) > best[0]:
            best = (round(cm, _TIE_DECIMALS), cm, placement)
            if best[0] >= cap:
                break
    return TargetConfiguration(Configuration.from_cells(cells, best[2]), best[1])


def best_first(entries: Iterable[tuple[Any, Any]], *stages: Callable[[Any, Any], tuple | None],
               ) -> Iterator[tuple[Any, Any]]:
    """Items in order of (final key, item), each staged only while it leads.

    `entries` are (key, item) pairs, one per item. Each item passes `stages`
    in order from the value None: a stage maps (item, value) to the item's
    next (key, value), or to None to drop it, and an item past its last
    stage is yielded as (item, value). Each key must bound the item's later
    keys from below. The item whose (key, item) leads the heap runs its next
    stage, so a caller that stops at the first yield never stages an item
    whose key exceeds the winner's final key (A*'s admissible-bound order).
    """
    # (key, item) is unique: an item has one entry at a time
    heap = [(key, item, 0, None) for key, item in entries]
    heapq.heapify(heap)
    while heap:
        _, item, done, value = heapq.heappop(heap)
        if done == len(stages):
            yield item, value
        elif (staged := stages[done](item, value)) is not None:
            heapq.heappush(heap, (staged[0], item, done + 1, staged[1]))


def plan_vmcs_completion(config: Configuration, target_cm: float, vacancy: Cell,
                         params: PhysicalParams, c1: float, c2: float, *,
                         reserved: frozenset[Cell] = frozenset(),
                         arena: Arena, epsilon: float,
                         ) -> Iterator[GridPath]:
    """Flights of donor units into `vacancy`, best donor first, one at a time.

    A donor is a healthy unit off `reserved` whose removal keeps every faulty
    subassembly at or above the floor and that has a flight to the vacancy by
    `paths.unit_flight`. Donors rank by c1 * (cm_after_detach - target_cm)^2 -
    c2 * path_length, then by (y, x). The landing is not gated here: the
    caller gates each flight as a step and commits the first that passes.

    best_first settles the ranks. A donor waits unrouted under round(-c2 *
    Manhattan distance) when c1 >= 0 and c2 <= 0, else -inf; routed, under
    round(-c2 * path_length), or -inf when c1 < 0; scored, under its rank.
    Each key bounds the next (A*'s length is at least the Manhattan distance,
    c1 * delta^2 >= 0 and rounding is monotone), so a caller that stops at
    the first gated flight scores no donor ranked below it, nor, under the
    distance bound, routes it.
    """
    occupied = config.cell_set

    def route(donor: Cell, _) -> tuple | None:
        if (path := unit_flight(donor, vacancy, occupied, arena)) is None:
            return None
        return (round(-c2 * path.length, _TIE_DECIMALS) if c1 >= 0 else -math.inf), path

    def score(donor: Cell, path: GridPath) -> tuple | None:
        # exact whenever it clears the floor, so it also scores the donor
        after_cm = system_cm(config.detach(donor), params, epsilon)
        if after_cm < epsilon:
            return None
        delta = after_cm - target_cm
        return round(c1 * delta * delta - c2 * path.length, _TIE_DECIMALS), path

    by_distance = c1 >= 0 and c2 <= 0
    donors = [(round(-c2 * d.manhattan(vacancy), _TIE_DECIMALS) if by_distance else -math.inf, d)
              for d, state in config.items() if not state.is_faulty and d not in reserved]
    for _, path in best_first(donors, route, score):
        yield path
