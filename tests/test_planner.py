"""Path planning, assignment, and the end-to-end reconfiguration planner."""

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from marsplan.controllability import DEFAULT_PARAMS, clear_cm_cache, subassembly_cm, system_cm
from marsplan.errors import (
    InfeasibleAssignmentError,
    InfeasibleTargetError,
    NoFeasibleDonorError,
    NoVmcsPlacementError,
    PlanningError,
    SafetyViolationError,
)
import marsplan.paths as paths
import marsplan.planner as planner
from marsplan.io import document_to_bytes, load_scenario, plan_to_document
from marsplan.model import UNIT_FAULT, Cell, Configuration, Subassembly, rotor_fault
from marsplan.paths import (
    Arena,
    GridPath,
    NoPathError,
    arena_around,
    astar_subassembly,
    astar_unit,
    swept_cells,
    unit_flight,
)
from marsplan.planner import (
    Phase,
    StepKind,
    _Group,
    _Pipeline,
    conflict_free_targets,
    lexicographic_min_assignment,
    plan,
    step_verdict,
    validate_plan,
)
from marsplan.vmcs import TargetConfiguration, optimal_configuration, plan_vmcs_completion

from helpers import (
    LIVE_DEAD_LIVE_CM,
    bfs_footprint_length,
    bfs_unit_length,
    brute_force_assignment,
    criterion8_configs,
    exhaustive_parking,
    footprint_fits,
    gated_fill_assignment,
    random_connected_cells,
    random_fault_states,
    reference_conflict_free_targets,
    reference_lexicographic_min_assignment,
    reference_rigid_search,
    row_scenario,
)

RECT32 = [Cell(x, y) for y in range(2) for x in range(3)]


# -- arena and paths -------------------------------------------------------------


def test_arena_membership_and_ring():
    ar = Arena(0, 0, 2, 2)
    assert Cell(0, 0) in ar and Cell(2, 2) in ar
    assert Cell(-1, 0) not in ar and Cell(0, 3) not in ar
    ring = ar.cells_on_ring()
    assert len(ring) == 8  # 3x3 box minus its center
    assert Cell(1, 1) not in ring
    assert list(ring) == sorted(ring)


def test_arena_around_inflates_bounds():
    ar = arena_around([Cell(0, 0), Cell(3, 1)])
    assert ar == Arena(-2, -2, 5, 3)
    with pytest.raises(ValueError):
        arena_around([])


def test_grid_path_validation_and_accessors():
    p = GridPath((Cell(0, 0), Cell(1, 0), Cell(1, 1)))
    assert p.length == 2 and p.start == Cell(0, 0) and p.goal == Cell(1, 1)
    with pytest.raises(ValueError):
        GridPath(())
    with pytest.raises(ValueError):
        GridPath((Cell(0, 0), Cell(2, 0)))  # not 4-adjacent


def test_astar_unit_finds_shortest_detour():
    ar = Arena(0, 0, 4, 4)
    wall = frozenset(Cell(2, y) for y in range(4))  # gap only at y = 4
    path = astar_unit(Cell(0, 0), Cell(4, 0), wall, ar)
    assert path.length == bfs_unit_length(Cell(0, 0), Cell(4, 0), wall, ar) == 12
    assert path.start == Cell(0, 0) and path.goal == Cell(4, 0)
    assert all(wp not in wall and wp in ar for wp in path.waypoints)


def test_astar_unit_trivial_and_error_cases():
    ar = Arena(0, 0, 4, 4)
    assert astar_unit(Cell(1, 1), Cell(1, 1), frozenset(), ar).waypoints == (Cell(1, 1),)
    with pytest.raises(NoPathError):
        astar_unit(Cell(0, 0), Cell(9, 9), frozenset(), ar)  # outside arena
    with pytest.raises(NoPathError):
        astar_unit(Cell(0, 0), Cell(1, 0), frozenset([Cell(1, 0)]), ar)  # occupied goal
    full_wall = frozenset(Cell(x, 2) for x in range(5))
    with pytest.raises(NoPathError) as exc:
        astar_unit(Cell(0, 0), Cell(4, 4), full_wall, ar)
    assert exc.value.reason == "no-path"


def test_astar_unit_tie_break_is_deterministic():
    # Many shortest paths exist; the (y, x) expansion order always returns
    # the one that exhausts the x leg at the lowest y first.
    path = astar_unit(Cell(0, 0), Cell(2, 2), frozenset(), Arena(0, 0, 4, 4))
    assert path.waypoints == (Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(2, 1), Cell(2, 2))


def test_astar_subassembly_matches_bfs_and_reports_ref_waypoints():
    ar = Arena(0, 0, 5, 5)
    foot = frozenset([Cell(0, 0), Cell(1, 0), Cell(1, 1)])
    obstacles = frozenset([Cell(3, 0), Cell(3, 1)])
    path = astar_subassembly(foot, Cell(0, 0), Cell(3, 3), obstacles, ar)
    oracle = bfs_footprint_length(foot, Cell(0, 0), Cell(3, 3), obstacles, ar)
    assert path.length == oracle
    assert path.start == Cell(0, 0) and path.goal == Cell(3, 3)
    for wp in path.waypoints:
        delta = (wp.x, wp.y)
        assert footprint_fits(foot, delta, obstacles, ar)


def test_astar_subassembly_error_cases():
    ar = Arena(0, 0, 4, 4)
    foot = frozenset([Cell(0, 0), Cell(1, 0)])
    with pytest.raises(ValueError):
        astar_subassembly(foot, Cell(3, 3), Cell(0, 1), frozenset(), ar)
    with pytest.raises(NoPathError):
        astar_subassembly(foot, Cell(0, 0), Cell(0, 1), frozenset([Cell(0, 0)]), ar)
    with pytest.raises(NoPathError):
        astar_subassembly(foot, Cell(0, 0), Cell(4, 0), frozenset(), ar)  # (5,0) outside
    with pytest.raises(NoPathError):
        astar_subassembly(foot, Cell(0, 0), Cell(0, 4), frozenset([Cell(0, 2), Cell(1, 2), Cell(2, 2), Cell(3, 2), Cell(4, 2)]), ar)


def test_swept_cells_union():
    foot = frozenset([Cell(0, 0), Cell(1, 0)])
    path = GridPath((Cell(0, 0), Cell(0, 1), Cell(0, 2)))
    assert swept_cells(foot, Cell(0, 0), path) == frozenset(
        Cell(x, y) for x in (0, 1) for y in (0, 1, 2)
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_astar_unit_agrees_with_bfs_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    ar = Arena(0, 0, 5, 5)
    cells = [Cell(x, y) for y in range(6) for x in range(6)]
    obstacles = frozenset(
        cells[i] for i in rng.choice(36, size=rng.integers(0, 14), replace=False)
    )
    free = [c for c in cells if c not in obstacles]
    start, goal = (free[int(i)] for i in rng.choice(len(free), size=2, replace=False))
    expected = bfs_unit_length(start, goal, obstacles, ar)
    try:
        got = astar_unit(start, goal, obstacles, ar).length
    except NoPathError:
        got = None
    assert got == expected


def _waypoints_or_none(search):
    """The search's waypoints, each checked to be a Cell, or None on NoPathError."""
    try:
        path = search()
    except NoPathError:
        return None
    assert all(type(c) is Cell for c in path.waypoints)
    return path.waypoints


@pytest.mark.parametrize("seed", range(4))
def test_astar_matches_the_cell_based_reference_on_seeded_fields(seed):
    # Arenas up to 9x9 off the origin, seeded obstacle fields and footprints
    # of 1-4 cells placed anywhere near the arena, so that starts and goals
    # also collide or leave it. Both searches must return the same waypoints
    # or both raise NoPathError.
    rng = np.random.default_rng(seed)
    found = failed = 0
    for _ in range(150):
        x0, y0 = (int(v) for v in rng.integers(-5, 5, size=2))
        w, h = (int(v) for v in rng.integers(1, 10, size=2))
        arena = Arena(x0, y0, x0 + w - 1, y0 + h - 1)
        cells = arena.cells()
        density = rng.uniform(0.0, 0.4)
        obstacles = frozenset(c for c in cells if rng.random() < density)
        shift = (int(rng.integers(x0 - 1, x0 + w)), int(rng.integers(y0 - 1, y0 + h)))
        footprint = frozenset(c + shift for c in random_connected_cells(rng, int(rng.integers(1, 5))))
        ref = sorted(footprint)[int(rng.integers(len(footprint)))]
        goal = Cell(int(rng.integers(x0 - 1, x0 + w + 1)), int(rng.integers(y0 - 1, y0 + h + 1)))
        stationary = obstacles - footprint if rng.random() < 0.8 else obstacles
        want = _waypoints_or_none(
            lambda: reference_rigid_search(footprint, ref, goal, stationary, arena))
        if len(footprint) == 1:
            got = _waypoints_or_none(lambda: astar_unit(ref, goal, stationary, arena))
        else:
            got = _waypoints_or_none(
                lambda: astar_subassembly(footprint, ref, goal, stationary, arena))
        assert got == want
        found += want is not None
        failed += want is None
    assert found and failed


@pytest.mark.parametrize("seed", range(4))
def test_unit_flight_is_astar_unit_around_the_other_units(seed):
    # Starts occupied (a flying unit) or free (the fill's entry unit); goals
    # occupied, outside the arena, walled off by units, or free. The flight
    # is astar_unit's around the occupied cells minus the start, and None
    # exactly when that search raises.
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(150):
        x0, y0 = (int(v) for v in rng.integers(-5, 5, size=2))
        w, h = (int(v) for v in rng.integers(3, 10, size=2))
        arena = Arena(x0, y0, x0 + w - 1, y0 + h - 1)
        cells = arena.cells()
        density = rng.uniform(0.0, 0.4)
        occupied = {c for c in cells if rng.random() < density}
        start = cells[int(rng.integers(len(cells)))]
        start_occupied = bool(rng.random() < 0.5)
        kind = ("occupied", "outside", "walled", "free")[int(rng.integers(4))]
        if kind == "outside":
            goal = Cell(x0 + w + int(rng.integers(2)), y0 + int(rng.integers(-1, h + 1)))
        else:
            goal = next(cells[i] for i in rng.permutation(len(cells))
                        if cells[i].manhattan(start) > 1)
            if kind == "occupied":
                occupied.add(goal)
            else:
                occupied.discard(goal)
            if kind == "walled":
                occupied.update(goal + d for d in ((0, -1), (-1, 0), (1, 0), (0, 1)))
        if start_occupied:
            occupied.add(start)
        else:
            occupied.discard(start)
        occupied = frozenset(occupied)
        want = _waypoints_or_none(lambda: astar_unit(start, goal, occupied - {start}, arena))
        got = unit_flight(start, goal, occupied, arena)
        assert (got and got.waypoints) == want
        assert want is None or kind == "free"
        seen.add((start_occupied, kind, want is None))
    assert {(s, k) for s, k, _ in seen} == {(s, k) for s in (True, False)
                                            for k in ("occupied", "outside", "walled", "free")}
    assert {s for s, _, none in seen if not none} == {True, False}


def _both_searches(footprint, ref, goal, obstacles, arena):
    """(library, reference) outcome: waypoints, or the NoPathError message."""
    def outcome(search):
        try:
            path = search(footprint, ref, goal, obstacles, arena)
        except NoPathError as exc:
            return str(exc)
        assert all(type(c) is Cell for c in path.waypoints)
        return path.waypoints

    if len(footprint) == 1:
        mine = outcome(lambda f, r, g, o, a: astar_unit(r, g, o, a))
    else:
        mine = outcome(astar_subassembly)
    return mine, outcome(reference_rigid_search)


_BAR4 = frozenset(Cell(x, 0) for x in range(4))
_SQUARE = frozenset(Cell(x, y) for x in (0, 1) for y in (0, 1))
_RING_OUTSIDE = frozenset(Cell(x, y) for x in range(-1, 6) for y in range(-1, 6)
                          if x in (-1, 5) or y in (-1, 5))


@pytest.mark.parametrize("footprint, ref, goal, obstacles, arena", [
    # footprints wider or taller than the arena: no reference position fits
    (_BAR4, Cell(0, 0), Cell(0, 1), frozenset(), Arena(0, 0, 2, 3)),
    (frozenset(Cell(0, y) for y in range(4)), Cell(0, 3), Cell(1, 3), frozenset(), Arena(0, 0, 3, 2)),
    (_BAR4, Cell(2, 0), Cell(2, 0), frozenset(), Arena(0, 0, 3, 0)),
    # obstacles outside the arena, next to it and far off
    (_SQUARE, Cell(0, 0), Cell(3, 3), _RING_OUTSIDE, Arena(0, 0, 4, 4)),
    (frozenset([Cell(0, 0)]), Cell(0, 0), Cell(4, 4), _RING_OUTSIDE | {Cell(99, -7), Cell(9, 0), Cell(-6, 1)},
     Arena(0, 0, 4, 4)),
    # start == goal, in open and in crowded fields
    (frozenset([Cell(2, 2)]), Cell(2, 2), Cell(2, 2), frozenset(), Arena(0, 0, 4, 4)),
    (_SQUARE, Cell(1, 1), Cell(1, 1), frozenset([Cell(2, 0), Cell(0, 2)]), Arena(0, 0, 2, 2)),
    # start == goal on a blocked placement: the start check comes first
    (_SQUARE, Cell(0, 0), Cell(0, 0), frozenset([Cell(1, 1)]), Arena(0, 0, 3, 3)),
    # a goal outside the arena, for the reference cell or for another cell
    (frozenset([Cell(0, 0)]), Cell(0, 0), Cell(5, 0), frozenset(), Arena(0, 0, 4, 4)),
    (_SQUARE, Cell(0, 0), Cell(4, 4), frozenset(), Arena(0, 0, 4, 4)),
    (_SQUARE, Cell(1, 1), Cell(0, 0), frozenset(), Arena(0, 0, 4, 4)),
    # a start that leaves the arena and a goal that collides: the start is told
    (frozenset(c + (4, 4) for c in _SQUARE), Cell(4, 4), Cell(2, 2), frozenset([Cell(2, 2)]),
     Arena(0, 0, 4, 4)),
    # open fields: long plateaus of equal f, settled by the (y, x) order alone
    (frozenset([Cell(0, 0)]), Cell(0, 0), Cell(11, 11), frozenset(), Arena(0, 0, 11, 11)),
    (frozenset([Cell(11, 11)]), Cell(11, 11), Cell(0, 0), frozenset(), Arena(0, 0, 11, 11)),
    (frozenset([Cell(0, 11)]), Cell(0, 11), Cell(11, 0), frozenset(), Arena(0, 0, 11, 11)),
    (frozenset([Cell(-3, 4)]), Cell(-3, 4), Cell(8, 4), frozenset(), Arena(-5, 2, 9, 6)),
    (_SQUARE, Cell(1, 0), Cell(9, 9), frozenset(), Arena(0, 0, 10, 10)),
    (_BAR4, Cell(3, 0), Cell(3, 10), frozenset([Cell(3, 5), Cell(4, 5)]), Arena(0, 0, 8, 10)),
])
def test_astar_matches_the_cell_based_reference_on_edge_cases(footprint, ref, goal, obstacles, arena):
    # The same waypoints, or NoPathError with the same message.
    mine, want = _both_searches(footprint, ref, goal, obstacles, arena)
    assert mine == want


def test_astar_matches_the_cell_based_reference_on_open_fields():
    # Empty and near-empty arenas, every start to every goal: almost every
    # pop ties on f with others, so the tie-break decides each path.
    arena = Arena(-2, 1, 4, 5)
    cells = arena.cells()
    for obstacles in (frozenset(), frozenset([Cell(1, 3)])):
        for start in cells:
            for goal in cells[::3]:
                mine, want = _both_searches(frozenset([start]), start, goal, obstacles, arena)
                assert mine == want, (start, goal)
        footprint = frozenset([Cell(-2, 1), Cell(-1, 1), Cell(-1, 2)])
        for goal in cells:
            mine, want = _both_searches(footprint, Cell(-1, 1), goal, obstacles, arena)
            assert mine == want, goal


@pytest.mark.parametrize("arena", [
    Arena(0, 0, 0, 0), Arena(3, -2, 3, 4), Arena(-4, 7, 2, 7), Arena(-3, -5, 1, -1),
    Arena(2, 3, 6, 8),
])
def test_arena_cells_match_a_direct_enumeration(arena):
    # Off the origin, one wide, one tall: the rectangle's cells and its ring
    # in (y, x) order, the same tuples on every call.
    cells = [Cell(x, y) for y in range(arena.min_y, arena.max_y + 1)
             for x in range(arena.min_x, arena.max_x + 1)]
    ring = [c for c in cells if c.x in (arena.min_x, arena.max_x) or c.y in (arena.min_y, arena.max_y)]
    assert type(arena.cells()) is tuple and list(arena.cells()) == cells
    assert type(arena.cells_on_ring()) is tuple and list(arena.cells_on_ring()) == ring
    assert all(type(c) is Cell for c in arena.cells())
    assert arena.cells() == arena.cells() and arena.cells_on_ring() == arena.cells_on_ring()
    assert arena == Arena(arena.min_x, arena.min_y, arena.max_x, arena.max_y)
    assert hash(arena) == hash(Arena(arena.min_x, arena.min_y, arena.max_x, arena.max_y))


# -- assignment --------------------------------------------------------------------


def test_lexicographic_min_assignment_basics():
    assert lexicographic_min_assignment(np.zeros((0, 3))) == []
    assert lexicographic_min_assignment(np.zeros((2, 2))) == [0, 1]
    assert lexicographic_min_assignment(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])) == [0, 1]
    cost = np.array([[1.0, 10.0], [10.0, 1.0]])
    assert lexicographic_min_assignment(cost) == [0, 1]
    cost = np.array([[10.0, 1.0], [1.0, 10.0]])
    assert lexicographic_min_assignment(cost) == [1, 0]
    with pytest.raises(InfeasibleAssignmentError):
        lexicographic_min_assignment(np.zeros((4, 3)))  # more targets than units


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_assignment_matches_brute_force(seed, rows, extra_cols):
    rng = np.random.default_rng(seed)
    cols = rows + extra_cols
    # Small integer costs of either sign provoke plenty of ties; _BIG entries
    # are the forbidden pairs of a fill round.
    cost = rng.integers(-3, 4, size=(rows, cols)).astype(float)
    cost[rng.random((rows, cols)) < 0.2] = planner._BIG
    got = lexicographic_min_assignment(cost)
    best_total, best_cols = brute_force_assignment(cost)
    assert len(set(got)) == rows
    assert sum(cost[i, c] for i, c in enumerate(got)) == pytest.approx(best_total)
    assert got == best_cols  # lexicographically smallest optimum


def test_assignment_equals_the_refinement_on_large_integer_matrices():
    # Up to 12 x 14 brute force is out of reach; the earlier refinement,
    # which re-solves sub-assignments row by row, is exact on integers.
    rng = np.random.default_rng(31)
    for rows in range(1, 13):
        for extra_cols in (0, 1, 2):
            for _ in range(4):
                shape = (rows, rows + extra_cols)
                cost = rng.integers(-2, 4, size=shape)
                cost[rng.random(shape) < 0.2] = planner._BIG
                cost = cost.tolist()
                expected = reference_lexicographic_min_assignment(cost)
                assert lexicographic_min_assignment(cost) == expected, cost


def test_lexicographic_assignment_is_one_solve(monkeypatch):
    # the row-major tie-break rides in the low digits of the costs, so a
    # tie-rich matrix needs no further solve
    cost = np.random.default_rng(6).integers(0, 2, size=(6, 8)).tolist()
    expected = reference_lexicographic_min_assignment(cost)
    solves = []
    solve = planner._min_cost_assignment
    monkeypatch.setattr(planner, "_min_cost_assignment",
                        lambda c: solves.append(1) or solve(c))
    assert lexicographic_min_assignment(cost) == expected
    assert len(solves) == 1


def test_float_costs_are_compared_exactly():
    # a total 1e-7 or one rounding step above another is no tie
    assert lexicographic_min_assignment([[1e-7, 0.0]]) == [1]
    assert lexicographic_min_assignment([[0.1 + 0.2, 0.3]]) == [1]


@pytest.mark.parametrize("kind", ["integer", "float", "forbidden"])
def test_hungarian_solve_reaches_the_scipy_optimum(kind):
    # scipy is the test-only reference: the in-house solve is an assignment
    # of every row to its own column with scipy's optimal total.
    rng = np.random.default_rng({"integer": 1, "float": 2, "forbidden": 3}[kind])
    for _ in range(300):
        rows = int(rng.integers(1, 6))
        cols = rows + int(rng.integers(0, 5))
        if kind == "float":
            cost = rng.uniform(0.0, 10.0, size=(rows, cols))
        else:
            cost = rng.integers(0, 5, size=(rows, cols)).astype(float)
        if kind == "forbidden":
            # path lengths with unreachable pairs, as the fill round builds them
            cost[rng.random((rows, cols)) < 0.4] = planner._BIG
        got = planner._min_cost_assignment(cost.tolist())
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert len(got) == rows and len(set(got)) == rows
        assert cost[np.arange(rows), got].sum() == pytest.approx(cost[ref_rows, ref_cols].sum(),
                                                                 rel=1e-12, abs=0.0)


def test_assignment_costs_must_be_finite():
    with pytest.raises(ValueError):
        lexicographic_min_assignment(np.array([[0.0, math.nan]]))
    with pytest.raises(ValueError):
        lexicographic_min_assignment(np.array([[math.inf, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        lexicographic_min_assignment([[1.0, 2.0], [1.0]])      # ragged rows


# -- conflict-free target filtering ---------------------------------------------------


def test_dead_end_corridor_keeps_only_the_deepest_target():
    walls = (
        [Cell(x, -1) for x in range(-1, 4)]
        + [Cell(x, 1) for x in range(-1, 4)]
        + [Cell(-1, 0)]
    )
    cfg = Configuration.from_cells(walls)
    targets = [Cell(x, 0) for x in range(4)]
    survivors = conflict_free_targets(cfg, targets, arena_around(walls + targets))
    assert survivors == [Cell(0, 0)]


def test_reachable_vacancy_survives_enclosed_one_does_not():
    open_cfg = Configuration.from_cells([Cell(1, 0), Cell(0, 1), Cell(1, 2)])
    ar = arena_around(list(open_cfg.cells) + [Cell(1, 1)])
    assert conflict_free_targets(open_cfg, [Cell(1, 1)], ar) == [Cell(1, 1)]
    closed_cfg = Configuration.from_cells([Cell(1, 0), Cell(0, 1), Cell(2, 1), Cell(1, 2)])
    ar2 = arena_around(list(closed_cfg.cells))
    assert conflict_free_targets(closed_cfg, [Cell(1, 1)], ar2) == []


def test_already_occupied_targets_are_not_pending():
    cfg = Configuration.from_cells([Cell(0, 0), Cell(1, 0)])
    ar = arena_around([Cell(0, 0), Cell(1, 0), Cell(3, 0)])
    assert conflict_free_targets(cfg, [Cell(0, 0), Cell(3, 0)], ar) == [Cell(3, 0)]
    assert conflict_free_targets(cfg, [], ar) == []


def test_conflict_free_targets_reads_a_one_shot_iterable_once():
    # Read twice, an iterator is empty the second time, and the entry cell
    # (the first free ring cell) would land on the target (-2, -2).
    cfg = Configuration.from_cells([Cell(0, 0)])
    targets = [Cell(-2, -2), Cell(1, 0)]
    assert conflict_free_targets(cfg, iter(targets), Arena(-2, -2, 2, 2)) == targets


def test_fill_targets_match_the_path_storing_reference():
    # Random arenas with random occupied cells and target subsets; every
    # third case walls in one vacant target, every tenth fills the ring.
    rng = np.random.default_rng(2024)
    raised = 0
    for case in range(300):
        w, h = (int(v) for v in rng.integers(4, 8, size=2))
        arena = Arena(0, 0, w - 1, h - 1)
        cells = arena.cells()
        occupied = {c for c in cells if rng.random() < rng.uniform(0.1, 0.6)}
        targets = [c for c in cells if rng.random() < 0.3]
        if case % 3 == 0:
            walled = Cell(int(rng.integers(1, w - 1)), int(rng.integers(1, h - 1)))
            occupied -= {walled}
            occupied |= set(walled.neighbors4())
            targets = [t for t in targets if t != walled] + [walled]
        if case % 10 == 0:
            occupied |= set(arena.cells_on_ring())
        config = Configuration.from_cells(sorted(occupied))
        try:
            expected = reference_conflict_free_targets(config, targets, arena)
        except NoPathError:
            with pytest.raises(NoPathError):
                conflict_free_targets(config, targets, arena)
            raised += 1
            continue
        got = conflict_free_targets(config, targets, arena)
        assert got == expected, case
        if case % 3 == 0:
            assert walled not in got
        # nonempty whenever a pending target is reachable from the entry cell
        # (no free entry cell raised above, unless no target is pending)
        entry = next((c for c in arena.cells_on_ring() if c not in occupied and c not in targets), None)
        reachable = False
        for t in set(targets) - occupied:
            try:
                astar_unit(entry, t, config.cell_set, arena)
            except NoPathError:
                continue
            reachable = True
            break
        assert bool(got) == reachable, case
    assert raised >= 20


# -- blocker parking ---------------------------------------------------------------


def reference_parking(pipeline, blocker, gate):
    """The parking flight and note of the tiered cascade, each tier scanned
    exhaustively: the preferred spots first, then every free spot off the
    target by flight length (see `_Pipeline._parking_steps`)."""
    occupied, target = pipeline.work.cell_set, pipeline.target.config.cell_set
    free = [w for w in pipeline.arena.cells() if w not in occupied and w not in pipeline.corridor]
    if pipeline.relocation_rule:
        preferred = exhaustive_parking(blocker, [w for w in free if w in target], gate, True)
    else:
        preferred = exhaustive_parking(blocker, [w for w in free if w.y == blocker.y], gate, False)
    if preferred is not None:
        return preferred, None
    fallback = exhaustive_parking(blocker, [w for w in free if w not in target], gate, True)
    return fallback, fallback and "off-target-parking"


def check_parking_against_an_exhaustive_scan(monkeypatch, rejecting):
    """Compare `_parking_steps` with `reference_parking` under one gate, on 60
    seeded cases under each rule; returns how many cases had a rejected
    spot as the unrejected winner of either rule.

    Fault-free assemblies with scattered single units: every spot the
    blocker can reach passes the margin checks, so detours around the
    scattered units and (y, x) ties decide which spot wins. A seeded fifth
    of the free cells is corridor, and none, a sixth or a third is target,
    which varies both tiers. With `rejecting` the gate also turns away a seeded third of
    the free cells.
    """
    rng = np.random.default_rng(41)
    reject_rng = np.random.default_rng(43)
    detours = passed_over = 0
    notes = set()
    for _ in range(60):
        cells = set(random_connected_cells(rng, int(rng.integers(3, 9))))
        free = [c for c in arena_around(cells).cells() if c not in cells]
        cells.update(free[int(i)] for i in rng.choice(len(free), len(free) // 4, replace=False))
        config = Configuration.from_cells(sorted(cells))
        pipeline = _Pipeline(config, optimal_configuration(config), DEFAULT_PARAMS,
                             2.0, -0.1, True, 0.0)
        blocker = sorted(cells)[int(rng.integers(len(cells)))]
        free = [c for c in pipeline.arena.cells() if c not in cells]

        def seeded(rng, share):
            return {free[int(i)] for i in rng.choice(len(free), int(len(free) * share),
                                                    replace=False)}

        pipeline.corridor = frozenset(seeded(rng, 1 / 5))
        # only the target's free cells matter to parking; with none, the
        # rule's tier is empty
        target = seeded(rng, int(rng.integers(3)) / 6)
        pipeline.target = TargetConfiguration(Configuration.from_cells(sorted(target)), math.inf)
        rejected = set()
        gate_step = pipeline._step
        monkeypatch.setattr(pipeline, "_step", lambda moved, path, phase, note=None:
                            None if path.goal in rejected else gate_step(moved, path, phase, note))

        def gate(spot):
            step = pipeline._unit_step(blocker, spot, Phase.PATH_CLEARANCE)
            return step and step.path

        if rejecting:
            winners = []
            for rule in (True, False):
                pipeline.relocation_rule = rule
                winners.append(reference_parking(pipeline, blocker, gate)[0])
            rejected.update(seeded(reject_rng, 1 / 3))
            passed_over += any(w and w.goal in rejected for w in winners)
        chosen = []
        for rule in (True, False):
            pipeline.relocation_rule = rule
            got = next(filter(None, pipeline._parking_steps(blocker)), None)
            want, note = reference_parking(pipeline, blocker, gate)
            assert (got and got.path.waypoints) == (want and want.waypoints)
            assert not (got and got.path.goal in rejected)
            if got is not None:
                assert got.note == note and got.phase == Phase.PATH_CLEARANCE
                notes.add(note)
            chosen.append(got and got.path.goal)
        assert pipeline.work == config and pipeline.steps == []
        detours += chosen[0] != chosen[1]
    assert detours and notes == {None, "off-target-parking"}
    return passed_over


def test_parking_search_matches_an_exhaustive_scan(monkeypatch):
    assert check_parking_against_an_exhaustive_scan(monkeypatch, rejecting=False) == 0


def test_parking_search_matches_an_exhaustive_scan_under_a_rejecting_gate(monkeypatch):
    # The search must pass over rejected spots, often the one that would win.
    assert check_parking_against_an_exhaustive_scan(monkeypatch, rejecting=True) >= 10


def test_rule_off_parking_routes_each_spot_once(monkeypatch):
    # The gate rejects the blocker's whole row, so the blocker parks in the
    # fallback tier. The row's cells are off the target, so they belong to
    # both tiers; they enter the search once and are routed once.
    config = Configuration.from_cells([Cell(x, 0) for x in range(4)] + [Cell(1, 1)])
    pipeline = _Pipeline(config, optimal_configuration(config), DEFAULT_PARAMS,
                         2.0, -0.1, False, 0.0)
    blocker = Cell(1, 1)
    pipeline.corridor = frozenset({blocker})
    routed = []

    def counted(start, goal, obstacles, arena):
        routed.append(goal)
        return astar_unit(start, goal, obstacles, arena)

    monkeypatch.setattr(paths, "astar_unit", counted)
    gate_step = pipeline._step
    monkeypatch.setattr(pipeline, "_step", lambda moved, path, phase, note=None:
                        None if path.goal.y == blocker.y else gate_step(moved, path, phase, note))
    pipeline._clear_corridor()
    (step,) = pipeline.steps
    assert step.note == "off-target-parking" and step.path.goal.y != blocker.y
    assert any(goal.y == blocker.y for goal in routed)
    assert len(routed) == len(set(routed))


def test_parking_reads_no_fallback_spot_while_a_preferred_spot_can_win(monkeypatch):
    # Seeded fields under both rules, once with the gate open and once with
    # it turning away every preferred spot. The spots each best_first call
    # is given are recorded: the preferred tier's first, and the fallback
    # tier's (every free cell off the corridor, off the target and outside
    # the preferred tier, each once) only when no preferred spot passed.
    given, best_first = [], planner.best_first

    def recording(entries, *stages):
        entries = list(entries)
        given.append([spot for _, spot in entries])
        return best_first(entries, *stages)

    monkeypatch.setattr(planner, "best_first", recording)
    rng = np.random.default_rng(47)
    outcomes = set()
    for _ in range(30):
        cells = set(random_connected_cells(rng, int(rng.integers(3, 9))))
        free = [c for c in arena_around(cells).cells() if c not in cells]
        cells.update(free[int(i)] for i in rng.choice(len(free), len(free) // 4, replace=False))
        config = Configuration.from_cells(sorted(cells))
        pipeline = _Pipeline(config, optimal_configuration(config), DEFAULT_PARAMS,
                             2.0, -0.1, True, 0.0)
        blocker = sorted(cells)[int(rng.integers(len(cells)))]
        free = [c for c in pipeline.arena.cells() if c not in cells]
        pipeline.corridor = frozenset(c for c in free if rng.random() < 0.2)
        target = {c for c in free if rng.random() < 0.3}
        pipeline.target = TargetConfiguration(Configuration.from_cells(sorted(target)), math.inf)
        spots = [c for c in free if c not in pipeline.corridor]
        gate_step = pipeline._step
        for rule in (True, False):
            pipeline.relocation_rule = rule
            preferred = [c for c in spots if (c in target if rule else c.y == blocker.y)]
            fallback = [c for c in spots if c not in target and c not in preferred]
            for closed in (False, True):
                monkeypatch.setattr(pipeline, "_step", lambda moved, path, phase, note=None:
                                    None if closed and path.goal in preferred
                                    else gate_step(moved, path, phase, note))
                given.clear()
                step = next(filter(None, pipeline._parking_steps(blocker)), None)
                assert sorted(given[0]) == preferred
                if step is not None and step.note is None:
                    assert not closed and len(given) == 1
                    outcomes.add(("preferred", bool(fallback)))
                else:
                    assert len(given) == 2 and sorted(given[1]) == fallback
                    outcomes.add(("fallback" if step else "none", bool(fallback)))
    assert {("preferred", True), ("fallback", True)} <= outcomes


@pytest.mark.parametrize("walled", [True, False])
def test_corridor_clearance_raises_when_a_blocker_has_nowhere_to_park(monkeypatch, walled):
    # Walled, every free cell lies on the corridor, so no spot is routed;
    # otherwise the gate turns away every spot the search routes.
    config = Configuration.from_cells([Cell(x, 0) for x in range(3)] + [Cell(1, 1)])
    pipeline = _Pipeline(config, optimal_configuration(config), DEFAULT_PARAMS,
                         2.0, -0.1, True, 0.0)
    blocker = Cell(1, 1)
    free = {c for c in pipeline.arena.cells() if c not in config.cell_set}
    pipeline.corridor = frozenset({blocker} | (free if walled else set()))
    tried = []
    monkeypatch.setattr(pipeline, "_step", lambda moved, path, phase, note=None:
                        tried.append(path.goal))
    with pytest.raises(NoPathError) as exc:
        pipeline._clear_corridor()
    assert exc.value.reason == "no-path"
    assert str(exc.value) == f"blocker {blocker} has nowhere to park"
    assert exc.value.info == {}
    assert pipeline.steps == [] and pipeline.work == config
    assert sorted(tried) == ([] if walled else sorted(free))


# -- support completion ------------------------------------------------------------


def row_pipeline(n, fault_x):
    """A pipeline on `row_scenario(n, fault_x)` whose one group is the fault
    with the support column through it."""
    cfg, vm, arena = row_scenario(n, fault_x)
    pipeline = _Pipeline(cfg, TargetConfiguration(cfg, LIVE_DEAD_LIVE_CM), DEFAULT_PARAMS,
                         2.0, -0.1, True, 0.0)
    pipeline.arena = arena
    pipeline.groups = [_Group({Cell(fault_x, 0): UNIT_FAULT}, (0, 0), vm)]
    return pipeline


def test_support_completion_fills_vacancies_in_scan_order():
    pipeline = row_pipeline(5, 2)
    work = pipeline.work
    pipeline._build_supports()
    assert [s.moved_cells for s in pipeline.steps] == [(Cell(0, 0),), (Cell(4, 0),)]
    assert [s.path.goal for s in pipeline.steps] == [Cell(2, -1), Cell(2, 1)]
    # each step lands where its gate checked, and the landings chain
    for s in pipeline.steps:
        assert (s.kind, s.phase) == (StepKind.MOVE_UNIT, Phase.VMCS_BUILD)
        assert s.path.start == s.moved_cells[0]
        a, b = s.path.start, s.path.goal
        assert s.post_config == work.translate_set((a,), (b.x - a.x, b.y - a.y))
        assert s.post_cm == system_cm(s.post_config, DEFAULT_PARAMS, 0.0) >= 0
        work = s.post_config
    assert pipeline.work == work and pipeline.groups[0].shape <= work.cell_set
    assert system_cm(work) == pytest.approx(0.004982310, abs=1e-8)


def test_a_complete_support_needs_no_completion_steps():
    cfg = Configuration.from_cells([Cell(0, 0), Cell(0, 1), Cell(0, 2)],
                                   {Cell(0, 1): UNIT_FAULT})
    pipeline = _Pipeline(cfg, TargetConfiguration(cfg, 0.0), DEFAULT_PARAMS,
                         2.0, -0.1, True, 0.0)
    pipeline.groups = [_Group({Cell(0, 1): UNIT_FAULT}, (1, 0), frozenset(cfg.cells))]
    pipeline._build_supports()
    assert pipeline.steps == [] and pipeline.work == cfg


def test_support_selection_passes_over_shapes_that_leave_the_arena(monkeypatch):
    # No workload ranks a shape that leaves the arena (it keeps two cells
    # around the start), so a crafted ranking stands in: the better shape
    # lands one column past the arena and is passed over.
    cfg = Configuration.from_cells([Cell(0, 0), Cell(0, 1), Cell(0, 2)],
                                   {Cell(0, 1): UNIT_FAULT})
    wide = frozenset({Cell(0, 1), Cell(1, 1)})
    column = frozenset(cfg.cells)
    for ranked, shape in (([(wide, 0.01), (column, 0.005)], column), ([(wide, 0.01)], None)):
        monkeypatch.setattr(planner, "smallest_supports", lambda *args: (1, ranked))
        pipeline = _Pipeline(cfg, TargetConfiguration(cfg, 0.0), DEFAULT_PARAMS,
                             2.0, -0.1, True, 0.0)
        pipeline.arena = Arena(-1, -1, 1, 3)
        pipeline.groups = [_Group({Cell(0, 1): UNIT_FAULT}, (1, 0))]
        if shape is None:
            with pytest.raises(NoVmcsPlacementError) as exc:
                pipeline._select_supports()
            assert exc.value.info == {"faults": (Cell(0, 1),)}
        else:
            pipeline._select_supports()
            assert pipeline.groups[0].shape == shape


def test_support_completion_raises_when_every_donor_is_load_bearing():
    pipeline = row_pipeline(4, 0)
    with pytest.raises(NoFeasibleDonorError) as exc:
        pipeline._build_supports()
    assert exc.value.reason == "no-feasible-donor"
    assert exc.value.info == {"vacancy": Cell(0, -1)}
    assert pipeline.steps == []


@pytest.mark.parametrize("reject_all", [False, True])
def test_support_completion_commits_the_best_ranked_landing_the_gate_approves(
        monkeypatch, reject_all):
    pipeline = row_pipeline(5, 2)
    vacancy = Cell(2, -1)
    ranked = [p.start for p in plan_vmcs_completion(
        pipeline.work, LIVE_DEAD_LIVE_CM, vacancy, DEFAULT_PARAMS, 2.0, -0.1,
        reserved=pipeline.groups[0].shape, arena=pipeline.arena, epsilon=0.0)]
    assert len(ranked) >= 2
    gate, tried = pipeline._step, []

    def rejecting(moved, path, phase, note=None):
        if path.goal == vacancy:
            tried.append(moved[0])
            if reject_all or moved[0] == ranked[0]:
                return None
        return gate(moved, path, phase, note)

    monkeypatch.setattr(pipeline, "_step", rejecting)
    if reject_all:
        with pytest.raises(NoFeasibleDonorError) as exc:
            pipeline._build_supports()
        assert exc.value.info == {"vacancy": vacancy}
        assert tried == ranked and pipeline.steps == []
    else:
        pipeline._build_supports()
        assert tried == ranked[:2]
        assert pipeline.steps[0].moved_cells == (ranked[1],)
        assert pipeline.steps[0].path.goal == vacancy


# -- end-to-end planning ------------------------------------------------------------------


def rect32(faults):
    return Configuration.from_cells(RECT32, faults)


def check_step_chain(start, p):
    """Re-derive every post state independently of the recorded ones."""
    work = start
    for step in p.steps:
        assert set(step.moved_cells) <= set(work.cells)
        assert step.path.start == min(step.moved_cells)
        delta = (step.path.goal.x - step.path.start.x, step.path.goal.y - step.path.start.y)
        work = work.translate_set(step.moved_cells, delta)
        assert work == step.post_config
        assert step.post_cm == pytest.approx(system_cm(work), abs=1e-12)
        assert step.post_cm >= 0.0
        if step.kind is StepKind.MOVE_UNIT:
            assert len(step.moved_cells) == 1
        else:
            assert len(step.moved_cells) > 1
    assert work == p.target.config


def test_plan_single_fault_walkthrough():
    start = rect32({Cell(2, 0): UNIT_FAULT})
    p = plan(start)
    assert p.step_count == 5
    assert p.detach_attach_count == 10
    assert p.total_path_length == 8
    assert [s.phase for s in p.steps] == [
        Phase.VMCS_BUILD,
        Phase.PATH_CLEARANCE,
        Phase.VMCS_TRANSFER,
        Phase.FILL_REMAINDER,
        Phase.FILL_REMAINDER,
    ]
    assert [s.kind for s in p.steps] == [
        StepKind.MOVE_UNIT,
        StepKind.MOVE_UNIT,
        StepKind.MOVE_SUBASSEMBLY,
        StepKind.MOVE_UNIT,
        StepKind.MOVE_UNIT,
    ]
    # The margin dips to the bare three-unit support mid-plan, then recovers.
    assert p.min_cm == pytest.approx(0.001549412110, abs=1e-9)
    assert p.steps[1].post_cm == pytest.approx(0.001549412110, abs=1e-9)
    assert p.target.cm == pytest.approx(0.006698759, abs=1e-8)
    assert p.steps[-1].post_cm == pytest.approx(p.target.cm, abs=1e-12)
    check_step_chain(start, p)
    assert validate_plan(start, p) == p.target.config


def test_plan_two_fault_rectangle():
    start = rect32({Cell(1, 0): UNIT_FAULT, Cell(1, 1): UNIT_FAULT})
    p = plan(start)
    assert p.step_count == 4
    assert p.total_path_length == 6
    assert [s.phase for s in p.steps] == [
        Phase.VMCS_TRANSFER,
        Phase.VMCS_TRANSFER,
        Phase.FILL_REMAINDER,
        Phase.FILL_REMAINDER,
    ]
    assert p.min_cm == pytest.approx(0.003098824, abs=1e-8)
    check_step_chain(start, p)


def test_plan_without_faults_is_empty():
    cfg = Configuration.from_cells([Cell(0, 0), Cell(1, 0)])
    p = plan(cfg)
    assert p.step_count == 0
    assert p.target.config == cfg
    assert p.target.cm == float("inf")
    assert p.min_cm == float("inf")
    assert validate_plan(cfg, p) == cfg


def test_plan_records_its_inputs():
    start = rect32({Cell(2, 0): UNIT_FAULT})
    p = plan(start, c1=4.0, c2=-0.2, relocation_rule=False, epsilon=0.0)
    assert (p.c1, p.c2, p.relocation_rule, p.epsilon) == (4.0, -0.2, False, 0.0)
    assert p.params.unit_mass == 0.032


def test_fill_round_breaks_cost_ties_lexicographically():
    # The fill round sends the parked units (0, -1) and (1, -1) to the vacant
    # targets (2, 0) and (3, 0); both pairings cost 8 cells of flight, and the
    # row-major smallest assignment wins.
    row = Configuration.from_cells([Cell(x, 0) for x in range(4)], {Cell(2, 0): rotor_fault(0)})
    p = plan(row)
    fills = [(s.moved_cells, s.path.goal) for s in p.steps if s.phase is Phase.FILL_REMAINDER]
    assert fills == [((Cell(0, -1),), Cell(2, 0)), ((Cell(1, -1),), Cell(3, 0))]
    assert sum(s.path.length for s in p.steps if s.phase is Phase.FILL_REMAINDER) == 8
    assert validate_plan(row, p) == p.target.config


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = [(path, rule) for path in sorted(SCENARIOS.glob("*.json")) for rule in (True, False)]


def test_lazy_fill_assignment_equals_the_fully_gated_one(monkeypatch):
    # Gating only the assigned pairs, and solving again without those that
    # fail, picks the pairs of the matrix that gates every pair: in every
    # fill round of the bundled scenarios under both rules and of the
    # criterion-8 fuzz.
    rounds = []     # (pairs, the fully gated reference's pairs, solves)
    solves = []
    solve = planner.lexicographic_min_assignment
    monkeypatch.setattr(planner, "lexicographic_min_assignment",
                        lambda cost: solves.append(1) or solve(cost))
    assign = _Pipeline._assign_fill_moves

    def recording(self, targets, candidates):
        expected = gated_fill_assignment(self.work, targets, candidates, self.arena,
                                         self.params, self.epsilon)
        solves.clear()
        pairs = []      # when the round raises
        try:
            steps = assign(self, targets, candidates)
            pairs = [(s.path.goal, s.moved_cells[0]) for s in steps]
            return steps
        finally:
            rounds.append((pairs, expected, len(solves)))

    monkeypatch.setattr(_Pipeline, "_assign_fill_moves", recording)
    for path, rule in BUNDLED:
        scenario = load_scenario(path)
        plan(scenario.config, scenario.params, relocation_rule=rule)
    for config in criterion8_configs():
        try:
            plan(config)
        except (InfeasibleTargetError, PlanningError):
            pass
    assert [pairs for pairs, _, _ in rounds] == [expected for _, expected, _ in rounds]
    # forbidding assigned pairs that fail the gate takes 19 more solves
    assert (len(rounds), sum(solves for _, _, solves in rounds)) == (127, 146)


def test_bundled_fill_rounds_gate_only_assigned_pairs(monkeypatch):
    # The 7 bundled scenarios under both rules: gating every (unit, target)
    # pair of each round took 138 fill-phase gate calls for 40 committed
    # fill steps; gating the assigned pairs only took 86. Committing each
    # round's first flight as the assignment gated it, rather than gating it
    # again, saves one call in each of the 33 rounds: 53.
    gated = []
    step = _Pipeline._step

    def counting(self, moved, path, phase, note=None):
        gated.append(phase)
        return step(self, moved, path, phase, note)

    monkeypatch.setattr(_Pipeline, "_step", counting)
    fill_steps = 0
    for path, rule in BUNDLED:
        scenario = load_scenario(path)
        result = plan(scenario.config, scenario.params, relocation_rule=rule)
        fill_steps += sum(s.phase is Phase.FILL_REMAINDER for s in result.steps)
    assert fill_steps == 40
    assert gated.count(Phase.FILL_REMAINDER) == 53


def test_every_fill_flight_is_a_shortest_route_on_its_pre_move_state():
    # The benchmark's fuzz case fuzz-n12-f1-0. A fill flight once detoured
    # around its round's still-vacant targets, which made one flight two
    # cells longer than the shortest route (a total path of 52, now 50).
    cells = [(-2, 1), (-1, -1), (-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1),
             (2, 1), (3, 0), (3, 1), (3, 2)]
    start = Configuration.from_cells([Cell(x, y) for x, y in cells], {Cell(3, 1): UNIT_FAULT})
    result = plan(start)
    arena = arena_around(start.cells)
    work = start
    fills = 0
    for step in result.steps:
        if step.phase is Phase.FILL_REMAINDER:
            (unit,) = step.moved_cells
            obstacles = work.cell_set - {unit}
            assert step.path.length == bfs_unit_length(unit, step.path.goal, obstacles, arena)
            fills += 1
        work = step.post_config
    assert (fills, result.step_count, result.total_path_length) == (8, 17, 50)


@pytest.mark.parametrize("walled", [True, False])
def test_fill_rounds_raise_when_no_target_or_no_flight_is_left(monkeypatch, walled):
    # Walled, the vacant centre of a 3x3 ring is the only target and no entry
    # path reaches it; otherwise the gate turns away the one flight to (2, 0).
    if walled:
        block = [Cell(x, y) for y in range(3) for x in range(3)]
        work = [c for c in block if c != Cell(1, 1)] + [Cell(3, 1)]
        message = "no fill target is reachable"
    else:
        block, work = [Cell(0, 0), Cell(1, 0), Cell(2, 0)], [Cell(0, 0), Cell(1, 0), Cell(3, 0)]
        message = "no unit can reach any fill target"
    config = Configuration.from_cells(work)
    pipeline = _Pipeline(config, TargetConfiguration(Configuration.from_cells(block), math.inf),
                         DEFAULT_PARAMS, 2.0, -0.1, True, 0.0)
    monkeypatch.setattr(pipeline, "_step", lambda moved, path, phase, note=None: None)
    with pytest.raises(InfeasibleAssignmentError) as exc:
        pipeline._fill_remainder()
    assert exc.value.reason == "infeasible-assignment"
    assert str(exc.value) == message
    assert exc.value.info == {}
    assert pipeline.steps == [] and pipeline.work == config


def test_plan_is_deterministic():
    start = rect32({Cell(1, 0): UNIT_FAULT, Cell(1, 1): UNIT_FAULT})
    assert plan(start).steps == plan(start).steps


def test_unreachable_target_margin_raises_typed_error():
    with pytest.raises(InfeasibleTargetError):
        plan(Configuration.from_cells([Cell(0, 0), Cell(1, 0)], {Cell(0, 0): UNIT_FAULT}))
    # Same footprint is feasible at floor 0 but not at a higher floor.
    start = rect32({Cell(2, 0): UNIT_FAULT})
    plan(start)
    with pytest.raises(InfeasibleTargetError):
        plan(start, epsilon=0.01)


def test_locked_in_fault_pair_raises_no_feasible_donor():
    start = rect32({Cell(0, 0): UNIT_FAULT, Cell(1, 0): UNIT_FAULT})
    with pytest.raises(NoFeasibleDonorError) as exc:
        plan(start)
    assert exc.value.reason == "no-feasible-donor"


def test_transfer_below_the_floor_raises_a_typed_safety_violation():
    # Criterion-8 draw #50. Without the relocation rule the corridor blocker
    # parks off the assembly on its own row, and the support's landing then
    # leaves the system below the floor: the transfer is the gated move that
    # fails. With the rule the blocker parks on the target and the plan holds.
    cells = [Cell(0, -1), Cell(-1, 0), Cell(0, 0), Cell(1, 0),
             Cell(-1, 1), Cell(0, 1), Cell(1, 1)]
    start = Configuration.from_cells(cells, {Cell(0, 1): UNIT_FAULT, Cell(-1, 0): UNIT_FAULT})
    with pytest.raises(SafetyViolationError) as exc:
        plan(start, relocation_rule=False)
    assert exc.value.reason == "safety-violation"
    assert exc.value.info["phase"] == Phase.VMCS_TRANSFER.value
    assert plan(start, relocation_rule=True).step_count == 5


def test_validate_plan_rejects_corruption():
    start = rect32({Cell(1, 0): UNIT_FAULT, Cell(1, 1): UNIT_FAULT})
    p = plan(start)
    wrong_post = dataclasses.replace(p.steps[1], post_config=p.steps[0].post_config)
    bad = dataclasses.replace(p, steps=[p.steps[0], wrong_post, *p.steps[2:]])
    with pytest.raises(PlanningError):
        validate_plan(start, bad)
    ghost_mover = dataclasses.replace(p.steps[0], moved_cells=(Cell(9, 9),),
                                      path=GridPath((Cell(9, 9),)))
    bad2 = dataclasses.replace(p, steps=[ghost_mover, *p.steps[1:]])
    with pytest.raises(SafetyViolationError, match="step 0 fails the unoccupied check") as exc:
        validate_plan(start, bad2)
    assert exc.value.info == {"step": 0, "cause": "unoccupied"}
    # step 0 (one donor) re-routed to start on a free cell beside its goal
    start = rect32({Cell(2, 0): UNIT_FAULT})
    p = plan(start)
    goal = p.steps[0].path.goal
    side = next(c for c in goal.neighbors4() if c not in start)
    off_start = dataclasses.replace(p.steps[0], path=GridPath((side, goal)))
    bad3 = dataclasses.replace(p, steps=[off_start, *p.steps[1:]])
    with pytest.raises(PlanningError, match="does not start at the reference cell"):
        validate_plan(start, bad3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("weight", ["c1", "c2", "epsilon"])
def test_plan_rejects_non_finite_weights(weight, value):
    # a NaN c1 would rank donors on NaN scores, a NaN epsilon fail every check
    start = load_scenario(SCENARIOS / "rect3x2_fault3.json").config
    with pytest.raises(ValueError, match="must be finite"):
        plan(start, **{weight: value})


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_validate_plan_rejects_a_non_finite_floor(epsilon):
    # every `< nan` is false, so a NaN floor would pass any step
    start = rect32({Cell(2, 0): UNIT_FAULT})
    p = plan(start)
    with pytest.raises(ValueError, match="must be finite"):
        validate_plan(start, dataclasses.replace(p, epsilon=epsilon))


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 2), st.integers(0, 3),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_step_verdict_matches_independent_margins(seed, n, nf, pick, on_piece):
    rng = np.random.default_rng(seed)
    cells = random_connected_cells(rng, n)
    config = Configuration.from_cells(cells, random_fault_states(rng, cells, min(nf, n)))
    piece = {cells[int(rng.integers(n))]}
    for _ in range(int(rng.integers(n))):
        grow = sorted({nb for c in piece for nb in c.neighbors4() if nb in config} - piece)
        if grow:
            piece.add(grow[int(rng.integers(len(grow)))])
    moved = tuple(sorted(piece))
    stationary = {c: s for c, s in config.items() if c not in piece}
    # a flight around the stationary units to any placement it reaches in
    # the arena, the piece's own placement (a zero-length path) included
    arena = arena_around(config.cells)
    paths = []
    for goal in arena.cells():
        try:
            paths.append(astar_subassembly(piece, moved[0], goal, frozenset(stationary), arena))
        except NoPathError:
            continue
    path = paths[int(rng.integers(len(paths)))]
    delta = (path.goal.x - moved[0].x, path.goal.y - moved[0].y)
    # oracles: the translation built cell by cell, the piece's margin uncached
    post = Configuration({**stationary, **{c + delta: config.state(c) for c in moved}})
    post_cm = system_cm(post)
    faulty_piece = any(config.state(c).is_faulty for c in moved)
    piece_cm = subassembly_cm(Subassembly(tuple((c, config.state(c)) for c in moved)))
    exact = piece_cm if on_piece and faulty_piece else post_cm
    floor = (-0.05, 0.0, exact - 1e-6, exact + 1e-6)[pick if math.isfinite(exact) else 1]
    clear_cm_cache()
    after, margin, failure = step_verdict(config, moved, path, arena, DEFAULT_PARAMS, floor)
    assert after == post
    if faulty_piece and piece_cm < floor:
        assert (margin, failure) == (None, "piece")
    elif post_cm < floor:
        assert failure == "post" and post_cm - 1e-12 <= margin < floor
    else:
        assert failure is None and margin == pytest.approx(post_cm, abs=1e-12)


@pytest.mark.parametrize("moved, waypoints, cause", [
    ([(0, 1)], [(0, 1)], "unoccupied"),
    ([(0, 0), (2, 0)], [(0, 0), (0, 1)], "disconnected"),
    ([(2, 0)], [(2, 0), (2, 1), (2, 2), (2, 3)], "arena"),
    ([(0, 0)], [(0, 0), (1, 0), (1, 1)], "collision"),
])
def test_step_verdict_rejects_a_structural_fault_before_any_margin(monkeypatch, moved, waypoints,
                                                                   cause):
    # each move passes every check before its own, and the row's arena
    # spans y in -2..2; a margin read or a translation would raise here
    def forbidden(*args, **kwargs):
        raise AssertionError("a structural check must come first")

    for name in ("system_cm", "cached_subassembly_cm"):
        monkeypatch.setattr(planner, name, forbidden)
    monkeypatch.setattr(Configuration, "translate_set", forbidden)
    row = Configuration.from_cells([Cell(0, 0), Cell(1, 0), Cell(2, 0)], {Cell(0, 0): UNIT_FAULT})
    path = GridPath(tuple(Cell(*c) for c in waypoints))
    assert step_verdict(row, tuple(Cell(*c) for c in moved), path, arena_around(row.cells),
                        DEFAULT_PARAMS, 0.0) == (None, None, cause)


@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
@settings(max_examples=25, deadline=None)
def test_random_single_fault_plans_reach_the_computed_optimum(seed, n):
    rng = np.random.default_rng(seed)
    cells = random_connected_cells(rng, n)
    fault = cells[int(rng.integers(len(cells)))]
    start = Configuration.from_cells(cells, {fault: UNIT_FAULT})
    try:
        p = plan(start)
    except (InfeasibleTargetError, PlanningError):
        return  # typed failures are legitimate outcomes; fuzz coverage elsewhere
    check_step_chain(start, p)
    assert p.target.cm == pytest.approx(system_cm(p.target.config), abs=1e-12)
    assert validate_plan(start, p) == p.target.config


@pytest.mark.parametrize("faults, goals, groups", [
    # touching faults with one displacement ride one support
    ([(0, 0), (1, 0)], [(0, 1), (1, 1)], [([(0, 0), (1, 0)], (0, 1))]),
    # the same displacement across a gap: one support each
    ([(0, 0), (2, 0)], [(0, 1), (2, 1)], [([(0, 0)], (0, 1)), ([(2, 0)], (0, 1))]),
    # touching faults with different displacements, ordered by goal cell
    ([(0, 0), (1, 0)], [(0, 1), (2, 0)], [([(1, 0)], (1, 0)), ([(0, 0)], (0, 1))]),
])
def test_fault_groups_share_a_displacement_and_touch(faults, goals, groups):
    def rect(fault_cells):
        return rect32({Cell(*c): UNIT_FAULT for c in fault_cells})

    pipeline = _Pipeline(rect(faults), TargetConfiguration(rect(goals), 0.0), DEFAULT_PARAMS,
                         2.0, -0.1, True, 0.0)
    pipeline._form_groups()
    assert [(list(g.faults), g.delta) for g in pipeline.groups] == [
        ([Cell(*c) for c in cells], delta) for cells, delta in groups
    ]


# sha256 over the criterion-8 outcomes, one line per case: the plan
# document's sha256, or `type:reason` for a typed failure. Update a digest
# only together with a stated reason for the changed outcomes.
GOLDEN_FUZZ_DIGESTS = {
    True: "382becc79a69ae9ae7c60857929ced5957fe46dd5b36f60e4f028f7f97c95475",
    False: "32f039e440efaae3ab8666ae543fe088999e0c02e3f959f783c3eb38094ef542",
}


@pytest.mark.parametrize("rule", [True, False])
def test_fuzz_outcomes_match_golden_digests(rule):
    lines = []
    for config in criterion8_configs():
        try:
            result = plan(config, DEFAULT_PARAMS, relocation_rule=rule)
        except (InfeasibleTargetError, PlanningError) as exc:
            lines.append(f"{type(exc).__name__}:{getattr(exc, 'reason', 'infeasible-target')}")
        else:
            blob = document_to_bytes(plan_to_document(result, config))
            lines.append(hashlib.sha256(blob).hexdigest())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_FUZZ_DIGESTS[rule]


# sha256 over the outcomes of a 3-fault draw, in the line format of the
# criterion-8 digests above; keyed by (unit_only, relocation_rule). Faults may
# be rotor faults, which criterion 8 never draws. Update a digest only
# together with a reason for the changed outcomes stated in CHANGES.md.
GOLDEN_MULTI_FAULT_DIGESTS = {
    (True, True): "cdba07adb663f38c0157bad83967bd32f7989f645f1c9c70065e438f3ae31330",
    (True, False): "cdba07adb663f38c0157bad83967bd32f7989f645f1c9c70065e438f3ae31330",
    (False, True): "4eb6f714e4f654efb44e33601ed4ebf82990eaf95171f9413d52d1cc2063dfb8",
    (False, False): "ebaadae4b1f58a38b80cd276ef3002cd5318d090cdc94bfbaf15aa7f8eefd68b",
}


@pytest.mark.parametrize("unit_only, rule", list(GOLDEN_MULTI_FAULT_DIGESTS))
def test_multi_fault_outcomes_match_golden_digests(unit_only, rule):
    rng = np.random.default_rng(4242)
    lines = []
    for _ in range(40):
        n = int(rng.integers(4, 9))
        cells = random_connected_cells(rng, n)
        config = Configuration.from_cells(
            cells, random_fault_states(rng, cells, 3, unit_only=unit_only))
        try:
            result = plan(config, DEFAULT_PARAMS, relocation_rule=rule)
        except (InfeasibleTargetError, PlanningError) as exc:
            lines.append(f"{type(exc).__name__}:{getattr(exc, 'reason', 'infeasible-target')}")
        else:
            blob = document_to_bytes(plan_to_document(result, config))
            lines.append(hashlib.sha256(blob).hexdigest())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_MULTI_FAULT_DIGESTS[unit_only, rule]
