"""Support-shape search, fault placement optimization, and donor completion."""

import math
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import marsplan.controllability as controllability
import marsplan.paths as paths
import marsplan.vmcs as vmcs
from marsplan.controllability import (
    DEFAULT_PARAMS,
    PhysicalParams,
    clear_cm_cache,
    system_cm,
    yaw_authority_bound,
)
from marsplan.errors import VmcsSearchError
from marsplan.io import load_scenario
from marsplan.model import (
    UNIT_FAULT,
    Cell,
    Configuration,
    is_connected,
    rotor_fault,
)
from marsplan.paths import arena_around
from marsplan.vmcs import (
    best_first,
    enumerate_connected_shapes,
    identify_vmcs,
    optimal_configuration,
    plan_vmcs_completion,
    ranked_support_shapes,
    smallest_supports,
)

from helpers import (
    LIVE_DEAD_LIVE_CM,
    enumerate_shapes_brute_force,
    random_connected_cells,
    random_fault_states,
    ranked_donors,
    reference_enumerate_connected_shapes,
    reference_ranked_support_shapes,
    row_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- shape enumeration ----------------------------------------------------------


def test_single_anchor_small_counts():
    a = Cell(0, 0)
    assert enumerate_connected_shapes([a], 0) == [frozenset([a])]
    assert len(enumerate_connected_shapes([a], 1)) == 4
    assert len(enumerate_connected_shapes([a], 2)) == 18


@pytest.mark.parametrize(
    "anchors,k",
    [
        ([Cell(0, 0)], 2),
        ([Cell(0, 0)], 3),
        ([Cell(0, 0), Cell(1, 0)], 1),
        ([Cell(0, 0), Cell(1, 0)], 2),
        ([Cell(2, 1), Cell(2, 2)], 2),  # anchored away from the origin
    ],
)
def test_enumeration_matches_brute_force(anchors, k):
    got = set(enumerate_connected_shapes(anchors, k))
    assert got == enumerate_shapes_brute_force(anchors, k)


def test_disconnected_anchors_must_be_bridged():
    shapes = enumerate_connected_shapes([Cell(0, 0), Cell(2, 0)], 1)
    assert shapes == [frozenset([Cell(0, 0), Cell(1, 0), Cell(2, 0)])]


def test_enumerated_shapes_are_valid_and_sorted():
    anchors = [Cell(1, 1)]
    shapes = enumerate_connected_shapes(anchors, 3)
    keys = [tuple(sorted(s)) for s in shapes]
    assert keys == sorted(keys)
    assert len(set(shapes)) == len(shapes)
    for s in shapes:
        assert len(s) == 4
        assert Cell(1, 1) in s
        assert is_connected(s)


def test_enumeration_input_validation():
    with pytest.raises(ValueError):
        enumerate_connected_shapes([], 1)
    with pytest.raises(ValueError):
        enumerate_connected_shapes([Cell(0, 0)], -1)


def test_shapes_match_the_enumeration_reference():
    # Seeded anchors of 1-3 cells, connected or not, with k <= 4: the same
    # shapes in the same order as growing and then filtering every shape.
    rng = np.random.default_rng(27)
    bridged = 0
    for _ in range(24):
        n = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            anchor = random_connected_cells(rng, n)
        else:
            anchor = sorted({Cell(int(x), int(y)) for x, y in rng.integers(0, 3, size=(n, 2))})
        k = int(rng.integers(0, 5))
        shapes = enumerate_connected_shapes(anchor, k)
        assert shapes == reference_enumerate_connected_shapes(anchor, k)
        bridged += bool(shapes) and not is_connected(anchor)
    assert bridged


# -- ranked support shapes --------------------------------------------------------


def test_ranked_shapes_are_sorted_by_margin_then_shape():
    ranked = ranked_support_shapes({Cell(0, 0): UNIT_FAULT}, 2)
    assert len(ranked) == 18
    cms = [round(cm, 9) for _, cm in ranked]
    assert cms == sorted(cms, reverse=True)
    # The two straight trominoes with the fault in the middle tie for best;
    # the vertical one sorts first under the (y, x) shape order.
    assert ranked[0][0] == frozenset([Cell(0, -1), Cell(0, 0), Cell(0, 1)])
    assert ranked[1][0] == frozenset([Cell(-1, 0), Cell(0, 0), Cell(1, 0)])
    assert ranked[0][1] == pytest.approx(LIVE_DEAD_LIVE_CM, abs=1e-9)
    assert ranked[1][1] == pytest.approx(LIVE_DEAD_LIVE_CM, abs=1e-9)


def test_ranked_shapes_margins_match_direct_evaluation():
    faults = {Cell(0, 0): rotor_fault(2)}
    for shape, cm in ranked_support_shapes(faults, 1):
        cfg = Configuration.from_cells(sorted(shape), faults)
        assert cm == pytest.approx(system_cm(cfg), abs=1e-12)


def test_ranked_shapes_match_the_enumeration_reference():
    # Seeded groups of 1-3 unit or rotor faults, at floors -inf, 0 and the
    # median margin of the size, each from a cold cache: the reference's
    # shapes that reach the floor, in the same order as the two-key sort,
    # with the same bits of every margin.
    rng = np.random.default_rng(28)
    ties = dropped = 0
    for _ in range(10):
        cells = random_connected_cells(rng, int(rng.integers(1, 4)))
        faults = random_fault_states(rng, cells, len(cells))
        k = int(rng.integers(0, 4))
        clear_cm_cache()
        exact = ranked_support_shapes(faults, k)
        for floor in (-math.inf, 0.0, exact[len(exact) // 2][1]):
            clear_cm_cache()
            want = reference_ranked_support_shapes(faults, k, DEFAULT_PARAMS, floor)
            clear_cm_cache()
            got = ranked_support_shapes(faults, k, DEFAULT_PARAMS, floor)
            assert ([(shape, cm.hex()) for shape, cm in got]
                    == [(shape, cm.hex()) for shape, cm in want if cm >= floor])
            ties += len(got) - len({round(cm, 9) for _, cm in got})
            dropped += len(want) > len(got)
    assert ties and dropped


# -- identify_vmcs ------------------------------------------------------------------


def test_unit_fault_needs_two_helpers_with_fault_in_the_middle():
    spec = identify_vmcs({Cell(5, 5): UNIT_FAULT})
    assert spec.k == 2
    assert spec.cm == pytest.approx(LIVE_DEAD_LIVE_CM, abs=1e-9)
    # Canonical local coordinates: vertical tromino, fault in the middle.
    assert spec.footprint == (Cell(0, 0), Cell(0, 1), Cell(0, 2))
    assert spec.faulty == ((Cell(0, 1), UNIT_FAULT),)


def test_rotor_fault_needs_one_helper():
    spec = identify_vmcs({Cell(0, 0): rotor_fault(0)})
    assert spec.k == 1
    assert spec.cm == pytest.approx(0.001632930607, abs=1e-9)
    assert spec.footprint == (Cell(0, 0), Cell(1, 0))
    assert spec.faulty == ((Cell(0, 0), rotor_fault(0)),)


def test_complementary_rotor_fault_pair_is_already_controllable():
    faults = {Cell(0, 0): rotor_fault(0), Cell(1, 0): rotor_fault(3)}
    spec = identify_vmcs(faults)
    assert spec.k == 0
    assert spec.cm == pytest.approx(0.001069053, abs=1e-8)


def test_adjacent_dead_pair_needs_three_helpers():
    spec = identify_vmcs({Cell(0, 0): UNIT_FAULT, Cell(1, 0): UNIT_FAULT})
    assert spec.k == 3
    assert spec.cm == pytest.approx(0.001382375117, abs=1e-9)
    assert len(spec.footprint) == 5
    assert [c for c, _ in spec.faulty] == [Cell(0, 1), Cell(1, 1)]


def test_margin_floor_raises_the_required_size():
    spec = identify_vmcs({Cell(0, 0): UNIT_FAULT}, epsilon=0.0017)
    assert spec.k == 3
    assert spec.cm == pytest.approx(0.003265861213, abs=1e-9)
    assert spec.cm >= 0.0017


@pytest.mark.parametrize("faults,k", [
    ({Cell(0, 0): UNIT_FAULT}, 2),
    ({Cell(0, 0): UNIT_FAULT, Cell(1, 0): UNIT_FAULT}, 3),
])
def test_support_search_runs_no_projection(monkeypatch, faults, k):
    # Every shape below the floor is settled by a facet slack, so the
    # search never projects a hover wrench onto a wrench set.
    calls = []
    solve = controllability._bvls

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(controllability, "_bvls", counting)
    clear_cm_cache()
    assert identify_vmcs(faults, epsilon=0.0).k == k
    assert calls == []


def test_identify_vmcs_validation_and_budget():
    with pytest.raises(ValueError):
        identify_vmcs({Cell(0, 0): UNIT_FAULT, Cell(1, 0): Configuration.from_cells([Cell(9, 9)]).state(Cell(9, 9))})
    with pytest.raises(VmcsSearchError):
        identify_vmcs({Cell(0, 0): UNIT_FAULT}, max_normal_units=1)


def test_identify_vmcs_is_translation_invariant():
    here = identify_vmcs({Cell(0, 0): UNIT_FAULT})
    there = identify_vmcs({Cell(30, -7): UNIT_FAULT})
    assert here == there


def unpruned_supports(faults, params, max_normal_units, epsilon):
    """smallest_supports without its skip: every size is ranked until one
    reaches epsilon; None when none does."""
    for k in range(max_normal_units + 1):
        ranked = ranked_support_shapes(faults, k, params, epsilon)
        if ranked and ranked[0][1] >= epsilon:
            return k, ranked
    return None


def test_support_search_skips_only_sizes_that_cannot_reach_the_floor():
    # Seeded groups of one or two unit or rotor faults. Besides floors at
    # and below zero, each group is asked at floors within 1e-9 of the
    # yaw-authority bound U of every size, where a shape's margin can equal
    # U: the skip must never drop a size whose best shape reaches the floor.
    rng = np.random.default_rng(15)
    skipped = 0
    for _ in range(10):
        cells = random_connected_cells(rng, int(rng.integers(1, 3)))
        faults = random_fault_states(rng, cells, len(cells))
        bounds = [yaw_authority_bound(len(faults) + k, faults.values()) for k in range(4)]
        floors = [-0.01, 0.0] + [u + d for u in bounds if u > 0 for d in (-5e-10, 0.0, 5e-10)]
        for epsilon in floors:
            clear_cm_cache()
            want = unpruned_supports(faults, DEFAULT_PARAMS, 3, epsilon)
            clear_cm_cache()
            try:
                got = smallest_supports(faults, DEFAULT_PARAMS, 3, epsilon)
            except VmcsSearchError:
                got = None
            assert got == want, (faults, epsilon)
            skipped += sum(u < epsilon for u in bounds[:want[0] if want else 4])
    assert skipped


def test_support_search_keeps_a_size_whose_margin_snaps_to_zero():
    # A unit mass that makes the support column 1e-10 N heavier than its
    # full thrust: its yaw-authority bound is about -6e-13, but the kernel
    # reads a hover wrench that close to the set as 0.0, which reaches a
    # floor of 0. The skip keeps that size by its 1e-9 * S margin.
    params = PhysicalParams(unit_mass=(0.4 + 1e-10 / 3) / 9.81)
    faults = {Cell(0, 0): UNIT_FAULT}
    assert -1e-12 < yaw_authority_bound(3, faults.values(), params) < 0.0
    clear_cm_cache()
    want = unpruned_supports(faults, params, 3, 0.0)
    clear_cm_cache()
    assert smallest_supports(faults, params, 3, 0.0) == want
    assert want[0] == 2 and want[1][0][1] == 0.0


def test_support_search_asks_no_margin_below_the_yaw_bound(monkeypatch):
    # A unit fault with fewer than two helpers has fewer live rotors of one
    # spin than its weight needs, so k = 0 and k = 1 are skipped unranked.
    calls = _count_kernel_calls(monkeypatch)
    clear_cm_cache()
    k, ranked = smallest_supports({Cell(0, 0): UNIT_FAULT}, DEFAULT_PARAMS, 16, 0.0)
    assert k == 2 and ranked[0][1] == pytest.approx(LIVE_DEAD_LIVE_CM, abs=1e-12)
    assert calls and all(sub.n == 3 for sub, *_ in calls)


# -- optimal_configuration ------------------------------------------------------------


def placements(cells, states):
    """Exhaustive (cells->states) assignments for an independent optimum."""
    from itertools import combinations as comb, permutations as perm

    for combo in comb(cells, len(states)):
        for order in set(perm(states)):
            yield dict(zip(combo, order))


@pytest.mark.parametrize(
    "cells,faults",
    [
        ([Cell(x, 0) for x in range(3)], {Cell(2, 0): UNIT_FAULT}),
        ([Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1)],
         {Cell(0, 0): UNIT_FAULT, Cell(1, 1): rotor_fault(2)}),
        ([Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(1, 1)],
         {Cell(0, 0): rotor_fault(1)}),
    ],
)
def test_optimal_placement_matches_exhaustive_search(cells, faults):
    cfg = Configuration.from_cells(cells, faults)
    clear_cm_cache()
    result = optimal_configuration(cfg)
    states = [s for _, s in cfg.items() if s.is_faulty]
    best = max(
        system_cm(Configuration.from_cells(cells, pl))
        for pl in placements(sorted(cells), states)
    )
    assert result.cm == pytest.approx(best, abs=1e-9)
    assert result.config.cell_set == cfg.cell_set  # footprint never changes
    # the margin the search found is the exact one, from a cold or a warm cache
    assert optimal_configuration(cfg).cm == result.cm
    clear_cm_cache()
    assert result.cm == system_cm(result.config, DEFAULT_PARAMS)


def _state_order(state):
    return (state.kind.value, -1 if state.rotor_index is None else state.rotor_index)


def first_best_placement(cfg, params=DEFAULT_PARAMS):
    """The optimum by brute force: `system_cm` of every distinct placement as
    a whole configuration, in the documented tie order (faulty cells, then
    their states, smallest first); the first best rounded margin wins."""
    cells = sorted(cfg.cells)
    states = [s for _, s in cfg.items() if s.is_faulty]
    ordered = sorted(((combo, tuple(map(_state_order, order))),
                      dict(zip(combo, order)))
                     for combo in combinations(cells, len(states))
                     for order in set(permutations(states)))
    best = None
    for _, placement in ordered:
        candidate = Configuration.from_cells(cells, placement)
        cm = system_cm(candidate, params)
        if best is None or round(cm, 9) > round(best[1], 9):
            best = (candidate, cm)
    return best


def _check_first_best_placement(seed, n1, n2, nf, unit_only, params):
    # A start need not be connected: a second component, when drawn, stands
    # one free column right of the first, and faults fall in either.
    rng = np.random.default_rng(seed)
    cells = random_connected_cells(rng, n1)
    if n2:
        second = random_connected_cells(rng, n2)
        gap = max(c.x for c in cells) + 2 - min(c.x for c in second)
        cells += [c + (gap, 0) for c in second]
    cfg = Configuration.from_cells(
        cells, random_fault_states(rng, cells, min(nf, len(cells)), unit_only))
    clear_cm_cache()
    result = optimal_configuration(cfg, params)
    config, cm = first_best_placement(cfg, params)
    assert result.config == config
    assert result.cm == pytest.approx(cm, abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 4), st.integers(1, 2),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_optimal_placement_is_the_first_best_of_every_placement(seed, n1, n2, nf, unit_only):
    _check_first_best_placement(seed, n1, n2, nf, unit_only, DEFAULT_PARAMS)


@pytest.mark.parametrize("params", [PhysicalParams(spin=(1, 1, -1, -1)),
                                    PhysicalParams(yaw_torque_coeff=0.02)],
                         ids=["spin++--", "ctau0.02"])
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 5), n2=st.integers(0, 3),
       nf=st.integers(1, 3))
@example(seed=32, n1=3, n2=0, nf=2)
@settings(max_examples=25, deadline=None)
def test_optimal_placement_is_the_first_best_under_other_params(params, seed, n1, n2, nf):
    # The placement search skips candidates by a bound that counts the live
    # rotors of each spin, so which spin a rotor fault removes matters. The
    # example is an L of three with rotor faults 1 and 3: opposite spins
    # under (1, 1, -1, -1), one spin under the default layout.
    _check_first_best_placement(seed, n1, n2, nf, False, params)


def test_placement_search_splits_the_footprint_once(monkeypatch):
    # The footprint never changes, so its components are found once per
    # search; no candidate is partitioned as a whole configuration.
    calls = []
    for module, name in ((vmcs, "connected_components"), (controllability, "partition")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, name=name, original=original:
                            calls.append(name) or original(*args))
    split = Configuration.from_cells([Cell(0, 0), Cell(1, 0), Cell(3, 0), Cell(3, 1)],
                                     {Cell(3, 1): UNIT_FAULT, Cell(0, 0): rotor_fault(2)})
    configs = [load_scenario(path).config for path in sorted(SCENARIOS.glob("*.json"))]
    for cfg in [split, *configs]:
        calls.clear()
        optimal_configuration(cfg)
        assert calls == ["connected_components"]


def _count_kernel_calls(monkeypatch):
    calls = []
    original = controllability.subassembly_cm
    monkeypatch.setattr(controllability, "subassembly_cm",
                        lambda *args: calls.append(args) or original(*args))
    return calls


# From a cold cache, the kernel calls of each bundled scenario's placement
# search. Before candidates were skipped by their yaw-authority bound, the
# tied losers ran the kernel too: heart11 31, hollow3x3 2, icra_letters 16,
# rect3x2_2fault 6, rect3x2_fault3 2, rect3x3_fault8 3, triangle9_2fault 21.
PLACEMENT_KERNEL_CALLS = {"heart11": 4, "hollow3x3": 2, "icra_letters": 4, "rect3x2_2fault": 5,
                          "rect3x2_fault3": 2, "rect3x3_fault8": 2, "triangle9_2fault": 3}


def test_placement_search_kernel_calls_per_bundled_scenario(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    counts = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        clear_cm_cache()
        calls.clear()
        optimal_configuration(scenario.config, scenario.params)
        counts[path.stem] = len(calls)
    assert counts == PLACEMENT_KERNEL_CALLS


def test_placement_search_kernel_calls_on_a_5x5_block_with_three_unit_faults(monkeypatch):
    # 2300 candidates, all on one component, so one bound for all of them:
    # only the candidates that improve on the best so far reach the kernel.
    # Without the skip this search made 319 kernel calls, about 9 s.
    cells = [Cell(x, y) for y in range(5) for x in range(5)]
    cfg = Configuration.from_cells(cells, {c: UNIT_FAULT for c in (Cell(0, 0), Cell(2, 2), Cell(4, 4))})
    calls = _count_kernel_calls(monkeypatch)
    clear_cm_cache()
    result = optimal_configuration(cfg)
    assert len(calls) == 3
    assert result.config.faulty_cells == (Cell(0, 0), Cell(1, 0), Cell(4, 0))
    assert result.cm == pytest.approx(0.032111421999606, abs=1e-12)


def test_a_negative_bound_does_not_skip_a_margin_the_kernel_reads_as_zero():
    # An L of three with one rotor fault, a little heavier than its yaw
    # authority carries: every placement's bound is -4.268e-9. The first
    # placement lies that far outside its wrench set, just over the
    # kernel's tolerance there; the second lies within its own, slightly
    # larger, tolerance, so the kernel reads it as 0.0, above the bound.
    c_tau = DEFAULT_PARAMS.yaw_torque_coeff
    shortfall = 4.268e-9 * math.sqrt(1 + c_tau**2) / c_tau
    params = PhysicalParams(unit_mass=(10 * DEFAULT_PARAMS.rotor_thrust_max + shortfall) / 3 / 9.81)
    cells = [Cell(0, 0), Cell(1, 0), Cell(0, 1)]
    cfg = Configuration.from_cells(cells, {Cell(0, 1): rotor_fault(1)})
    margins = [system_cm(Configuration.from_cells(cells, {c: rotor_fault(1)}), params) for c in cells]
    assert margins[0] == pytest.approx(-4.268e-9, abs=1e-12) and margins[1] == 0.0
    clear_cm_cache()
    result = optimal_configuration(cfg, params)
    assert result.config == first_best_placement(cfg, params)[0]
    assert result.config.faulty_cells == (Cell(1, 0),) and result.cm == 0.0


def test_optimal_placement_pins():
    row = Configuration.from_cells([Cell(x, 0) for x in range(3)], {Cell(2, 0): UNIT_FAULT})
    tc = optimal_configuration(row)
    assert tc.config.faulty_cells == (Cell(1, 0),)
    assert tc.cm == pytest.approx(LIVE_DEAD_LIVE_CM, abs=1e-9)
    # Symmetric tie on a domino resolves to the first cell in (y, x) order.
    dom = Configuration.from_cells([Cell(0, 0), Cell(1, 0)], {Cell(1, 0): UNIT_FAULT})
    assert optimal_configuration(dom).config.faulty_cells == (Cell(0, 0),)


def test_optimal_placement_in_3x3_block_is_start_invariant():
    cells = [Cell(x, y) for y in range(3) for x in range(3)]
    results = [
        optimal_configuration(Configuration.from_cells(cells, {start: UNIT_FAULT}))
        for start in cells
    ]
    assert all(r.config == results[0].config for r in results)
    # Center and all four edge midpoints tie for the best margin; the
    # deterministic tie-break picks the (y, x)-smallest of them.
    assert results[0].config.faulty_cells == (Cell(1, 0),)
    assert results[0].cm == pytest.approx(0.011848106730, abs=1e-9)
    center = system_cm(Configuration.from_cells(cells, {Cell(1, 1): UNIT_FAULT}))
    assert results[0].cm == pytest.approx(center, abs=1e-12)


def test_optimal_configuration_of_fault_free_assembly_is_identity():
    cfg = Configuration.from_cells([Cell(0, 0), Cell(1, 0)])
    tc = optimal_configuration(cfg)
    assert tc.config == cfg and tc.cm == math.inf


# -- best_first -------------------------------------------------------------------------


def test_best_first_yields_a_full_sort_and_stages_only_leaders():
    # Seeded items, each with a random non-decreasing chain of keys (many
    # ties) and now and then a stage that drops it. Every stage checks that
    # it gets the value the last one returned.
    rng = np.random.default_rng(32)
    unstaged = 0
    for _ in range(300):
        n_stages = int(rng.integers(4))
        chains, drop_at = {}, {}
        for item in range(int(rng.integers(12))):
            chains[item] = [int(k) for k in np.cumsum(rng.integers(0, 3, n_stages + 1))]
            if n_stages and rng.random() < 0.3:
                drop_at[item] = int(rng.integers(n_stages))
        staged = []

        def stage(i):
            def run(item, value):
                assert value == (chains[item][i] if i else None)
                staged.append(item)
                return None if drop_at.get(item) == i else (chains[item][i + 1], chains[item][i + 1])
            return run

        stages = [stage(i) for i in range(n_stages)]
        entries = [(keys[0], item) for item, keys in chains.items()]
        kept = sorted((keys[-1], item) for item, keys in chains.items() if item not in drop_at)
        want = [(item, key if n_stages else None) for key, item in kept]
        assert list(best_first(entries, *stages)) == want
        staged.clear()
        first = next(best_first(entries, *stages), None)
        assert first == (want[0] if want else None)
        if first is not None and n_stages:
            # no item whose first key sorts after the winner's final key is staged
            assert all((chains[item][0], item) <= kept[0] for item in staged)
            unstaged += len(chains) - len(set(staged))
    assert unstaged


# -- donor ranking (plan_vmcs_completion) ---------------------------------------------


def test_donor_ranking_scores_detach_margin_against_target():
    # On the 6-row the two end donors reach the first vacancy at the same
    # path length; the one whose removal keeps the margin closer to the
    # target ranks first even though it is lexicographically later.
    cfg, vm, arena = row_scenario(6, 2)
    flights = list(plan_vmcs_completion(cfg, LIVE_DEAD_LIVE_CM, Cell(2, -1), DEFAULT_PARAMS,
                                        2.0, -0.1, arena=arena, epsilon=0.0))
    assert all(p.goal == Cell(2, -1) for p in flights)
    assert [(p.start, p.length) for p in flights[:2]] == [(Cell(4, 0), 3), (Cell(0, 0), 3)]


def test_donor_ranking_skips_reserved_cells():
    # Filling both vacancies with the top-ranked flight of each ranking,
    # with the end donor (0, 0) reserved.
    cfg, vm, arena = row_scenario(6, 2)
    reserved = frozenset([Cell(0, 0)])
    work, donors = cfg, []
    for vacancy in (Cell(2, -1), Cell(2, 1)):
        flights = list(plan_vmcs_completion(work, LIVE_DEAD_LIVE_CM, vacancy, DEFAULT_PARAMS,
                                            2.0, -0.1, reserved=reserved, arena=arena,
                                            epsilon=0.0))
        assert flights and all(p.start not in reserved for p in flights)
        donors.append(flights[0].start)
        donor = flights[0].start
        work = work.translate_set((donor,), (vacancy.x - donor.x, vacancy.y - donor.y))
    assert donors == [Cell(4, 0), Cell(5, 0)]
    assert Cell(0, 0) in work


def test_donor_ranking_skips_donors_that_break_the_support():
    # Every healthy unit in the 4-row is load-bearing for the dead end unit:
    # removing any of them drops some faulty subassembly below the floor.
    cfg, vm, arena = row_scenario(4, 0)
    assert list(plan_vmcs_completion(cfg, LIVE_DEAD_LIVE_CM, Cell(0, -1), DEFAULT_PARAMS,
                                     2.0, -0.1, arena=arena, epsilon=0.0)) == []


@pytest.mark.parametrize("c1,c2", [(c1, c2) for c1 in (0.0, 2.0, -1.0) for c2 in (-0.1, 0.2)])
def test_donor_ranking_matches_a_full_sort_of_every_donor(c1, c2):
    # Seeded faulty assemblies, a free arena cell as the vacancy and now and
    # then a reserved healthy unit. The best-first ranking must yield the
    # flights of a ranking that scores every donor, in the same order.
    rng = np.random.default_rng(22)
    dropped = 0
    for _ in range(25):
        cells = random_connected_cells(rng, int(rng.integers(4, 10)))
        faults = random_fault_states(rng, cells, int(rng.integers(1, 3)))
        cfg = Configuration.from_cells(cells, faults)
        arena = arena_around(cells)
        free = [c for c in arena.cells() if c not in cfg]
        vacancy = free[int(rng.integers(len(free)))]
        healthy = [c for c in cells if c not in faults]
        reserved = frozenset(healthy[:int(rng.integers(2))])
        target_cm = optimal_configuration(cfg).cm
        flights = list(plan_vmcs_completion(cfg, target_cm, vacancy, DEFAULT_PARAMS, c1, c2,
                                            reserved=reserved, arena=arena, epsilon=0.0))
        want = ranked_donors(cfg, target_cm, vacancy, DEFAULT_PARAMS, c1, c2, reserved, arena, 0.0)
        assert all(p.goal == vacancy for p in flights)
        assert [(p.start, p.length) for p in flights] == want
        dropped += len(healthy) - len(reserved) - len(want)
    assert dropped


def test_the_first_donor_flight_skips_the_margins_of_donors_ranked_below(monkeypatch):
    # On the 8-row the fault's two neighbours lead at path length 2. (3, 0)
    # is load-bearing and dropped; the exact rank of (1, 0) beats the bound
    # of every donor at length 3 or more, so those five are never scored.
    cfg, vm, arena = row_scenario(8, 2)
    calls = []
    original = vmcs.system_cm
    monkeypatch.setattr(vmcs, "system_cm", lambda *args: calls.append(args) or original(*args))
    flights = plan_vmcs_completion(cfg, LIVE_DEAD_LIVE_CM, Cell(2, -1), DEFAULT_PARAMS,
                                   2.0, -0.1, arena=arena, epsilon=0.0)
    first = next(flights)
    want = ranked_donors(cfg, LIVE_DEAD_LIVE_CM, Cell(2, -1), DEFAULT_PARAMS, 2.0, -0.1,
                         frozenset(), arena, 0.0)
    assert (first.start, first.length) == want[0] == (Cell(1, 0), 2)
    eligible = [c for c in cfg.cells if not cfg.state(c).is_faulty]
    assert len(calls) == 2 < len(eligible) == 7


def test_the_first_donor_flight_routes_fewer_donors_than_are_eligible(monkeypatch):
    # With c1 >= 0 and c2 <= 0 a donor is routed only when its Manhattan
    # bound leads: on the 8-row only the fault's two neighbours are.
    cfg, vm, arena = row_scenario(8, 2)
    routed = []
    original = paths.astar_unit
    monkeypatch.setattr(paths, "astar_unit", lambda *args: routed.append(args[0]) or original(*args))
    first = next(plan_vmcs_completion(cfg, LIVE_DEAD_LIVE_CM, Cell(2, -1), DEFAULT_PARAMS,
                                      2.0, -0.1, arena=arena, epsilon=0.0))
    assert first.start == Cell(1, 0)
    eligible = [c for c in cfg.cells if not cfg.state(c).is_faulty]
    assert sorted(routed) == [Cell(1, 0), Cell(3, 0)]
    assert len(routed) < len(eligible) == 7


# -- properties -------------------------------------------------------------------------


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=16, deadline=None)
def test_identified_support_margin_is_the_best_at_its_size(dx, dy):
    fault = Cell(dx, dy)
    spec = identify_vmcs({fault: UNIT_FAULT})
    ranked = ranked_support_shapes({fault: UNIT_FAULT}, spec.k)
    assert spec.cm == pytest.approx(ranked[0][1], abs=1e-12)
    for j in range(spec.k):
        best_smaller = ranked_support_shapes({fault: UNIT_FAULT}, j)
        assert all(cm < 0 for _, cm in best_smaller[:1])
