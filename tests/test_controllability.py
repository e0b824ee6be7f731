"""Wrench-set construction and controllability margins.

The pinned margin constants below were frozen after cross-checking the exact
facet-enumeration values against an independent 10^5-direction sampling
estimator (see helpers.sampling_cm); the two agree to well under 0.1% on
every case in the table.
"""

import math
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

import marsplan.controllability as controllability
import marsplan.paths as paths
import marsplan.planner as planner
from marsplan.controllability import (
    DEFAULT_PARAMS,
    PhysicalParams,
    WrenchZonotope,
    build_zonotope,
    cached_subassembly_cm,
    clear_cm_cache,
    cm_signed_distance,
    facet_normal_candidates,
    gravity_wrench,
    margin_ceiling,
    quick_cm_upper,
    subassembly_cm,
    system_cm,
    yaw_authority_bound,
)
from marsplan.io import load_scenario
from marsplan.model import (
    HEALTHY,
    UNIT_FAULT,
    Cell,
    Configuration,
    FaultKind,
    Subassembly,
    partition,
    rotor_fault,
)
from marsplan.planner import plan

from helpers import (
    GRID_MOTIONS,
    MIRROR,
    QUARTER_TURN,
    grid_image,
    random_connected_cells,
    random_fault_states,
    random_faulty_subassembly,
    reference_cm_signed_distance,
    reference_facet_normals,
    reference_zonotope,
    sampling_cm,
    support,
)

ORACLE_REL_TOL = 0.02
ORACLE_ABS_TOL = 1e-4


def sub_of(cells, faults=None):
    parts = partition(Configuration.from_cells(cells, faults or {}))
    assert len(parts) == 1
    return parts[0]


ROW3 = [Cell(0, 0), Cell(1, 0), Cell(2, 0)]

# (cells, faults, frozen margin, live generator count)
PINNED = {
    "healthy_singleton": ([Cell(0, 0)], {}, 0.001660780117, 4),
    "rotor_singleton": ([Cell(0, 0)], {Cell(0, 0): rotor_fault(0)}, -0.001831739832, 3),
    "dead_singleton": ([Cell(0, 0)], {Cell(0, 0): UNIT_FAULT}, -0.31392, 0),
    "dead_pair": (
        [Cell(0, 0), Cell(1, 0)],
        {Cell(0, 0): UNIT_FAULT, Cell(1, 0): UNIT_FAULT},
        -0.62784,
        0,
    ),
    "unit_fault_plus_one": (
        [Cell(0, 0), Cell(1, 0)], {Cell(0, 0): UNIT_FAULT}, -0.052915646080, 4,
    ),
    "rotor_plus_one": (
        [Cell(0, 0), Cell(1, 0)], {Cell(0, 0): rotor_fault(1)}, 0.001069053347, 7,
    ),
    "live_dead_live_row": (ROW3, {Cell(1, 0): UNIT_FAULT}, 0.001549412110, 8),
    "dead_end_row": (ROW3, {Cell(0, 0): UNIT_FAULT}, -0.042174613552, 8),
}


# -- parameters ---------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(unit_mass=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(gravity=-9.81)
    with pytest.raises(ValueError):
        PhysicalParams(gravity=math.nan)
    with pytest.raises(ValueError):
        PhysicalParams(rotor_thrust_max=math.inf)
    with pytest.raises(ValueError):
        PhysicalParams(arm_offset=0.075, module_pitch=0.15)  # rotors would touch
    with pytest.raises(ValueError):
        PhysicalParams(spin=(1, 1, 1, -1))


def test_params_are_hashable_value_objects():
    assert hash(PhysicalParams()) == hash(DEFAULT_PARAMS)
    assert PhysicalParams(unit_mass=0.05) != DEFAULT_PARAMS
    listed = PhysicalParams(spin=[1, -1, 1, -1])
    assert listed == DEFAULT_PARAMS and hash(listed) == hash(DEFAULT_PARAMS)


def test_gravity_wrench_counts_every_unit_mass():
    g = gravity_wrench(3)
    assert g.shape == (4,)
    assert g[0] == pytest.approx(3 * 0.032 * 9.81, abs=1e-15)
    assert np.all(g[1:] == 0.0)


# -- zonotope construction ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(PINNED))
def test_live_rotor_generator_counts(name):
    cells, faults, _, m_expected = PINNED[name]
    zono = build_zonotope(sub_of(cells, faults))
    assert zono.m == m_expected
    assert zono.generators.shape == (m_expected, 4)
    # Box [0, f_max]^m recentred: the midpoint thrust of every live rotor.
    assert zono.center == pytest.approx(zono.generators.sum(axis=0), abs=1e-15)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_thrust_axis_support_is_total_live_budget(name):
    cells, faults, _, m_expected = PINNED[name]
    zono = build_zonotope(sub_of(cells, faults))
    up = np.array([1.0, 0.0, 0.0, 0.0])
    budget = m_expected * DEFAULT_PARAMS.rotor_thrust_max
    assert float(support(zono, up)[0]) == pytest.approx(budget, abs=1e-12)
    assert float(support(zono, -up)[0]) == pytest.approx(0.0, abs=1e-12)


SPIN_LAYOUTS = sorted(set(permutations((1, 1, -1, -1))))


def spin_id(spin):
    return "".join("+" if v > 0 else "-" for v in spin)


def test_zonotope_matches_the_per_rotor_reference_bit_for_bit():
    rng = np.random.default_rng(14)
    subs = [
        sub_of([Cell(0, 0), Cell(1, 0)], {Cell(0, 0): UNIT_FAULT, Cell(1, 0): UNIT_FAULT}),  # m = 0
        sub_of([Cell(3, -2)], {Cell(3, -2): rotor_fault(2)}),                              # m = 3
    ]
    subs += [random_faulty_subassembly(rng, int(rng.integers(1, 13)), int(rng.integers(0, 4)))
             for _ in range(40)]
    sizes = [(0.15, 0.0325), (0.2, 0.045), (0.137, 0.031)]   # (module_pitch, arm_offset)
    for k, sub in enumerate(subs):
        for spin in SPIN_LAYOUTS:
            pitch, arm = sizes[k % len(sizes)]
            params = PhysicalParams(module_pitch=pitch, arm_offset=arm, spin=spin)
            got, ref = build_zonotope(sub, params), reference_zonotope(sub, params)
            for a, b in ((got.generators, ref.generators), (got.center, ref.center)):
                assert np.array_equal(a, b)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()  # signs of zero too
    assert {build_zonotope(sub).m for sub in subs[:2]} == {0, 3}
    # read as (y, x), these plain tuples would be the row at y = 0; the
    # Subassembly refuses them, so neither function can be handed one
    with pytest.raises(TypeError):
        Subassembly((((0, 1), UNIT_FAULT), ((0, 2), HEALTHY)))


def test_support_is_exact_for_the_sign_vertex_and_bounds_samples():
    rng = np.random.default_rng(3)
    sub = random_faulty_subassembly(rng, 5, 2)
    zono = build_zonotope(sub)
    dirs = rng.normal(size=(64, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    sup = support(zono, dirs)
    # Vertex achieving the support: coefficients sign(G d).
    for d, h in zip(dirs, sup):
        lam = np.sign(zono.generators @ d)
        vertex = zono.center + lam @ zono.generators
        assert float(d @ vertex) == pytest.approx(h, abs=1e-12)
    # Random interior points never exceed it.
    lam = rng.uniform(-1.0, 1.0, size=(2000, zono.m))
    points = zono.center + lam @ zono.generators
    assert np.all(points @ dirs.T <= sup[None, :] + 1e-12)


def test_facet_normal_candidates_cover_the_canonical_normals():
    zono = build_zonotope(sub_of(*PINNED["live_dead_live_row"][:2]))
    normals = facet_normal_candidates(zono.generators)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)
    # Each candidate is spanned by a generator triple, so it is orthogonal to
    # at least three generators.
    rows = zono.generators / np.linalg.norm(zono.generators, axis=1, keepdims=True)
    assert np.all((np.abs(normals @ rows.T) <= 1e-9).sum(axis=1) >= 3)
    # Up to sign, every normal of the canonical deduplicated set is present.
    canonical = reference_facet_normals(zono.generators)
    assert len(canonical) >= 4
    for eta in canonical:
        gap = np.minimum(np.abs(normals - eta).max(axis=1), np.abs(normals + eta).max(axis=1))
        assert gap.min() <= 1e-9


def test_facet_normal_candidates_of_generic_rows_are_one_per_triple():
    # Rows in general position, unlike the symmetric wrench sets above, whose
    # mirror images can hide a wrong sign in the cross product.
    rows = np.random.default_rng(5).normal(size=(7, 4))
    normals = facet_normal_candidates(rows)
    assert len(normals) == math.comb(7, 3)
    units = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    assert np.all((np.abs(normals @ units.T) <= 1e-12).sum(axis=1) == 3)


def test_fewer_than_three_generators_yield_no_normals():
    assert facet_normal_candidates(np.zeros((0, 4))).shape == (0, 4)
    assert facet_normal_candidates(np.eye(4)[:2]).shape == (0, 4)


# -- margins ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_margins(name):
    cells, faults, expected, _ = PINNED[name]
    assert subassembly_cm(sub_of(cells, faults)) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_margins_match_sampling_estimator(name):
    cells, faults, _, _ = PINNED[name]
    sub = sub_of(cells, faults)
    exact = subassembly_cm(sub)
    est = sampling_cm(sub, DEFAULT_PARAMS, total=100_000, seed=99)
    assert abs(exact - est) <= max(ORACLE_REL_TOL * abs(exact), ORACLE_ABS_TOL)
    if abs(exact) > 1e-9:
        assert (exact > 0) == (est > 0)


def _block(width, height, faults):
    cells = [Cell(x, y) for y in range(height) for x in range(width)]
    return sub_of(cells, {Cell(*xy): state for xy, state in faults.items()})


def _zonotope_case(generators, shift):
    generators = 0.075 * np.asarray(generators, dtype=float)
    center = generators.sum(axis=0)
    return WrenchZonotope(center=center, generators=generators), center + shift


_E = np.eye(4)
_INSIDE = np.array([0.01, 0.002, -0.001, 0.0005])
_OUTSIDE = np.array([0.5, 0.0, 0.0, 0.0])

# Solid blocks with 0-2 unit or rotor faults: m = 28..120 generators, so the
# batched kernel runs at the sizes the planner reaches.
KERNEL_BLOCKS = {
    "3x3": (3, 3, {}),
    "3x3-u": (3, 3, {(1, 1): UNIT_FAULT}),
    "3x3-uu": (3, 3, {(0, 0): UNIT_FAULT, (2, 1): UNIT_FAULT}),
    "3x3-ur": (3, 3, {(1, 0): UNIT_FAULT, (2, 2): rotor_fault(3)}),
    "4x3-r": (4, 3, {(0, 0): rotor_fault(2)}),
    "4x3-uu": (4, 3, {(1, 1): UNIT_FAULT, (3, 2): UNIT_FAULT}),
    "6x5": (6, 5, {}),
    "6x5-ur": (6, 5, {(2, 2): UNIT_FAULT, (5, 0): rotor_fault(0)}),
}

# Generator sets of rank below 4, which end at the projection whatever
# their rows are.
KERNEL_EDGES = {
    "m2": ([_E[0], _E[1]], _INSIDE),
    "coplanar-only": ([_E[0], _E[1], _E[0] - _E[1]], _INSIDE),
    # rank 3 with the hover wrench in the set's hyperplane: inside the flat
    # set it lies on the boundary (0.0), outside it 0.35 from the set
    "flat-inside": ([_E[0], _E[1], _E[2], _E[0] + _E[1] + _E[2]], _INSIDE * [1, 1, 1, 0]),
    "flat-outside": ([_E[0], _E[1], _E[2], _E[0] + _E[1] + _E[2]], _OUTSIDE),
}

# Generator sets of rank 4 whose rows are not rotor rows lam * (1, u, +-c).
NON_ROTOR_SETS = {
    "zero-generator": ([_E[0], _E[1], np.zeros(4), _E[2], _E[3], _E.sum(axis=0)], _INSIDE),
    "zero-generator-outside": ([_E[0], np.zeros(4), _E[1], _E[2], _E[3]], _OUTSIDE),
    "coplanar-triple": ([_E[0], _E[1], _E[0] + _E[1], _E[2], _E[3]], _INSIDE),
    "gaussian": (np.random.default_rng(33).normal(size=(14, 4)), _INSIDE),
    "one-yaw-sign": (np.abs(np.random.default_rng(19).normal(size=(10, 4))), _INSIDE),
}


@pytest.mark.parametrize("name", sorted(PINNED) + sorted(KERNEL_BLOCKS) + sorted(KERNEL_EDGES))
def test_kernel_matches_the_all_triples_reference(name):
    if name in KERNEL_EDGES:
        zono, g = _zonotope_case(*KERNEL_EDGES[name])
    else:
        sub = sub_of(*PINNED[name][:2]) if name in PINNED else _block(*KERNEL_BLOCKS[name])
        zono, g = build_zonotope(sub), gravity_wrench(sub.n)
    assert cm_signed_distance(zono, g) == pytest.approx(
        reference_cm_signed_distance(zono, g), abs=1e-9)


@pytest.mark.parametrize("name", sorted(NON_ROTOR_SETS))
def test_layer_pass_rejects_a_rank_4_set_of_other_rows(name):
    zono, g = _zonotope_case(*NON_ROTOR_SETS[name])
    assert np.linalg.matrix_rank(zono.generators) == 4
    with pytest.raises(ValueError, match="rotor wrench sets"):
        cm_signed_distance(zono, g)


def test_flat_wrench_sets_read_zero_inside_and_minus_the_distance_outside():
    # Every triple of a rank-3 set has the same normal, whose slack is 0
    # inside and outside alike; only the projection tells them apart.
    inside, outside = (_zonotope_case(*KERNEL_EDGES[name]) for name in ("flat-inside", "flat-outside"))
    assert np.linalg.matrix_rank(inside[0].generators) == np.linalg.matrix_rank(outside[0].generators) == 3
    assert cm_signed_distance(*inside) == 0.0
    assert cm_signed_distance(*outside) == pytest.approx(-0.35, abs=1e-12)


@pytest.mark.parametrize("spin", SPIN_LAYOUTS, ids=spin_id)
@pytest.mark.parametrize("name", sorted(KERNEL_BLOCKS))
def test_the_kernel_enumerates_only_cross_layer_triples(name, spin):
    # Each spin layer lies in the hyperplane of its yaw normal, which stands
    # for every triple inside the layer; the layer pass pairs two rows of
    # one layer with each row of the other and nothing else. Pairing a layer
    # of k rows with itself would add C(k, 2) * (k - 2) triples.
    zono = build_zonotope(_block(*KERNEL_BLOCKS[name]), PhysicalParams(spin=spin))
    up = controllability._rotor_layers(zono.generators)
    assert np.array_equal(up, zono.generators[:, 3] > 0.0)
    layers = {1.0: np.flatnonzero(up), -1.0: np.flatnonzero(~up)}
    k_up, k_down, plan = controllability._layer_plan(up.tobytes())
    assert (k_up, k_down) == (len(layers[1.0]), len(layers[-1.0]))
    signs, j, l, columns = plan[:4]
    width = max(k_up, k_down)
    assert sorted(signs.ravel()) == [-1.0, 1.0]
    for sign, side_j, side_l, side_columns in zip(signs.ravel(), j, l, columns):
        own, other = layers[sign], layers[-sign]
        count = math.comb(len(own), 2)
        # the pairs past the first C(k_own, 2) repeat them
        assert list(zip(side_j[:count], side_l[:count])) == list(combinations(own, 2))
        assert set(zip(side_j, side_l)) == set(combinations(own, 2))
        # other-layer rows, own-layer rows, each padded by the NaN row m + 1
        padded = np.full(width, zono.m + 1)
        assert np.array_equal(side_columns[:width], np.concatenate((other, padded[len(other):])))
        assert np.array_equal(side_columns[width:-1], np.concatenate((own, padded[len(own):])))
        assert side_columns[-1] == zono.m


def test_kernel_peak_allocation_stays_within_one_triple_chunk():
    # The all-triples loop held C(m - 1, 2) * (m + 1) floats of slack terms
    # for its first row; batching the cross-layer triples stays below that.
    zono = build_zonotope(_block(6, 5, {}))
    g = gravity_wrench(30)
    m = zono.m
    cm_signed_distance(zono, g)          # fill the index caches first
    tracemalloc.start()
    try:
        cm_signed_distance(zono, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == 120
    assert peak <= math.comb(m - 1, 2) * (m + 1) * 8


def _kernel_slacks(zono, g):
    """The least slack of the layer pass's batches."""
    up = controllability._rotor_layers(zono.generators)
    return min(controllability._layer_slacks(zono.generators, zono.center - g, up), default=math.inf)


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(0, 3),
       st.sampled_from(SPIN_LAYOUTS), st.sampled_from((0.006, 0.02, 0.1)),
       st.sampled_from((0.0325, 0.05)))
@settings(max_examples=80, deadline=None)
def test_layer_pass_matches_the_reference(seed, n, nf, spin, c_tau, arm):
    params = PhysicalParams(spin=spin, yaw_torque_coeff=c_tau, arm_offset=arm)
    sub = random_faulty_subassembly(np.random.default_rng(seed), n, nf)
    zono, g = build_zonotope(sub, params), gravity_wrench(sub.n, params)
    exact = cm_signed_distance(zono, g)
    assert exact == pytest.approx(reference_cm_signed_distance(zono, g), abs=1e-9)
    if zono.m:
        assert np.array_equal(controllability._rotor_layers(zono.generators), zono.generators[:, 3] > 0.0)
    for floor in (-1e-6, 0.0, 1e-6):
        _honours_floor(cm_signed_distance(zono, g, floor), exact, floor)


def test_layer_pass_takes_every_rotor_wrench_set_and_only_those(monkeypatch):
    # Other sets of rank 4 raise (test_layer_pass_rejects_a_rank_4_set_of_other_rows).
    passes = []
    layer_slacks = controllability._layer_slacks

    def counting(*args):
        passes.append(len(args[0]))
        return layer_slacks(*args)
    monkeypatch.setattr(controllability, "_layer_slacks", counting)
    for name in sorted(PINNED) + sorted(KERNEL_BLOCKS):
        sub = sub_of(*PINNED[name][:2]) if name in PINNED else _block(*KERNEL_BLOCKS[name])
        cm_signed_distance(build_zonotope(sub), gravity_wrench(sub.n))
    # the dead sets and the three-rotor singleton end at the rank check
    assert len(passes) == len(PINNED) + len(KERNEL_BLOCKS) - 3
    passes.clear()
    for name in sorted(KERNEL_EDGES):
        cm_signed_distance(*_zonotope_case(*KERNEL_EDGES[name]))
    # rank below 4: the projection alone
    assert passes == []


def test_every_rank_4_rotor_set_has_both_layers_and_a_plan(monkeypatch):
    # One layer lies in the hyperplane of its yaw normal (rank <= 3), so a
    # set that passes the rank-4 test has rows in both layers, one of them
    # with a pair, and the layer pass always has a side to run.
    masks = []
    layer_slacks = controllability._layer_slacks

    def recording(generators, d, up):
        masks.append(up)
        return layer_slacks(generators, d, up)
    monkeypatch.setattr(controllability, "_layer_slacks", recording)
    rng = np.random.default_rng(28)
    skipped = 0
    for _ in range(300):
        n = int(rng.integers(1, 13))
        cells = random_connected_cells(rng, n)
        faults = random_fault_states(rng, cells, int(rng.integers(0, n + 1)))
        sub = partition(Configuration.from_cells(cells, faults))[0]
        before = len(masks)
        cm_signed_distance(build_zonotope(sub), gravity_wrench(sub.n))
        skipped += len(masks) == before
    assert skipped and len(masks) > 200
    for up in masks:
        assert up.any() and not up.all()
        k_up, k_down, plan = controllability._layer_plan(up.tobytes())
        signs = plan[0].ravel()
        assert len(signs) == (k_up >= 2) + (k_down >= 2) >= 1


def test_layer_pass_skips_a_pair_at_one_position():
    # A repeated rotor row passes the layout test; the pair of the row and
    # its copy spans no facet, and every facet through the row is still
    # found through its other pairs.
    sub = _block(2, 2, {(0, 0): rotor_fault(1)})
    zono = build_zonotope(sub)
    twin = np.vstack((zono.generators, zono.generators[4]))
    zono = WrenchZonotope(center=twin.sum(axis=0), generators=twin)
    g = gravity_wrench(sub.n) + [0.02, 0.0, 0.0, 0.0]
    reference = reference_cm_signed_distance(zono, g)
    assert cm_signed_distance(zono, g) == pytest.approx(reference, abs=1e-9)
    # inside, the pair's NaN slacks do not reach the least slack, which is
    # the least over all triples
    assert reference > 0.0
    normals = facet_normal_candidates(zono.generators)
    slack = np.abs(normals @ zono.generators.T).sum(axis=1) - np.abs(normals @ (zono.center - g))
    assert abs(_kernel_slacks(zono, g) - slack.min()) <= 1e-12 * (zono.scale() + float(np.linalg.norm(g)) + 1.0)


def test_all_dead_margin_is_exactly_minus_weight():
    for n in (1, 2, 3):
        cells = [Cell(i, 0) for i in range(n)]
        sub = sub_of(cells, {c: UNIT_FAULT for c in cells})
        weight = n * DEFAULT_PARAMS.unit_mass * DEFAULT_PARAMS.gravity
        assert subassembly_cm(sub) == pytest.approx(-weight, abs=1e-12)


def test_rank_deficient_wrench_set_has_negative_margin():
    # Three live rotors cannot span all four wrench axes.
    sub = sub_of([Cell(0, 0)], {Cell(0, 0): rotor_fault(2)})
    zono = build_zonotope(sub)
    assert zono.m == 3
    assert subassembly_cm(sub) < 0


def test_exterior_margin_is_bounded_by_direction_separation():
    # For any unit direction d, d.g - h(d) is a lower bound on the distance
    # from g to the set, so -cm must dominate every sampled separation.
    sub = sub_of(*PINNED["unit_fault_plus_one"][:2])
    zono = build_zonotope(sub)
    g = gravity_wrench(sub.n)
    cm = cm_signed_distance(zono, g)
    assert cm < 0
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(5000, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    separations = dirs @ g - support(zono, dirs)
    assert -cm >= float(separations.max()) - 1e-12


def test_interior_margin_is_min_facet_margin():
    sub = sub_of(*PINNED["live_dead_live_row"][:2])
    zono = build_zonotope(sub)
    g = gravity_wrench(sub.n)
    cm = cm_signed_distance(zono, g)
    assert cm > 0
    normals = facet_normal_candidates(zono.generators)
    habs = np.abs(normals @ zono.generators.T).sum(axis=1)
    margins = np.minimum(
        normals @ zono.center + habs - normals @ g,
        -(normals @ zono.center) + habs + normals @ g,
    )
    assert cm == pytest.approx(float(margins.min()), abs=1e-12)


def test_margin_is_translation_invariant():
    cells, faults, expected, _ = PINNED["live_dead_live_row"]
    moved = [c + (7, -3) for c in cells]
    moved_faults = {c + (7, -3): s for c, s in faults.items()}
    assert subassembly_cm(sub_of(moved, moved_faults)) == pytest.approx(expected, rel=1e-9)


# A row, an L and a block, each with a unit fault and a rotor fault.
TRANSLATED = {
    "row": ([Cell(x, 0) for x in range(4)], {Cell(1, 0): UNIT_FAULT, Cell(3, 0): rotor_fault(2)}),
    "L": ([Cell(0, 0), Cell(1, 0), Cell(2, 0), Cell(0, 1), Cell(0, 2)],
          {Cell(0, 0): UNIT_FAULT, Cell(0, 2): rotor_fault(1)}),
    "block": ([Cell(x, y) for y in range(3) for x in range(3)],
              {Cell(1, 1): UNIT_FAULT, Cell(2, 0): rotor_fault(3)}),
}


@pytest.mark.parametrize("name", sorted(TRANSLATED))
def test_translates_get_bit_identical_wrench_sets_and_margins(name):
    # The wrench set is built in the footprint's min-corner frame, the frame
    # of the margin cache's translation key, so a translate reads the same
    # bits near the origin and far from it.
    cells, faults = TRANSLATED[name]
    base = sub_of(cells, faults)
    zono, cm = build_zonotope(base), subassembly_cm(base)
    for offset in (7, 10**6, 10**30):
        moved = sub_of([c + (offset, -offset) for c in cells],
                       {c + (offset, -offset): s for c, s in faults.items()})
        got = build_zonotope(moved)
        for a, b in ((got.generators, zono.generators), (got.center, zono.center)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert subassembly_cm(moved) == cm


def test_cached_margin_matches_direct_and_survives_cache_clear():
    sub = sub_of(*PINNED["rotor_plus_one"][:2])
    clear_cm_cache()
    first = cached_subassembly_cm(sub)
    assert first == subassembly_cm(sub)
    moved = sub_of(
        [c + (3, 9) for c in PINNED["rotor_plus_one"][0]],
        {c + (3, 9): s for c, s in PINNED["rotor_plus_one"][1].items()},
    )
    assert cached_subassembly_cm(moved) == first  # canonical-form cache hit
    turned = grid_image(sub, QUARTER_TURN, (4, -2))
    assert cached_subassembly_cm(turned) == first  # symmetric-key cache hit
    assert subassembly_cm(turned) == pytest.approx(first, abs=1e-12)
    clear_cm_cache()
    assert cached_subassembly_cm(sub) == pytest.approx(first, abs=1e-15)


def _count_evaluations(monkeypatch):
    floors = []

    def counting(*args):
        floors.append(args[-1])
        return subassembly_cm(*args)

    monkeypatch.setattr(controllability, "subassembly_cm", counting)
    clear_cm_cache()
    return floors


def test_floor_query_caches_a_bound_that_exact_queries_replace(monkeypatch):
    sub = sub_of(*PINNED["unit_fault_plus_one"][:2])
    exact = subassembly_cm(sub)
    floors = _count_evaluations(monkeypatch)
    bound = cached_subassembly_cm(sub, floor=0.0)
    assert exact < bound < 0.0  # a facet slack, not the projection
    assert cached_subassembly_cm(sub, floor=0.001) == bound
    # within 1e-9 above the bound, its rounded value could tie a margin
    # at the floor, so the query recomputes
    assert cached_subassembly_cm(sub, floor=bound + 5e-10) == exact
    assert cached_subassembly_cm(sub, floor=0.0) == exact
    assert floors == [0.0, bound + 5e-10]
    clear_cm_cache()
    assert cached_subassembly_cm(sub, floor=0.0) == bound
    assert cached_subassembly_cm(sub) == exact
    assert floors[2:] == [0.0, -math.inf]


def test_a_bound_cached_for_one_image_answers_its_mirror_image(monkeypatch):
    sub = sub_of(*PINNED["unit_fault_plus_one"][:2])
    mirrored = grid_image(sub, MIRROR)
    assert mirrored.canonical() != sub.canonical()
    exact = subassembly_cm(mirrored)
    floors = _count_evaluations(monkeypatch)
    bound = cached_subassembly_cm(sub, floor=0.0)
    assert exact < bound < 0.0
    assert cached_subassembly_cm(mirrored, floor=0.0) == bound
    assert cached_subassembly_cm(mirrored, floor=0.001) == bound
    assert floors == [0.0]
    # the exact query recomputes once, on the mirrored image, and its value
    # then answers the first image under either key
    assert cached_subassembly_cm(mirrored) == exact
    assert floors == [0.0, -math.inf]
    assert cached_subassembly_cm(sub) == exact
    assert cached_subassembly_cm(sub, floor=0.0) == exact
    assert floors == [0.0, -math.inf]


CONGRUENCE_LAYOUTS = ((1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


@pytest.mark.parametrize("spin", CONGRUENCE_LAYOUTS, ids=spin_id)
def test_congruent_images_get_their_own_margins_under_every_spin_layout(spin):
    # Which grid motions keep the margin depends on the spin layout: a
    # quarter turn does under the alternating layout only. However the
    # cache shares values between images, each must get its direct margin,
    # and so must the copies whose rotor faults keep their slots.
    params = PhysicalParams(spin=spin)
    rng = np.random.default_rng(31)
    kinds = set()
    for _ in range(25):
        sub = random_faulty_subassembly(rng, int(rng.integers(1, 8)), int(rng.integers(0, 3)))
        kinds |= {state.kind for _, state in sub.units}
        images = [grid_image(sub, motion, (int(rng.integers(-4, 5)), int(rng.integers(-4, 5))),
                             move_rotors)
                  for move_rotors in (True, False) for motion in GRID_MOTIONS]
        warm = int(rng.integers(len(GRID_MOTIONS)))
        clear_cm_cache()
        cached_subassembly_cm(images[warm], params)
        for image in images[:warm] + images[warm + 1:]:
            assert cached_subassembly_cm(image, params) == pytest.approx(
                subassembly_cm(image, params), abs=1e-12)
    assert kinds == set(FaultKind)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_bundled_plans_evaluate_each_congruent_subassembly_once(monkeypatch):
    # The 7 bundled scenarios and the heart11 rule-off ablation, each from a
    # cold cache. A key on translation alone evaluated the kernel 566 times;
    # with the symmetric key, gating every donor's landing took 317, and
    # gating landings only until one passes took 277. Fill rounds now gate
    # only the pairs the assignment picks, not every (unit, target) pair,
    # so the margins of fill flights no assignment chooses are never asked:
    # 265. The placement search skips candidates whose yaw-authority bound
    # cannot beat the best margin so far, mostly ties that lost only the
    # tie-break: 179. Donors are scored best first, under a lower bound of
    # their rank, until the build commits one: 132. Support sizes whose
    # yaw-authority bound lies below the floor are skipped: 117. A parking
    # spot reaches the gate only when its rank leads: 116.
    requests = [(path, True) for path in sorted(SCENARIOS.glob("*.json"))]
    requests.append((SCENARIOS / "heart11.json", False))
    assert len(requests) == 8
    floors = _count_evaluations(monkeypatch)
    for path, rule in requests:
        scenario = load_scenario(path)
        clear_cm_cache()
        plan(scenario.config, scenario.params, relocation_rule=rule)
    assert len(floors) == 116


def test_bundled_plans_route_and_gate_a_pinned_number_of_flights(monkeypatch):
    # The 8 cold requests of the kernel-call pin: unit A* calls (every
    # candidate unit flight), rigid A* calls (corridors and transfers) and
    # gate verdicts. A change that keeps every route and every gate keeps
    # these counts.
    calls = {"astar_unit": 0, "astar_subassembly": 0, "step_verdict": 0}
    for module, name in ((paths, "astar_unit"), (planner, "astar_subassembly"),
                         (planner, "step_verdict")):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    requests = [(path, True) for path in sorted(SCENARIOS.glob("*.json"))]
    requests.append((SCENARIOS / "heart11.json", False))
    for path, rule in requests:
        scenario = load_scenario(path)
        clear_cm_cache()
        plan(scenario.config, scenario.params, relocation_rule=rule)
    assert calls == {"astar_unit": 141, "astar_subassembly": 24, "step_verdict": 65}


def test_a_warm_replan_evaluates_no_margin_and_no_symmetric_key(monkeypatch):
    scenario = load_scenario(SCENARIOS / "icra_letters.json")
    clear_cm_cache()
    first = plan(scenario.config, scenario.params)
    calls = []

    def counting(name):
        original = getattr(controllability, name)
        monkeypatch.setattr(controllability, name,
                            lambda *args: calls.append(name) or original(*args))

    counting("subassembly_cm")
    counting("_symmetric_key")
    assert plan(scenario.config, scenario.params).steps == first.steps
    assert calls == []


def test_margin_just_below_its_floor_is_cached_as_exact(monkeypatch):
    # Placement candidates that tie the best rounded margin sit a fraction of
    # 1e-9 below it; no bound lies that close, so the value is exact and is
    # not recomputed by later queries.
    sub = sub_of(*PINNED["live_dead_live_row"][:2])
    exact = subassembly_cm(sub)
    floors = _count_evaluations(monkeypatch)
    assert cached_subassembly_cm(sub, floor=exact + 5e-10) == exact
    assert cached_subassembly_cm(sub, floor=exact - 0.01) == exact
    assert cached_subassembly_cm(sub) == exact
    assert floors == [exact + 5e-10]


def test_system_cm_stops_at_the_first_subassembly_below_the_floor(monkeypatch):
    # unit_fault_plus_one and dead_end_row, both below 0
    cells = [Cell(0, 0), Cell(1, 0), Cell(5, 0), Cell(6, 0), Cell(7, 0)]
    cfg = Configuration.from_cells(cells, {Cell(0, 0): UNIT_FAULT, Cell(5, 0): UNIT_FAULT})
    floors = _count_evaluations(monkeypatch)
    assert system_cm(cfg, floor=0.0) < 0.0
    assert floors == [0.0]
    assert system_cm(cfg) == pytest.approx(PINNED["unit_fault_plus_one"][2], abs=1e-9)


def test_exterior_margin_is_the_exact_projection_distance():
    # A healthy unit 1e-6 N heavier than its full thrust: the nearest point
    # of the wrench set is all four rotors at full thrust, so the margin is
    # minus the excess weight, to rounding.
    params = PhysicalParams(unit_mass=(4 * 0.15 + 1e-6) / 9.81)
    zono = build_zonotope(sub_of([Cell(0, 0)]), params)
    g = gravity_wrench(1, params)
    excess = g[0] - 4 * params.rotor_thrust_max
    assert abs(cm_signed_distance(zono, g) + excess) <= 1e-12


def test_hover_wrench_within_tolerance_outside_is_not_certified_below_the_floor():
    # A healthy unit whose weight exceeds its full thrust by less than the
    # kernel tolerance: the facet slacks are negative, yet the projection
    # snaps the margin to 0.0, so a floor query must not stop at a slack.
    params = PhysicalParams(unit_mass=(4 * 0.15 + 5e-10) / 9.81)
    sub = sub_of([Cell(0, 0)])
    zono = build_zonotope(sub, params)
    g = gravity_wrench(1, params)
    assert 0.0 < g[0] - 4 * params.rotor_thrust_max < 1e-9
    normals = facet_normal_candidates(zono.generators)
    slack = np.abs(normals @ zono.generators.T).sum(axis=1) - np.abs(normals @ (zono.center - g))
    assert -1e-9 < slack.min() < 0.0
    assert cm_signed_distance(zono, g) == 0.0
    for floor in (0.0, 1e-8):
        assert cm_signed_distance(zono, g, floor) == 0.0
        clear_cm_cache()
        assert cached_subassembly_cm(sub, params, floor) == 0.0


def _assert_projection_matches_scipy(zono, g):
    a, delta = zono.generators.T, g - zono.center
    ref = lsq_linear(a, delta, bounds=(-1.0, 1.0), method="bvls", tol=1e-14, max_iter=400).x
    got = controllability._bvls(a, delta)
    assert np.abs(a @ got - a @ ref).max() <= 1e-12
    # a step to the box face may overshoot it by a rounding error
    assert np.abs(got).max() <= 1.0 + 1e-12
    return got


def test_bvls_projection_matches_scipy_on_exterior_rotor_sets():
    # scipy is the test-only reference of the in-house solver. The nearest
    # point of the set is unique, so both reach it; the coefficients that
    # reach it need not be unique, and the two solvers start apart (the
    # vertex toward g, the unbounded solution).
    rng = np.random.default_rng(26)
    exterior = bounded = 0
    while exterior < 60:
        sub = random_faulty_subassembly(rng, int(rng.integers(1, 9)), int(rng.integers(0, 3)))
        zono = build_zonotope(sub)
        g = gravity_wrench(sub.n)
        if zono.m == 0 or cm_signed_distance(zono, g) >= 0.0:
            continue
        x = _assert_projection_matches_scipy(zono, g)
        exterior += 1
        bounded += bool((np.abs(x) < 1.0).any() and (np.abs(x) == 1.0).any())
    # most nearest points have coefficients both at a bound and inside the box
    assert bounded >= 30


@pytest.mark.parametrize("excess", [1e-6, 5e-10])
def test_bvls_projection_matches_scipy_in_the_tolerance_bands(excess):
    # A healthy unit heavier than its full thrust by more than the kernel
    # tolerance (1e-6 N) and by less (5e-10 N): the nearest point is every
    # rotor at full thrust, the one coefficient vector of four independent
    # rows that reaches it, and the distance is the excess weight.
    params = PhysicalParams(unit_mass=(4 * 0.15 + excess) / 9.81)
    zono = build_zonotope(sub_of([Cell(0, 0)]), params)
    g = gravity_wrench(1, params)
    assert (_assert_projection_matches_scipy(zono, g) == 1.0).all()
    distance = controllability._distance_to_zonotope(zono, g)
    assert abs(distance - (g[0] - 4 * params.rotor_thrust_max)) <= 1e-12


@pytest.mark.parametrize("name", sorted(KERNEL_EDGES))
def test_bvls_projection_matches_scipy_below_rank_4(name):
    # Sets of rank below 4 reach the projection without the layer pass: the
    # nearest point is unique, its coefficients are not (m2 excepted).
    _assert_projection_matches_scipy(*_zonotope_case(*KERNEL_EDGES[name]))


@pytest.mark.parametrize("size", [5, 7, 10])
def test_bvls_projection_matches_scipy_on_large_exterior_blocks(size):
    # Solid blocks with the columns up to the middle unit-faulted: m = 40,
    # 84 and 160 live rotors that cannot lift the block.
    sub = _block(size, size, {(x, y): UNIT_FAULT for x in range(size // 2 + 1) for y in range(size)})
    zono, g = build_zonotope(sub), gravity_wrench(sub.n)
    assert zono.m == {5: 40, 7: 84, 10: 160}[size]
    _assert_projection_matches_scipy(zono, g)
    assert controllability._distance_to_zonotope(zono, g) > 0.0


def _axis_slack(sub):
    """The least slack support(d) - d.g over the eight directions +-e_k."""
    axes = np.vstack([np.eye(4), -np.eye(4)])
    return float((support(build_zonotope(sub), axes) - axes @ gravity_wrench(sub.n)).min())


def test_quick_upper_bound_dominates_exact_margin():
    for cells, faults, expected, _ in PINNED.values():
        sub = sub_of(cells, faults)
        assert quick_cm_upper(sub) >= subassembly_cm(sub) - 1e-12
        assert quick_cm_upper(sub) == pytest.approx(_axis_slack(sub), abs=1e-12)


# -- system margin -------------------------------------------------------------


def test_system_cm_is_infinite_without_faults():
    cfg = Configuration.from_cells([Cell(0, 0), Cell(1, 0)])
    assert system_cm(cfg) == math.inf


def test_system_cm_is_min_over_faulty_components_only():
    # Healthy blob far away + dead singleton + live-dead-live row.
    cells = (
        [Cell(20, 0), Cell(21, 0)]
        + [Cell(10, 10)]
        + ROW3
    )
    faults = {Cell(10, 10): UNIT_FAULT, Cell(1, 0): UNIT_FAULT}
    cfg = Configuration.from_cells(cells, faults)
    expected = min(
        PINNED["dead_singleton"][2], PINNED["live_dead_live_row"][2]
    )
    assert system_cm(cfg) == pytest.approx(expected, abs=1e-9)


def test_system_cm_positive_example():
    cfg = Configuration.from_cells(ROW3, {Cell(1, 0): UNIT_FAULT})
    assert system_cm(cfg) == pytest.approx(PINNED["live_dead_live_row"][2], abs=1e-9)


# -- properties -----------------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_quick_upper_bound_property(seed, n, nf):
    rng = np.random.default_rng(seed)
    sub = random_faulty_subassembly(rng, n, nf)
    assert quick_cm_upper(sub) >= subassembly_cm(sub) - 1e-12
    assert quick_cm_upper(sub) == pytest.approx(_axis_slack(sub), abs=1e-12)


def _honours_floor(value, exact, floor):
    if exact >= floor:
        assert value == exact
    else:
        # A facet slack equals the margin, up to rounding, when the nearest
        # point of the wrench set lies on that facet.
        assert exact - 1e-12 <= value < floor


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 2), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_floor_queries_are_exact_above_the_floor_and_bounds_below(seed, n, nf, pick):
    rng = np.random.default_rng(seed)
    sub = random_faulty_subassembly(rng, n, nf)
    zono = build_zonotope(sub)
    g = gravity_wrench(sub.n)
    exact = cm_signed_distance(zono, g)
    floor = (-math.inf, -0.05, 0.0, exact - 1e-6, exact + 1e-6, exact + 0.01)[pick]
    _honours_floor(cm_signed_distance(zono, g, floor), exact, floor)
    clear_cm_cache()
    _honours_floor(cached_subassembly_cm(sub, floor=floor), exact, floor)
    config = Configuration.from_cells([c for c, _ in sub.units],
                                      {c: s for c, s in sub.units if s.is_faulty})
    system_exact = system_cm(config)
    clear_cm_cache()
    _honours_floor(system_cm(config, floor=floor), system_exact, floor)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 2),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_translation_invariance_property(seed, n, nf, dx, dy):
    rng = np.random.default_rng(seed)
    sub = random_faulty_subassembly(rng, n, nf)
    moved = sub_of(
        [c + (dx, dy) for c, _ in sub.units],
        {c + (dx, dy): s for c, s in sub.units if s.is_faulty},
    )
    assert subassembly_cm(moved) == subassembly_cm(sub)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_interior_hover_wrench_iff_positive_margin(seed, n, nf):
    # cm > 0 must mean g is inside the wrench set: every sampled direction
    # leaves at least cm of slack. cm < 0 must mean some direction separates.
    rng = np.random.default_rng(seed)
    sub = random_faulty_subassembly(rng, n, nf)
    zono = build_zonotope(sub)
    g = gravity_wrench(sub.n)
    cm = subassembly_cm(sub)
    dirs = rng.normal(size=(4000, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    slack = support(zono, dirs) - dirs @ g
    if cm > 1e-9:
        assert float(slack.min()) >= cm - 1e-9
    elif cm < -1e-9:
        assert float(slack.min()) >= cm - 1e-9  # no direction separates deeper


# all six spin layouts, then a stronger yaw drag and weaker rotors
BOUND_PARAMS = {spin_id(spin): PhysicalParams(spin=spin) for spin in SPIN_LAYOUTS}
BOUND_PARAMS |= {"ctau0.02": PhysicalParams(yaw_torque_coeff=0.02),
                 "fmax0.1": PhysicalParams(rotor_thrust_max=0.1)}


@pytest.mark.parametrize("params", list(BOUND_PARAMS.values()), ids=list(BOUND_PARAMS))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), nf=st.integers(0, 12))
@example(seed=377, n=3, nf=2)       # a 3-unit line, both ends unit-faulted: two rows a layer
@settings(max_examples=15, deadline=None)
def test_margin_never_exceeds_the_yaw_authority_bound(params, seed, n, nf):
    # Any subassembly, faults anywhere, up to every unit: the bound is the
    # slack along the two yaw-thrust normals, whatever the cells, and the
    # layer pass yields it first, whatever the size of each layer.
    rng = np.random.default_rng(seed)
    cells = random_connected_cells(rng, n)
    sub = partition(Configuration.from_cells(cells, random_fault_states(rng, cells, min(nf, n))))[0]
    bound = yaw_authority_bound(sub.n, [s for _, s in sub.units if s.is_faulty], params)
    assert subassembly_cm(sub, params) <= bound + 1e-12
    zono = build_zonotope(sub, params)
    c_tau = params.yaw_torque_coeff
    normals = np.array([[-sigma * c_tau, 0.0, 0.0, 1.0] for sigma in (1, -1)]) / math.sqrt(1 + c_tau**2)
    slack = (np.abs(normals @ zono.generators.T).sum(axis=1)
             - np.abs(normals @ (zono.center - gravity_wrench(sub.n, params))))
    assert bound == pytest.approx(float(slack.min()), abs=1e-12)
    up = zono.generators[:, 3] > 0.0
    if zono.m >= 3 and 0 < up.sum() < zono.m:     # both layers, one with a pair: a layer plan
        d = zono.center - gravity_wrench(sub.n, params)
        assert next(controllability._layer_slacks(zono.generators, d, up)) == pytest.approx(bound, abs=1e-12)


# Two parameter sets with a yaw-authority bound U just below zero, where the
# kernel reads a hover wrench within its tolerance outside the set as 0.0:
# the support column of test_support_search_keeps_a_size_whose_margin_snaps_to_zero
# (U about -6e-13) and the L of test_a_negative_bound_does_not_skip_a_margin_the_kernel_reads_as_zero
# (U = -4.268e-9).
_C_TAU = DEFAULT_PARAMS.yaw_torque_coeff
SNAP_PARAMS = {
    "snap-column": PhysicalParams(unit_mass=(0.4 + 1e-10 / 3) / 9.81),
    "snap-L": PhysicalParams(unit_mass=(10 * DEFAULT_PARAMS.rotor_thrust_max
                                        + 4.268e-9 * math.sqrt(1 + _C_TAU**2) / _C_TAU) / 3 / 9.81),
}


def _check_margin_ceiling(sub, params):
    ceiling = margin_ceiling(sub.n, [s for _, s in sub.units if s.is_faulty], params)
    for floor in (-math.inf, 0.0, ceiling):
        assert subassembly_cm(sub, params, floor) <= ceiling, floor


@pytest.mark.parametrize("params", [*BOUND_PARAMS.values(), *SNAP_PARAMS.values()],
                         ids=[*BOUND_PARAMS, *SNAP_PARAMS])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), nf=st.integers(0, 12))
@example(seed=377, n=3, nf=2)
@settings(max_examples=15, deadline=None)
def test_no_margin_exceeds_the_margin_ceiling(params, seed, n, nf):
    # Any subassembly, unit and rotor faults anywhere, asked with no floor,
    # a floor of 0 and the ceiling itself as its floor.
    rng = np.random.default_rng(seed)
    cells = random_connected_cells(rng, n)
    sub = partition(Configuration.from_cells(cells, random_fault_states(rng, cells, min(nf, n))))[0]
    _check_margin_ceiling(sub, params)


_COLUMN = [Cell(0, 0), Cell(0, 1), Cell(0, 2)]
_ROW = [Cell(0, 0), Cell(1, 0), Cell(2, 0)]
_L = [Cell(0, 0), Cell(1, 0), Cell(0, 1)]


@pytest.mark.parametrize("params", [*BOUND_PARAMS.values(), *SNAP_PARAMS.values()],
                         ids=[*BOUND_PARAMS, *SNAP_PARAMS])
@pytest.mark.parametrize("cells", [_ROW, _COLUMN], ids=["row", "column"])
def test_a_floored_margin_of_two_row_layers_stays_under_the_ceiling(params, cells):
    # Both ends unit-faulted leave the middle unit's four rotors, two rows a
    # layer: no layer spans a facet, and a floored query that stopped at a
    # cross-layer slack above both layer slacks returned more than U.
    sub = partition(Configuration.from_cells(cells, {cells[0]: UNIT_FAULT, cells[2]: UNIT_FAULT}))[0]
    yaw = build_zonotope(sub, params).generators[:, 3]
    assert (yaw > 0.0).sum() == (yaw < 0.0).sum() == 2
    _check_margin_ceiling(sub, params)


@pytest.mark.parametrize("params,cells,faults,cm", [
    (SNAP_PARAMS["snap-column"], _COLUMN, {Cell(0, 1): UNIT_FAULT}, 0.0),
    (SNAP_PARAMS["snap-L"], _L, {Cell(1, 0): rotor_fault(1)}, 0.0),
    (SNAP_PARAMS["snap-L"], _L, {Cell(0, 0): rotor_fault(1)}, -4.268e-9),
], ids=["column", "L-zero", "L-outside"])
def test_the_margin_ceiling_covers_a_margin_read_as_zero(params, cells, faults, cm):
    # U lies below zero, within the kernel's tolerance: two of these read
    # as 0.0, above U, and the third lies just outside its set.
    sub = partition(Configuration.from_cells(cells, faults))[0]
    assert yaw_authority_bound(3, faults.values(), params) < 0.0
    assert subassembly_cm(sub, params) == pytest.approx(cm, abs=1e-12)
    _check_margin_ceiling(sub, params)


@pytest.mark.parametrize("params", list(BOUND_PARAMS.values()), ids=list(BOUND_PARAMS))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), nf=st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_kernel_matches_the_all_triples_reference_under_every_layout(params, seed, n, nf):
    rng = np.random.default_rng(seed)
    sub = random_faulty_subassembly(rng, n, nf)
    zono = build_zonotope(sub, params)
    g = gravity_wrench(sub.n, params)
    assert cm_signed_distance(zono, g) == pytest.approx(reference_cm_signed_distance(zono, g), abs=1e-9)
