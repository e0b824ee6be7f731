"""Controllability margin of assemblies under rotor and unit faults.

The feasible control set Omega of a subassembly is the image of the rotor
thrust box [0, f_max]^m under the linear allocation map to total thrust and
body torques (T, tau_x, tau_y, tau_z), i.e. a 4-D zonotope with one generator
per live rotor. The controllability margin is the signed Euclidean distance
from the hover wrench g = [n m g0, 0, 0, 0] to the boundary of Omega:
positive when g lies inside (distance to the nearest facet), negative when
outside (minus the distance to the set).

Torques are taken about the geometric center of the subassembly footprint,
which coincides with the center of mass because unit masses are uniform, so
gravity contributes no torque.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.optimize import lsq_linear

from .model import Configuration, FaultKind, FaultState, Subassembly, partition

# Rotor slots sit on the diagonals of each unit (X layout). Slot i is offset
# arm_offset * ROTOR_DIAGONALS[i] from the unit center; opposite corners spin
# the same way so yaw is balanced on a healthy unit.
ROTOR_DIAGONALS: tuple[tuple[int, int], ...] = ((1, 1), (-1, 1), (-1, -1), (1, -1))
_NEGATE_X = np.array([1.0, 1.0, -1.0, 1.0])                         # (1, r_y, r_x, .) -> (1, r_y, -r_x, .)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of one module and of the grid they assemble on."""

    unit_mass: float = 0.032          # kg
    module_pitch: float = 0.15        # m, grid spacing between unit centers
    arm_offset: float = 0.0325        # m, rotor distance from unit center per axis
    rotor_thrust_max: float = 0.15    # N, single rotor
    yaw_torque_coeff: float = 0.006   # m, drag torque per unit thrust
    gravity: float = 9.81             # m/s^2
    spin: tuple[int, int, int, int] = (1, -1, 1, -1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "spin", tuple(self.spin))   # hashable, as the margin caches key on params
        for name in ("unit_mass", "module_pitch", "arm_offset", "rotor_thrust_max", "yaw_torque_coeff", "gravity"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if 2 * self.arm_offset >= self.module_pitch:
            raise ValueError("rotors of neighboring units would overlap: need 2*arm_offset < module_pitch")
        if sorted(self.spin) != [-1, -1, 1, 1]:
            raise ValueError("spin layout must contain exactly two +1 and two -1 rotors")


DEFAULT_PARAMS = PhysicalParams()


@dataclass(frozen=True, eq=False)
class WrenchZonotope:
    """Zonotope {center + sum_i s_i * generators[i], s in [-1, 1]^m} in R^4."""

    center: np.ndarray           # shape (4,)
    generators: np.ndarray       # shape (m, 4), one row per live rotor

    @property
    def m(self) -> int:
        return self.generators.shape[0]

    def scale(self) -> float:
        return float(np.linalg.norm(self.center)) + float(np.abs(self.generators).sum())


@lru_cache
def _rotor_slots(params: PhysicalParams) -> np.ndarray:
    """Row i is [1, dy * arm_offset, dx * arm_offset, spin[i] * c_tau], (dx, dy) = ROTOR_DIAGONALS[i]."""
    return np.column_stack((np.ones(4), params.arm_offset * np.array(ROTOR_DIAGONALS, dtype=float)[:, ::-1],
                            np.multiply(params.spin, params.yaw_torque_coeff)))


def build_zonotope(sub: Subassembly, params: PhysicalParams = DEFAULT_PARAMS) -> WrenchZonotope:
    """Feasible wrench set of a subassembly with its live rotors only.

    Cells are read in the min-corner frame of `sub.canonical()`, the
    translation key the margin cache stores the result under, so every
    translate gets the same bits. Rotor i of the unit at (x, y) in that frame
    sits at r = (x, y) * pitch - mean(x, y) * pitch + arm_offset *
    ROTOR_DIAGONALS[i] about the footprint centroid. Its generator is
    (f_max/2) * [1, r_y, -r_x, spin[i] * c_tau], and it adds the same to the
    center, so the support in +T is f_max per live rotor. Rows go unit by
    unit, rotor by rotor; a unit fault removes its unit's four rows (its mass
    stays in the gravity wrench), a rotor fault one row.
    """
    live = [4 * u + i for u, (_, state) in enumerate(sub.units) for i in state.live_rotors()]
    cells = np.array([(0, y, x, 0) for x, y, _ in sub.canonical()], dtype=float)
    pitch = params.module_pitch
    # unit center (0, y, x, 0) about the centroid plus slot row: [1, r_y, r_x, spin * c_tau]
    rows = ((cells * pitch - cells.mean(axis=0) * pitch)[:, None] + _rotor_slots(params)).reshape(-1, 4)[live]
    generators = 0.5 * params.rotor_thrust_max * (rows * _NEGATE_X)
    return WrenchZonotope(center=generators.sum(axis=0), generators=generators)


def gravity_wrench(n_units: int, params: PhysicalParams = DEFAULT_PARAMS) -> np.ndarray:
    """Hover demand [n m g0, 0, 0, 0]; every unit's mass counts, faulty or not."""
    return np.array([n_units * params.unit_mass * params.gravity, 0.0, 0.0, 0.0])


@lru_cache
def _pair_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (j, k), j < k, sorted by j: the pairs with j > i are a suffix."""
    return np.triu_indices(m, k=1)


# Coordinate pairs (p, q), p < q, of the 2x2 minors of two generator rows.
_MINOR_P = np.array([0, 0, 0, 1, 1, 2])
_MINOR_Q = np.array([1, 2, 3, 2, 3, 3])


def _cofactor_map(a: np.ndarray) -> np.ndarray:
    """Matrix L(a) with cross(a, b, c) = minors(b, c) @ L(a).

    minors(b, c) holds the 2x2 minors b_p c_q - b_q c_p for (p, q) in
    _MINOR_P/_MINOR_Q order; L(a) is the Laplace expansion of the
    generalized cross product along a, whose component k is (-1)^k times the
    3x3 minor of (a, b, c) that omits column k.
    """
    a0, a1, a2, a3 = a
    return np.array([
        [0.0, 0.0, a3, -a2],
        [0.0, -a3, 0.0, a1],
        [0.0, a2, -a1, 0.0],
        [a3, 0.0, 0.0, -a0],
        [-a2, 0.0, a0, 0.0],
        [a1, -a0, 0.0, 0.0],
    ])


def _facet_normal_chunks(generators: np.ndarray):
    """Yield (normals, lengths) of the triples (i, j, k), i < j < k, one chunk per i.

    Each normal is the generalized cross product of the three normalized
    generator rows, unscaled; triples whose product is shorter than 1e-9
    (dependent, or one generator is zero) are dropped. A chunk holds at most
    C(m - 1, 2) normals.
    """
    norms = np.linalg.norm(generators, axis=1)
    keep = norms > 0
    rows = generators[keep] / norms[keep][:, None]
    m = rows.shape[0]
    if m < 3:
        return
    j, k = _pair_index(m)
    b, c = rows[j], rows[k]
    minors = b[:, _MINOR_P] * c[:, _MINOR_Q] - b[:, _MINOR_Q] * c[:, _MINOR_P]
    start = 0
    for i in range(m - 2):
        start += m - 1 - i
        normals = minors[start:] @ _cofactor_map(rows[i])
        lens = np.linalg.norm(normals, axis=1)
        ok = lens > 1e-9
        yield normals[ok], lens[ok]


def facet_normal_candidates(generators: np.ndarray) -> np.ndarray:
    """Unit normals of all hyperplanes spanned by three independent generators.

    Facets of a 4-D zonotope are spanned by generator triples, so this set
    contains every facet normal (plus harmless extras from triples that do not
    actually support a facet). There is one row per independent triple, with
    no sign canonicalization and no deduplication: the margin is symmetric in
    +-eta and a minimum ignores repeats.
    """
    chunks = [normals / lens[:, None] for normals, lens in _facet_normal_chunks(generators)]
    return np.concatenate([np.zeros((0, 4)), *chunks])


def _distance_to_zonotope(zono: WrenchZonotope, point: np.ndarray) -> float:
    """Euclidean distance from a point to the zonotope (0 if inside).

    Solved as box-constrained least squares over the generator coefficients
    by the active-set solver, which ends on the exact optimum up to rounding.
    """
    delta = point - zono.center
    if zono.m == 0:
        return float(np.linalg.norm(delta))
    res = lsq_linear(zono.generators.T, delta, bounds=(-1.0, 1.0), method="bvls",
                     tol=1e-14, max_iter=400)
    return float(np.linalg.norm(zono.generators.T @ res.x - delta))


def cm_signed_distance(zono: WrenchZonotope, g: np.ndarray, floor: float = -math.inf) -> float:
    """Signed distance from the hover wrench to the boundary of the wrench set.

    Interior case: exact minimum over facet margins,
        margin(eta) = (eta.c + sum_i |eta.g_i|) - eta.g, minimized over +-eta,
    that is sum_i |eta.g_i| - |eta.(c - g)|. The normals are streamed one
    chunk of triples at a time and only the running minimum is kept, so
    memory is bounded by one chunk, O(C(m - 1, 2) * m), not by all C(m, 3)
    triples. Exterior or degenerate case (generator rank < 4, empty
    interior): minus the projection distance onto the set.

    A margin at or above `floor` is returned exactly. Below it the result
    may instead be an upper bound u with margin <= u < floor - 1e-9: every
    facet slack bounds the signed distance from above, so the first running
    minimum under the floor settles the query without the projection. The
    gap keeps u below every margin >= floor after rounding to 9 decimals.
    """
    g = np.asarray(g, dtype=float)
    scale = zono.scale() + float(np.linalg.norm(g)) + 1.0
    tol = 1e-9 * scale
    if zono.m < 4 or np.linalg.matrix_rank(zono.generators, tol=1e-12 * scale) < 4:
        d = _distance_to_zonotope(zono, g)
        return 0.0 if d <= tol else -d
    # One product per chunk gives every eta.g_i and eta.(c - g); the weights
    # add the first m absolute values and subtract the last, and dividing by
    # the lengths rescales the unscaled normals to unit ones.
    probe = np.column_stack((zono.generators.T, zono.center - g))
    weights = np.ones(zono.m + 1)
    weights[-1] = -1.0
    margin = math.inf
    for normals, lens in _facet_normal_chunks(zono.generators):
        products = normals @ probe
        np.abs(products, out=products)
        margin = min(margin, float((products @ weights / lens).min(initial=math.inf)))
        # In [-tol, 0) the projection below may snap the margin to 0.0,
        # which lies above this bound.
        if margin < floor - tol and not -tol <= margin < 0.0:
            return margin
        if margin < 0.0:
            break  # outside: the projection below gives the margin
    if margin >= 0.0:
        return margin
    d = _distance_to_zonotope(zono, g)
    return 0.0 if d <= tol else -d


def subassembly_cm(sub: Subassembly, params: PhysicalParams = DEFAULT_PARAMS,
                   floor: float = -math.inf) -> float:
    """Margin of one subassembly; `floor` as in cm_signed_distance."""
    zono = build_zonotope(sub, params)
    return cm_signed_distance(zono, gravity_wrench(sub.n, params), floor)


def yaw_authority_bound(n_units: int, faults: Iterable[FaultState],
                        params: PhysicalParams = DEFAULT_PARAMS) -> float:
    """Upper bound on the margin of every n_units subassembly with these faults.

    Along the unit normal (-sigma * c_tau, 0, 0, 1) / sqrt(1 + c_tau^2), sigma = +-1,
    the generators of spin sigma vanish and each live rotor of spin -sigma
    gives f_max * c_tau / sqrt(1 + c_tau^2), so the facet slack there is
        c_tau * min(W, 2 * f_max * N - W) / sqrt(1 + c_tau^2),
    with W = n m g0 and N the live rotors of spin -sigma. Like every slack it
    bounds the signed distance from above (cm_signed_distance); the smaller
    live count per spin gives the smaller slack. It depends on the unit count
    and the fault states only, not on where they sit.
    """
    dead = [params.spin[i] for state in faults for i in range(4) if i not in state.live_rotors()]
    live_min = 2 * n_units - max(dead.count(1), dead.count(-1))
    weight = n_units * params.unit_mass * params.gravity
    c_tau = params.yaw_torque_coeff
    slack = min(weight, 2 * params.rotor_thrust_max * live_min - weight)
    return c_tau * slack / math.sqrt(1 + c_tau * c_tau)


# The eight rigid motions of the grid about the origin, as (a, b, c, d):
# (x, y) -> (a x + b y, c x + d y).
_GRID_MOTIONS = (tuple((sx, 0, 0, sy) for sx in (1, -1) for sy in (1, -1))
                 + tuple((0, sx, sy, 0) for sx in (1, -1) for sy in (1, -1)))
# Image coordinate a x + b y, normalized into the bounding box, as an index
# into (x, w - x, y, h - y).
_AXIS = {(1, 0): 0, (-1, 0): 1, (0, 1): 2, (0, -1): 3}


@lru_cache
def _margin_symmetries(spin: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The grid motions that keep every margin under a spin layout.

    A motion carries rotor slot i to the slot pi(i) on the moved diagonal,
    and a rotor fault moves with it. It turns or mirrors the torques of every
    generator; when spin[pi(i)] = sigma * spin[i] for one sigma, it also
    scales yaw by sigma, so the wrench set moves by an isometry that fixes
    the hover wrench and the margin does not change. That holds for all
    eight motions under the alternating layouts, (1, -1, 1, -1) and its
    reverse, and for the half turn and the two mirrors under the others.

    Each motion is coded for _symmetric_key: the _AXIS indices of its
    image's x and y, and the image of each state code.
    """
    kept = []
    for a, b, c, d in _GRID_MOTIONS:
        slots = [ROTOR_DIAGONALS.index((a * dx + b * dy, c * dx + d * dy))
                 for dx, dy in ROTOR_DIAGONALS]
        if len({spin[j] * spin[i] for i, j in enumerate(slots)}) == 1:
            kept.append((_AXIS[a, b], _AXIS[c, d], (0, 1, *(2 + j for j in slots))))
    return tuple(kept)


def _symmetric_key(canonical: tuple[tuple[int, int, FaultState], ...],
                   spin: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Key of a subassembly, given by its translation key, shared by its images
    under _margin_symmetries(spin).

    Each unit of an image codes as (y * size + x) * 6 + state, with size the
    longer side of the bounding box plus one (the same for every image) and
    state 0 for a healthy unit, 1 for a unit fault and 2 + slot for a rotor
    fault. The key is size and the smallest sorted code list of all images.
    """
    xs, ys, units = zip(*canonical)
    states = [0 if s.kind is FaultKind.HEALTHY else 1 if s.kind is FaultKind.UNIT
              else 2 + s.rotor_index for s in units]
    w, h = max(xs), max(ys)
    size = max(w, h) + 1
    axes = (xs, [w - x for x in xs], ys, [h - y for y in ys])
    return size, tuple(min(
        sorted([(y * size + x) * 6 + image[s] for x, y, s in zip(axes[i], axes[j], states)])
        for i, j, image in _margin_symmetries(spin)))


# The margin only depends on the subassembly shape and fault pattern up to
# translation and the grid motions of _margin_symmetries, so each result is
# memoized twice: under `Subassembly.canonical()`, which normalizes
# translation only and which repeated queries hit, and under the symmetric
# key, which turned and mirrored copies share. Intermediate planner
# configurations revisit the same shapes constantly. Each entry is
# (value, exact): only a value more than 1e-9 below the floor it was asked
# with can be a bound.
_CM_CACHE: dict[tuple, tuple[float, bool]] = {}


def clear_cm_cache() -> None:
    _CM_CACHE.clear()


def _answers(entry: tuple[float, bool] | None, floor: float) -> bool:
    return entry is not None and (entry[1] or entry[0] < floor - 1e-9)


def cached_subassembly_cm(sub: Subassembly, params: PhysicalParams = DEFAULT_PARAMS,
                          floor: float = -math.inf) -> float:
    """Memoized subassembly_cm, with the same `floor` contract.

    A bound answers only a query whose floor lies more than 1e-9 above it;
    any other query recomputes and replaces it under both keys. The
    symmetric key is computed only when the translation key does not answer.
    """
    canonical = sub.canonical()
    key = (params, canonical)
    entry = _CM_CACHE.get(key)
    if not _answers(entry, floor):
        symmetric = (params, *_symmetric_key(canonical, params.spin))
        entry = _CM_CACHE.get(symmetric)
        if not _answers(entry, floor):
            value = subassembly_cm(sub, params, floor)
            entry = (value, value >= floor - 1e-9)
            _CM_CACHE[symmetric] = entry
        _CM_CACHE[key] = entry
    return entry[0]


def faulty_cm(subs: Iterable[Subassembly], params: PhysicalParams = DEFAULT_PARAMS,
              floor: float = -math.inf) -> float:
    """Minimum margin over the given subassemblies that contain a faulty unit.

    Fault-free subassemblies are not margin-limiting (a healthy connected
    assembly can always hover under the modeled thrust budget, and singleton
    healthy units in transit are routine), so no faulty subassembly at all
    gives +inf. A minimum at or above `floor` is exact; below it, the result
    u satisfies minimum <= u < floor, and the scan stops at the first
    subassembly below the floor, so later ones need not be built.
    """
    worst = math.inf
    for sub in subs:
        if not sub.faulty_cells:
            continue
        worst = min(worst, cached_subassembly_cm(sub, params, floor))
        if worst < floor:
            break
    return worst


def system_cm(config: Configuration, params: PhysicalParams = DEFAULT_PARAMS,
              floor: float = -math.inf) -> float:
    """`faulty_cm` of all subassemblies of `config` (+inf without faults)."""
    return faulty_cm(partition(config), params, floor)


def quick_cm_upper(sub: Subassembly, params: PhysicalParams = DEFAULT_PARAMS) -> float:
    """Upper bound on the margin: the least slack along the eight axes +-e_k,
    min_k (sum_i |G_ik| - |c_k - g_k|); every unit direction's slack bounds it."""
    zono = build_zonotope(sub, params)
    g = gravity_wrench(sub.n, params)
    return float((np.abs(zono.generators).sum(axis=0) - np.abs(zono.center - g)).min())
