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

import numpy as np
from scipy.optimize import lsq_linear

from .model import Cell, Configuration, FaultState, Subassembly, partition

# Rotor slots sit on the diagonals of each unit (X layout). Slot i is offset
# arm_offset * ROTOR_DIAGONALS[i] from the unit center; opposite corners spin
# the same way so yaw is balanced on a healthy unit.
ROTOR_DIAGONALS: tuple[tuple[int, int], ...] = ((1, 1), (-1, 1), (-1, -1), (1, -1))


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
        for name in ("unit_mass", "module_pitch", "arm_offset", "rotor_thrust_max", "yaw_torque_coeff", "gravity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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

    def support(self, directions: np.ndarray) -> np.ndarray:
        """Support function h(d) = d.c + sum_i |d.g_i| for unit rows of `directions`."""
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        if self.m == 0:
            return d @ self.center
        return d @ self.center + np.abs(d @ self.generators.T).sum(axis=1)

    def scale(self) -> float:
        s = float(np.linalg.norm(self.center))
        if self.m:
            s += float(np.abs(self.generators).sum())
        return s


def unit_rotor_rows(cell: Cell, origin_xy: np.ndarray, params: PhysicalParams,
                    live_rotors: tuple[int, ...]) -> np.ndarray:
    """Allocation rows [1, r_y, -r_x, spin*c_tau] for the live rotors of one unit.

    r is the rotor position in meters relative to origin_xy (the footprint
    centroid). Rows are per unit thrust; multiplying by a thrust in [0, f_max]
    gives that rotor's wrench contribution.
    """
    cx = cell.x * params.module_pitch - origin_xy[0]
    cy = cell.y * params.module_pitch - origin_xy[1]
    rows = []
    for i in live_rotors:
        dx, dy = ROTOR_DIAGONALS[i]
        rx = cx + dx * params.arm_offset
        ry = cy + dy * params.arm_offset
        rows.append([1.0, ry, -rx, params.spin[i] * params.yaw_torque_coeff])
    return np.array(rows, dtype=float).reshape(len(rows), 4)


def footprint_centroid_xy(cells: tuple[Cell, ...], params: PhysicalParams) -> np.ndarray:
    xs = np.array([c.x for c in cells], dtype=float)
    ys = np.array([c.y for c in cells], dtype=float)
    return np.array([xs.mean() * params.module_pitch, ys.mean() * params.module_pitch])


def build_zonotope(sub: Subassembly, params: PhysicalParams = DEFAULT_PARAMS) -> WrenchZonotope:
    """Feasible wrench set of a subassembly with its live rotors only.

    A unit fault removes all four generators of that unit (its mass stays in
    the gravity wrench); a rotor fault removes just the failed rotor's
    generator. Each live rotor contributes the generator (f_max/2) * row and
    the same amount to the center, so the thrust coordinate of the support in
    +T direction equals f_max times the number of live rotors.
    """
    origin = footprint_centroid_xy(sub.cells, params)
    blocks = []
    for cell, state in sub.units:
        live = state.live_rotors()
        if live:
            blocks.append(unit_rotor_rows(cell, origin, params, live))
    if blocks:
        rows = np.vstack(blocks)
    else:
        rows = np.zeros((0, 4))
    generators = 0.5 * params.rotor_thrust_max * rows
    center = generators.sum(axis=0) if len(generators) else np.zeros(4)
    return WrenchZonotope(center=center, generators=generators)


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

    Solved as box-constrained least squares over the generator coefficients,
    converged to ~1e-9 of the wrench scale.
    """
    delta = point - zono.center
    if zono.m == 0:
        return float(np.linalg.norm(delta))
    res = lsq_linear(zono.generators.T, delta, bounds=(-1.0, 1.0), tol=1e-14, max_iter=400)
    return float(np.linalg.norm(zono.generators.T @ res.x - delta))


def cm_signed_distance(zono: WrenchZonotope, g: np.ndarray) -> float:
    """Signed distance from the hover wrench to the boundary of the wrench set.

    Interior case: exact minimum over facet margins,
        margin(eta) = (eta.c + sum_i |eta.g_i|) - eta.g, minimized over +-eta,
    that is sum_i |eta.g_i| - |eta.(c - g)|. The normals are streamed one
    chunk of triples at a time and only the running minimum is kept, so
    memory is bounded by one chunk, O(C(m - 1, 2) * m), not by all C(m, 3)
    triples. Exterior or degenerate case (generator rank < 4, empty
    interior): minus the projection distance onto the set.
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
    if margin >= 0.0:
        return margin
    d = _distance_to_zonotope(zono, g)
    return 0.0 if d <= tol else -d


def subassembly_cm(sub: Subassembly, params: PhysicalParams = DEFAULT_PARAMS) -> float:
    zono = build_zonotope(sub, params)
    return cm_signed_distance(zono, gravity_wrench(sub.n, params))


# The margin only depends on the subassembly shape and fault pattern up to
# translation, so results are memoized on the canonical form. Intermediate
# planner configurations revisit the same shapes constantly.
_CM_CACHE: dict[tuple, float] = {}


def clear_cm_cache() -> None:
    _CM_CACHE.clear()


def cached_subassembly_cm(sub: Subassembly, params: PhysicalParams = DEFAULT_PARAMS) -> float:
    key = (params, sub.canonical())
    try:
        return _CM_CACHE[key]
    except KeyError:
        value = subassembly_cm(sub, params)
        _CM_CACHE[key] = value
        return value


def system_cm(config: Configuration, params: PhysicalParams = DEFAULT_PARAMS) -> float:
    """Minimum margin over all subassemblies that contain a faulty unit.

    Fault-free subassemblies are not margin-limiting (a healthy connected
    assembly can always hover under the modeled thrust budget, and singleton
    healthy units in transit are routine), so a configuration with no faults
    at all reports +inf.
    """
    worst = math.inf
    for sub in partition(config):
        if not sub.faulty_cells:
            continue
        worst = min(worst, cached_subassembly_cm(sub, params))
    return worst


def cm_upper_bound(zono: WrenchZonotope, g: np.ndarray, directions: np.ndarray) -> float:
    """Upper bound on the signed margin from any finite direction set.

    For every unit direction d, h(d) - d.g bounds the signed distance from
    above (inside: distance to the supporting hyperplane; outside: minus the
    separation along d is still an over-estimate of the signed value), so a
    cheap fixed direction set can prune candidates in argmax searches.
    """
    vals = zono.support(directions) - directions @ np.asarray(g, dtype=float)
    return float(vals.min())


_AXES = np.vstack([np.eye(4), -np.eye(4)])


def quick_cm_upper(sub: Subassembly, params: PhysicalParams = DEFAULT_PARAMS) -> float:
    zono = build_zonotope(sub, params)
    return cm_upper_bound(zono, gravity_wrench(sub.n, params), _AXES)
