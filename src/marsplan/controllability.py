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
from itertools import combinations
from typing import Iterable

import numpy as np

from .model import Configuration, FaultKind, FaultState, Subassembly, partition

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
    """Row i is [1, dy * arm_offset, -dx * arm_offset, spin[i] * c_tau], (dx, dy) = ROTOR_DIAGONALS[i]."""
    arms = params.arm_offset * np.array([(dy, -dx) for dx, dy in ROTOR_DIAGONALS], dtype=float)
    return np.column_stack((np.ones(4), arms, np.multiply(params.spin, params.yaw_torque_coeff)))


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
    cells = np.array([(0, y, -x, 0) for x, y, _ in sub.canonical()], dtype=float)
    pitch = params.module_pitch
    # unit center (0, y, -x, 0) about the centroid plus slot row: [1, r_y, -r_x, spin * c_tau]
    rows = ((cells * pitch - cells.mean(axis=0) * pitch)[:, None] + _rotor_slots(params)).reshape(-1, 4)[live]
    generators = 0.5 * params.rotor_thrust_max * rows
    return WrenchZonotope(center=generators.sum(axis=0), generators=generators)


def gravity_wrench(n_units: int, params: PhysicalParams = DEFAULT_PARAMS) -> np.ndarray:
    """Hover demand [n m g0, 0, 0, 0]; every unit's mass counts, faulty or not."""
    return np.array([n_units * params.unit_mass * params.gravity, 0.0, 0.0, 0.0])


# Floats of the sorted projections t in one batch of the layer pass.
_BATCH_FLOATS = 1 << 14


def facet_normal_candidates(generators: np.ndarray) -> np.ndarray:
    """Unit normals of every hyperplane spanned by three independent generators.

    Facets of a 4-D zonotope are spanned by generator triples, so this set
    contains every facet normal (plus harmless extras from triples that do
    not actually support a facet). Each triple of normalized nonzero rows
    gives its generalized cross product, whose component k is (-1)^k times
    the 3x3 minor that omits column k; products shorter than 1e-9 (dependent
    rows) are dropped. There is no sign canonicalization and no
    deduplication: the margin is symmetric in +-eta and a minimum ignores
    repeats. Nothing in `src/` calls it; it stays because perfbench/tracing.py
    wraps it by name (ROADMAP item 11).
    """
    norms = np.linalg.norm(generators, axis=1)
    rows = generators[norms > 0] / norms[norms > 0, None]
    triples = rows[np.array(list(combinations(range(len(rows)), 3)), dtype=int).reshape(-1, 3)]
    normals = np.stack([(-1) ** k * np.linalg.det(np.delete(triples, k, axis=2)) for k in range(4)], axis=1)
    lens = np.linalg.norm(normals, axis=1)
    return normals[lens > 1e-9] / lens[lens > 1e-9, None]


def _bvls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |a x - b| over the box x in [-1, 1]^n: bounded-variable least
    squares (Stark & Parker, Comput. Stat. 10, 1995), an active-set method
    that ends on the exact optimum up to rounding.

    It starts at the box vertex toward b, x = sign(a^T b) (+1 at 0): every
    variable is at a bound, so the free solution is feasible. Each main
    iteration frees the bound variable whose gradient points most into the
    box and walks toward the free solution, fixing the variable that leaves
    the box first, until the KKT violation falls below 1e-14 or the cost
    drops by less than 1e-14 times itself, for at most 400 iterations. The
    point a x is unique, x need not be: it may differ from scipy's
    `lsq_linear(method="bvls")`, which starts at the unbounded solution.
    """
    x = np.where(a.T.dot(b) >= 0.0, 1.0, -1.0)
    on_bound = x.copy()                  # -1, 0, +1: at the lower bound, free, at the upper
    tol = 1e-14
    r = a.dot(x) - b
    cost = 0.5 * np.dot(r, r)
    for _ in range(400):
        g = a.T.dot(r)
        if np.where(on_bound == 0, np.abs(g), g * on_bound).max() < tol:
            break
        on_bound[np.argmax(g * on_bound)] = 0.0
        while True:
            free = np.flatnonzero(on_bound == 0)
            x_free = x[free]
            z = np.linalg.lstsq(a[:, free], b - a.dot(x * (on_bound != 0)), rcond=None)[0]
            low, = np.nonzero(z < -1.0)
            high, = np.nonzero(z > 1.0)
            leaving = np.hstack((low, high))
            if not leaving.size:
                x[free] = z
                break
            alphas = (np.hstack((-1.0 - x_free[low], 1.0 - x_free[high]))
                      / (z[leaving] - x_free[leaving]))
            i = np.argmin(alphas)
            x_free *= 1 - alphas[i]
            x_free += alphas[i] * z
            x[free] = x_free
            on_bound[free[leaving[i]]] = -1.0 if i < low.size else 1.0
        r = a.dot(x) - b
        cost_new = 0.5 * np.dot(r, r)
        if cost - cost_new < tol * cost:
            break
        cost = cost_new
    return x


def _distance_to_zonotope(zono: WrenchZonotope, point: np.ndarray) -> float:
    """Euclidean distance from a point to the zonotope (0 if inside).

    Solved as least squares over the generator coefficients in the box
    [-1, 1]^m by bounded-variable least squares (_bvls), started at the
    zonotope's vertex farthest toward the point.
    """
    delta = point - zono.center
    if zono.m == 0:
        return float(np.linalg.norm(delta))
    return float(np.linalg.norm(zono.generators.T @ _bvls(zono.generators.T, delta) - delta))


def _rotor_layers(generators: np.ndarray) -> np.ndarray:
    """The mask of the rows with yaw > 0 of a rotor wrench set, the input
    check of the layer pass.

    Every row must be lam * (1, u_i, +-c) for one lam > 0 and one c > 0, as
    every row of `build_zonotope` is; the test is exact, and any other set
    raises ValueError.
    """
    lam, yaw = generators[0, 0], abs(generators[0, 3])
    up = generators[:, 3] == yaw
    rotors = (generators[:, 0] == lam).all() and (up | (generators[:, 3] == -yaw)).all()
    if not (lam > 0.0 and yaw > 0.0 and rotors):
        raise ValueError("the margin kernel takes rotor wrench sets: rows lam * (1, u, +-c), lam > 0, c > 0")
    return up


# y @ _TURN = (y_1, -y_0), so (U_p - U_p') . (y @ _TURN) = w . y for the
# pair's line normal w = (-(U_p - U_p')_1, (U_p - U_p')_0).
_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
# The row that the layer pass pads with: its w.y is NaN.
_NAN_ROW = np.full((1, 2), math.nan)


@lru_cache(maxsize=256)
def _layer_plan(layers: bytes) -> tuple[int, int, tuple]:
    """Layer sizes and index arrays of the layer pass for the mask of the
    rows in layer P (yaw > 0), as bytes; the other rows form layer Q.

    Side P pairs rows j < l of P (np.triu_indices order) with each row of Q,
    side Q the other way round; a side with no pair is left out. The pass
    takes sets of rank 4 only, whose layers both have rows (each lies in a
    hyperplane) and one of them a pair (m >= 4). The sides are stacked on a
    leading axis, each padded to the larger side: pairs by repeating its
    own (a repeated facet does not change a minimum), rows by index m + 1,
    the NaN row. The plan holds per side the layer sign, the pair rows j
    and l, `columns`: the other layer's rows, then the own layer's, each
    padded to K = max(k_up, k_down), then m for (d_1, d_2); `at`, the column
    of each pair's j; `ranks`, 2r + 2 - k at the r-th of the k other rows;
    and `real`, the mask of unpadded columns (True when no column is padded).
    """
    mask = np.frombuffer(layers, dtype=bool)
    up, down = np.flatnonzero(mask), np.flatnonzero(~mask)
    sides = [(sign, own, other) for sign, own, other in ((1.0, up, down), (-1.0, down, up))
             if len(own) >= 2]
    m, width = len(mask), max(len(up), len(down))
    count = max(math.comb(len(own), 2) for _, own, _ in sides)
    rank = np.arange(width)
    plans = []
    for sign, own, other in sides:
        j, l = (np.resize(i, count) for i in np.triu_indices(len(own), k=1))
        real = np.concatenate((rank < len(other), rank < len(own)))
        columns = np.where(real, np.concatenate((np.resize(other, width), np.resize(own, width))), m + 1)
        plans.append((sign, own[j], own[l], np.append(columns, m), width + j,
                      np.where(rank < len(other), 2.0 * rank + 2 - len(other), 0.0), real))
    signs, j, l, columns, j_at, ranks, real = (np.array(x) for x in zip(*plans))
    at = (np.arange(len(sides))[:, None, None], np.arange(count)[None, :, None], j_at[:, :, None])
    return len(up), len(down), (signs[:, None, None], j, l, columns, at, ranks[:, None, :],
                                True if real.all() else real[:, None, :])


def _layer_slacks(generators: np.ndarray, d: np.ndarray, up: np.ndarray):
    """Yield the least facet slacks of a rotor wrench set, `up` its
    `_rotor_layers` mask, batch by batch, over hyperplanes that cover every
    one spanned by three independent generators: the hyperplane of each
    layer and each hyperplane through a pair of one layer and a row of the
    other.

    Row i is (lam, U_i, sigma_i * Y): U_i the rotor's torque arm times lam,
    Y = lam * c. Layer P (sigma = +1) lies in the hyperplane of (Y, 0, 0,
    -lam), layer Q (sigma = -1) in that of (Y, 0, 0, lam). The first yield
    is yaw_authority_bound, the lesser of their slacks (2 lam Y k_other -
    |Y d_0 - sigma lam d_3|) / hypot(lam, Y), a facet's or not: a layer of
    two rows spans none, but every slack bounds the margin from above.

    The facet through a pair (p, p') of one layer, sign sigma, and a row q
    of the other has the normal eta = (-(a + b) / (2 lam), w, sigma (b - a)
    / (2 Y)), w a perpendicular of U_p - U_p', a = w.U_p and b = w.U_q.
    Then eta.g_i is w.U_i - a on the pair's layer and w.U_j - b on the
    other, so the slack is (sum_i |w.U_i - a| + sum_j |w.U_j - b| -
    |eta.d|) / |eta|. The first sum is one number per pair; sorting the
    other layer's t_j = w.U_j gives every second sum at once, t_r (2r + 2 -
    k) - 2 cumsum_r + total for the r-th smallest. Every such triple is
    independent (Y > 0). A pair at one position has w = 0 and a padded row
    NaN projections: their slacks are NaN, and the minimum skips them. Both
    sides share each batch of pairs, which holds about _BATCH_FLOATS floats
    of t.
    """
    lam, yaw = float(generators[0, 0]), abs(float(generators[0, 3]))
    d0, d3 = float(d[0]), float(d[3])
    k_up, k_down, plan = _layer_plan(up.tobytes())
    hyp = math.hypot(lam, yaw)
    yield min((2.0 * lam * yaw * k_other - abs(yaw * d0 - sign * lam * d3)) / hyp
              for sign, k_other in ((1.0, k_down), (-1.0, k_up)))
    signs, j, l, columns, (side, pair, j_at), ranks, real = plan
    arms = generators[:, 1:3]
    perp = arms[j] - arms[l]
    lens = np.add.reduce(perp * perp, axis=2, keepdims=True)     # |w|^2
    if not lens.all():
        lens[lens == 0.0] = math.nan
    onto = (np.concatenate((arms, d[None, 1:3], _NAN_ROW)) @ _TURN)[columns].transpose(0, 2, 1)
    i0, i3 = 0.5 / lam, 0.5 / yaw       # eta_0 = -(t + a) i0, eta_3 = sigma (t - a) i3
    # eta.d = t (sigma d_3 i3 - d_0 i0) + w.(d_1, d_2) - a (sigma d_3 i3 + d_0 i0)
    slope = signs * (d3 * i3) - d0 * i0
    shift = slope + 2.0 * d0 * i0
    k = ranks.shape[2]
    step = max(1, _BATCH_FLOATS // (len(j) * k))
    for first in range(0, j.shape[1], step):
        b = slice(first, first + step)
        proj = perp[:, b] @ onto              # w.U of the other layer, the own layer, then w.(d_1, d_2)
        a = proj[side, pair[:, :proj.shape[1]], j_at[:, b]]
        t = proj[..., :k]
        t.sort(axis=2)
        own = proj[..., k:-1]
        own -= a
        np.abs(own, out=own)
        # the other layer's total plus the own layer's sum of |w.U_i - a|
        sums = np.add.reduce(proj[..., :-1], axis=2, keepdims=True, where=real)
        slack = ((t * ranks - 2.0 * np.add.accumulate(t, axis=2) + sums
                  - np.abs(t * slope + (proj[..., -1:] - a * shift)))
                 / np.sqrt(((t + a) * i0) ** 2 + ((t - a) * i3) ** 2 + lens[:, b]))
        yield float(np.fmin.reduce(slack, axis=None))


def cm_signed_distance(zono: WrenchZonotope, g: np.ndarray, floor: float = -math.inf) -> float:
    """Signed distance from the hover wrench to the boundary of the wrench set.

    Interior case: exact minimum over facet margins,
        margin(eta) = (eta.c + sum_i |eta.g_i|) - eta.g, minimized over +-eta,
    that is sum_i |eta.g_i| - |eta.(c - g)|. The generators of one spin
    layer lie in the hyperplane of its yaw normal (-sigma * c_tau, 0, 0, 1),
    so every triple inside a layer has that normal, whose slack is
    yaw_authority_bound. The generators are split by the sign of their yaw
    column into the layers, the two yaw normals' slack seeds the running
    minimum, and only the cross-layer triples, a pair of one layer with a
    row of the other, are enumerated, by the layer pass (_layer_slacks). It
    takes a set of rotor rows lam * (1, u_i, +-c), as every `build_zonotope`
    output is; a set of rank 4 with any other row raises ValueError
    (_rotor_layers). The facet through a pair (p, p') and a row q of the
    other layer has the slack (sum over the pair's layer of |w.u_i - w.u_p|
    + sum over the other of |w.u_j - w.u_q| - |eta.(c - g)|) / |eta|, w a
    perpendicular of u_p - u_p', and one sort per pair gives each in O(1),
    O(m^3 log m) a call.

    Only the running minimum is kept, so memory is bounded by one batch, not
    by all triples: an array of the layer pass holds about _BATCH_FLOATS
    floats. A negative minimum (exterior) or a rank below 4 (empty interior)
    ends at one projection from the vertex toward g: minus the distance.

    A margin at or above `floor` is returned exactly. Below it the result
    may instead be an upper bound u with margin <= u < floor - 1e-9: every
    slack bounds the signed distance from above, so the first running
    minimum under the floor, at most yaw_authority_bound, settles the query
    without the projection. The gap keeps u below every margin >= floor
    after rounding to 9 decimals.
    """
    g = np.asarray(g, dtype=float)
    scale = zono.scale() + float(np.linalg.norm(g)) + 1.0
    tol = 1e-9 * scale
    # rank 4: the least of the four singular values clears the tolerance
    if zono.m >= 4 and np.linalg.svd(zono.generators, compute_uv=False)[3] > 1e-12 * scale:
        margin = math.inf
        for slack in _layer_slacks(zono.generators, zono.center - g, _rotor_layers(zono.generators)):
            margin = min(margin, slack)
            # In [-tol, 0) the projection below may snap the margin to 0.0,
            # which lies above this bound.
            if margin < floor - tol and not -tol <= margin < 0.0:
                return margin
            if margin < 0.0:
                break  # outside: the projection below gives the margin
        else:
            return margin
    distance = _distance_to_zonotope(zono, g)
    return 0.0 if distance <= tol else -distance


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


def margin_ceiling(n_units: int, faults: Iterable[FaultState],
                   params: PhysicalParams = DEFAULT_PARAMS) -> float:
    """The most `subassembly_cm` (so `cached_subassembly_cm`, `faulty_cm` and
    `system_cm`) returns for n_units units with these faults, at any floor.

    U + 1e-12, U = yaw_authority_bound, which bounds every margin and every
    bound below a floor up to rounding (measured under 1e-16); at least 0.0
    when U lies within the kernel's tolerance 1e-9 * scale below zero, where
    the kernel may read a margin of 0.0. S = 4n * f_max * (1 + 2 * (arm + n
    * pitch) + c_tau) + n * m * g0 + 1 bounds cm_signed_distance's `scale`.
    """
    bound = yaw_authority_bound(n_units, faults, params)
    scale = (4 * n_units * params.rotor_thrust_max
             * (1 + 2 * (params.arm_offset + n_units * params.module_pitch) + params.yaw_torque_coeff)
             + n_units * params.unit_mass * params.gravity + 1)
    return max(bound + 1e-12, 0.0) if bound >= -1e-9 * scale else bound + 1e-12


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
    min_k (sum_i |G_ik| - |c_k - g_k|); every unit direction's slack bounds it.
    Nothing in `src/` calls it; it stays because perfbench/tracing.py wraps it
    by name (ROADMAP item 11)."""
    zono = build_zonotope(sub, params)
    g = gravity_wrench(sub.n, params)
    return float((np.abs(zono.generators).sum(axis=0) - np.abs(zono.center - g)).min())
