"""Independent oracles and random-instance generators for the test suite.

Everything here deliberately avoids the library's own algorithms: margins are
estimated by random direction sampling against the support function only,
paths by breadth-first search, assignments by permutation enumeration,
parking spots by gating every spot, and shape counts by brute-force subset
growth. There are two exceptions. The margin kernel's reference is the
library's earlier facet enumeration (all triples at once, sign-canonicalized
and deduplicated), kept here so that the kernel's layer pass can be checked
against it. The fill-target reference is the library's earlier
`conflict_free_targets`, which kept every entry path; it runs the library's
A*, and the leaner version is checked against it. The fill-assignment
reference is the library's earlier fill round, which ran the library's gate
on every (unit, target) pair; the lazy round is checked against it. The
plan-document writer, the grid A* and `connected_components` are checked
against the library's earlier versions too: json.dumps(indent=2) plus a pair
regex, and the same two searches run on `Cell` objects. The support-shape
references are the library's earlier enumeration, which filtered every grown
shape by connectivity, and its earlier ranking, which sorted by rounded
margin and then by sorted cells; they take margins from the library's cache.
The lexicographic assignment's reference is the library's earlier
refinement, which re-solved sub-assignments with the library's Hungarian
solve row by row; it is exact on integer costs, where brute force is out of
reach. The placement search's reference is the library's earlier loop,
which visited every candidate; it asks the library's margin cache.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from collections import deque
from itertools import combinations, permutations

import numpy as np
from scipy.optimize import lsq_linear

from marsplan.controllability import (
    ROTOR_DIAGONALS,
    PhysicalParams,
    WrenchZonotope,
    build_zonotope,
    cached_subassembly_cm,
    faulty_cm,
    gravity_wrench,
    margin_ceiling,
    system_cm,
)
from marsplan.model import (
    HEALTHY,
    UNIT_FAULT,
    Cell,
    Configuration,
    FaultState,
    Subassembly,
    connected_components,
    is_connected,
    partition,
    rotor_fault,
)
from marsplan.errors import NoPathError
from marsplan.paths import Arena, GridPath, arena_around, astar_unit
from marsplan.planner import _BIG, _min_cost_assignment, lexicographic_min_assignment, step_verdict

_ZOOM_SIGMAS = (0.1, 0.02, 4e-3, 8e-4, 1.6e-4)
_POLISH_SIGMAS = (4e-4, 8e-5, 1.6e-5)
_N_STARTS = 10


def support(zono: WrenchZonotope, directions: np.ndarray) -> np.ndarray:
    """Support function h(d) = d.c + sum_i |d.g_i| for the rows d of `directions`."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    return d @ zono.center + np.abs(d @ zono.generators.T).sum(axis=1)


def sampling_cm(sub: Subassembly, params: PhysicalParams,
                total: int = 100_000, seed: int = 0) -> float:
    """Margin upper bound from `total` random support-function probes.

    min over unit directions d of (support(d) - d.g) equals the signed
    margin for interior and exterior hover wrenches alike, so any finite
    direction sample yields an upper bound. A global mixture batch (uniform,
    axis-whitened, and axis-focused directions, plus a few deterministic
    probes) seeds several distinct local minimizers; each is refined with
    progressively narrower Gaussian zoom batches and the overall winner gets
    a final polish, which keeps one narrow basin from hiding the true
    minimizing direction.
    """
    zono = build_zonotope(sub, params)
    g = gravity_wrench(sub.n, params)
    rng = np.random.default_rng(seed)
    if zono.m:
        scale = np.abs(zono.center) + np.abs(zono.generators).sum(axis=0) + 1e-12
    else:
        scale = np.ones(4)

    def margins(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        return d, support(zono, d) - d @ g

    zoom_budget = _N_STARTS * len(_ZOOM_SIGMAS) * 1_000
    polish_budget = 3 * 6_666
    probes = [np.vstack([np.eye(4), -np.eye(4)])]
    away = g - zono.center
    if np.linalg.norm(away) > 1e-12:
        probes.append(np.vstack([away, -away]))
    if zono.m >= 3:
        # Directions orthogonal to generator triples: for a full-dimensional
        # zonotope every boundary facet is spanned by its parallel generators,
        # so the minimizing direction of an interior margin lies among these.
        idx = np.array(list(combinations(range(zono.m), 3)))
        triples = zono.generators[idx]
        normals = np.linalg.svd(triples)[2][:, -1, :]
        probes.append(np.vstack([normals, -normals]))
    if zono.m:
        # For an exterior hover wrench the tight direction points from the
        # nearest zonotope point toward g; approximate that point by
        # projected gradient descent on ||center + lam @ G - g|| over the
        # coefficient box lam in [-1, 1]^m.
        G = zono.generators
        step = 1.0 / max(float(np.linalg.norm(G @ G.T, 2)), 1e-12)
        lam = np.zeros(zono.m)
        momentum = lam
        t_acc = 1.0
        for _ in range(2_000):
            grad = G @ (zono.center + momentum @ G - g)
            nxt = np.clip(momentum - step * grad, -1.0, 1.0)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
            momentum = nxt + ((t_acc - 1.0) / t_next) * (nxt - lam)
            lam, t_acc = nxt, t_next
        residual = zono.center + lam @ G - g
        if np.linalg.norm(residual) > 1e-12:
            probes.append(-residual[None, :])
    probe_dirs = np.vstack(probes)
    n_global = total - zoom_budget - polish_budget - len(probe_dirs)
    third = n_global // 3
    parts = [probe_dirs,
             rng.normal(size=(third, 4)),
             rng.normal(size=(third, 4)) / scale]
    axes = rng.integers(0, 4, size=n_global - 2 * third)
    focused = np.zeros((len(axes), 4))
    focused[np.arange(len(axes)), axes] = rng.choice([-1.0, 1.0], size=len(axes))
    parts.append(focused + 0.05 * rng.normal(size=(len(axes), 4)))
    dirs, vals = margins(np.vstack(parts))

    # Pick well-separated starting directions among the best global probes.
    order = np.argsort(vals)
    starts: list[np.ndarray] = []
    for i in order:
        d = dirs[int(i)]
        if all(abs(float(d @ s)) < 0.999 for s in starts):
            starts.append(d)
        if len(starts) == _N_STARTS:
            break

    best = float(vals.min())
    best_dir = dirs[int(vals.argmin())]
    for start in starts:
        cur_val = math.inf
        cur_dir = start
        for sigma in _ZOOM_SIGMAS:
            d, v = margins(cur_dir + sigma * rng.normal(size=(1_000, 4)))
            i = int(v.argmin())
            if v[i] < cur_val:
                cur_val = float(v[i])
                cur_dir = d[i]
        if cur_val < best:
            best = cur_val
            best_dir = cur_dir
    for sigma in _POLISH_SIGMAS:
        d, v = margins(best_dir + sigma * rng.normal(size=(6_666, 4)))
        i = int(v.argmin())
        if v[i] < best:
            best = float(v[i])
            best_dir = d[i]
    return best


def reference_facet_normals(generators: np.ndarray) -> np.ndarray:
    """Sign-canonical, deduplicated unit normals of all generator triples.

    The canonical sign makes the first component above 1e-9 in magnitude
    positive; duplicates are merged at 9-decimal resolution.
    """
    m = generators.shape[0]
    if m < 3:
        return np.zeros((0, 4))
    norms = np.linalg.norm(generators, axis=1)
    keep = norms > 0
    rows = generators[keep] / norms[keep][:, None]
    m = rows.shape[0]
    if m < 3:
        return np.zeros((0, 4))
    idx = np.fromiter(
        (i for trio in combinations(range(m), 3) for i in trio), dtype=np.intp
    ).reshape(-1, 3)
    triples = rows[idx]
    cols = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    normals = np.stack(
        [((-1.0) ** k) * np.linalg.det(triples[:, :, cols[k]]) for k in range(4)],
        axis=1,
    )
    lens = np.linalg.norm(normals, axis=1)
    ok = lens > 1e-9
    normals = normals[ok] / lens[ok][:, None]
    if not len(normals):
        return np.zeros((0, 4))
    sign = np.ones(len(normals))
    undecided = np.ones(len(normals), dtype=bool)
    for k in range(4):
        col = normals[:, k]
        pick = undecided & (np.abs(col) > 1e-9)
        sign[pick] = np.sign(col[pick])
        undecided &= ~pick
    normals = normals * sign[:, None]
    return np.unique(np.round(normals, 9), axis=0)


def reference_cm_signed_distance(zono: WrenchZonotope, g: np.ndarray) -> float:
    """Signed margin from `reference_facet_normals` over all triples at once.

    The exterior and rank-deficient cases project with scipy's
    `lsq_linear` (its default trust-region method), a solver independent of
    the library's bounded-variable least squares.
    """
    g = np.asarray(g, dtype=float)
    scale = zono.scale() + float(np.linalg.norm(g)) + 1.0
    tol = 1e-9 * scale

    def exterior() -> float:
        delta = g - zono.center
        if zono.m == 0:
            d = float(np.linalg.norm(delta))
        else:
            res = lsq_linear(zono.generators.T, delta, bounds=(-1.0, 1.0), tol=1e-14, max_iter=400)
            d = float(np.linalg.norm(zono.generators.T @ res.x - delta))
        return 0.0 if d <= tol else -d

    if zono.m < 4 or np.linalg.matrix_rank(zono.generators, tol=1e-12 * scale) < 4:
        return exterior()
    normals = reference_facet_normals(zono.generators)
    habs = np.abs(normals @ zono.generators.T).sum(axis=1)
    nc = normals @ zono.center
    ng = normals @ g
    margin = float(np.minimum(nc + habs - ng, -nc + habs + ng).min())
    return margin if margin >= 0.0 else exterior()


def reference_zonotope(sub: Subassembly, params: PhysicalParams) -> WrenchZonotope:
    """The wrench set built rotor by rotor from the allocation formula.

    Cells are taken from the footprint's min corner: x = cell.x - min(cell.x),
    y = cell.y - min(cell.y). Rotor i of the unit at (x, y) sits at
    r = (x * pitch - mean(x) * pitch + dx_i * arm, y * pitch - mean(y) *
    pitch + dy_i * arm), with (dx_i, dy_i) = ROTOR_DIAGONALS[i]; its
    generator is (f_max / 2) * [1, r_y, -r_x, spin_i * c_tau]. Rows go unit
    by unit, rotor by rotor, and the center is the generators' sum.
    """
    pitch, arm, half = params.module_pitch, params.arm_offset, 0.5 * params.rotor_thrust_max
    min_x, min_y = min(c.x for c in sub.cells), min(c.y for c in sub.cells)
    mean_x = sum(c.x - min_x for c in sub.cells) / sub.n
    mean_y = sum(c.y - min_y for c in sub.cells) / sub.n
    rows = []
    for cell, state in sub.units:
        for i in state.live_rotors():
            dx, dy = ROTOR_DIAGONALS[i]
            rx = (cell.x - min_x) * pitch - mean_x * pitch + dx * arm
            ry = (cell.y - min_y) * pitch - mean_y * pitch + dy * arm
            rows.append([half * 1.0, half * ry, half * -rx,
                         half * (params.spin[i] * params.yaw_torque_coeff)])
    generators = np.array(rows, dtype=float).reshape(len(rows), 4)
    return WrenchZonotope(center=generators.sum(axis=0), generators=generators)


def random_connected_cells(rng: np.random.Generator, n: int) -> list[Cell]:
    """Random 4-connected footprint grown cell by cell from the origin."""
    cells = {Cell(0, 0)}
    while len(cells) < n:
        base = sorted(cells)[rng.integers(len(cells))]
        cells.add(base.neighbors4()[rng.integers(4)])
    return sorted(cells)


def random_fault_states(rng: np.random.Generator, cells: list[Cell],
                        n_faults: int, unit_only: bool = False,
                        ) -> dict[Cell, FaultState]:
    faults: dict[Cell, FaultState] = {}
    if n_faults == 0:
        return faults
    picks = rng.choice(len(cells), size=n_faults, replace=False)
    for i in picks:
        if unit_only or rng.random() < 0.5:
            faults[cells[int(i)]] = UNIT_FAULT
        else:
            faults[cells[int(i)]] = rotor_fault(int(rng.integers(4)))
    return faults


def random_faulty_subassembly(rng: np.random.Generator, n: int,
                              n_faults: int) -> Subassembly:
    cells = random_connected_cells(rng, n)
    faults = random_fault_states(rng, cells, min(n_faults, n - 1))
    return partition(Configuration.from_cells(cells, faults))[0]


def criterion8_configs():
    """The 200 start configurations of the criterion-8 fuzz, in draw order."""
    rng = np.random.default_rng(777)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        n_faults = min(int(rng.integers(0, 3)), n - 1)
        cells = random_connected_cells(rng, n)
        yield Configuration.from_cells(
            cells, random_fault_states(rng, cells, n_faults, unit_only=True))


# Margin of a healthy-dead-healthy column, the support a lone unit fault needs.
LIVE_DEAD_LIVE_CM = 0.001549412110


def row_scenario(n: int, fault_x: int):
    """An n-unit row with a unit fault at x = fault_x, the vertical support
    column through the fault, and an arena around both."""
    cells = [Cell(x, 0) for x in range(n)]
    cfg = Configuration.from_cells(cells, {Cell(fault_x, 0): UNIT_FAULT})
    vm = frozenset([Cell(fault_x, -1), Cell(fault_x, 0), Cell(fault_x, 1)])
    arena = arena_around(list(cfg.cells) + list(vm))
    return cfg, vm, arena


# The eight rigid motions of the grid about the origin, as (a, b, c, d):
# (x, y) -> (a x + b y, c x + d y). QUARTER_TURN turns counterclockwise and
# MIRROR maps x to -x.
QUARTER_TURN = (0, -1, 1, 0)
MIRROR = (-1, 0, 0, 1)
GRID_MOTIONS = ((1, 0, 0, 1), QUARTER_TURN, (-1, 0, 0, -1), (0, 1, -1, 0),
                MIRROR, (1, 0, 0, -1), (0, 1, 1, 0), (0, -1, -1, 0))


def grid_image(sub: Subassembly, motion: tuple[int, int, int, int],
               offset: tuple[int, int] = (0, 0), move_rotors: bool = True) -> Subassembly:
    """`sub` moved by a grid motion, then shifted by `offset`.

    A rotor fault moves with its rotor: to the slot whose diagonal offset is
    the moved diagonal offset of the failed slot. With `move_rotors` off it
    keeps its slot, which in general gives a subassembly that is not
    congruent to `sub`.
    """
    a, b, c, d = motion

    def move(x: int, y: int) -> tuple[int, int]:
        return a * x + b * y, c * x + d * y

    units = {}
    for cell, state in sub.units:
        if move_rotors and state.rotor_index is not None:
            state = rotor_fault(ROTOR_DIAGONALS.index(move(*ROTOR_DIAGONALS[state.rotor_index])))
        x, y = move(cell.x, cell.y)
        units[Cell(x + offset[0], y + offset[1])] = state
    (image,) = partition(Configuration(units))
    return image


def bfs_unit_length(start: Cell, goal: Cell, obstacles: frozenset[Cell],
                    arena: Arena) -> int | None:
    """Shortest 4-connected path length, or None when unreachable."""
    if goal in obstacles or goal not in arena:
        return None
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cell, dist = queue.popleft()
        for nb in cell.neighbors4():
            if nb == goal:
                return dist + 1
            if nb in seen or nb in obstacles or nb not in arena:
                continue
            seen.add(nb)
            queue.append((nb, dist + 1))
    return None


def footprint_fits(footprint: frozenset[Cell], delta: tuple[int, int],
                   obstacles: frozenset[Cell], arena: Arena) -> bool:
    """The footprint shifted by delta lies in the arena and off the obstacles."""
    return all(c + delta in arena and c + delta not in obstacles for c in footprint)


def bfs_footprint_length(footprint: frozenset[Cell], ref: Cell, goal_ref: Cell,
                         obstacles: frozenset[Cell], arena: Arena) -> int | None:
    """Shortest rigid-translation path length over placements, or None."""
    offsets = [(c.x - ref.x, c.y - ref.y) for c in footprint]

    def fits(r: Cell) -> bool:
        return all(r + off in arena and r + off not in obstacles for off in offsets)

    if not fits(ref) or not fits(goal_ref):
        return None
    if ref == goal_ref:
        return 0
    seen = {ref}
    queue = deque([(ref, 0)])
    while queue:
        cell, dist = queue.popleft()
        for nb in cell.neighbors4():
            if nb in seen or not fits(nb):
                continue
            if nb == goal_ref:
                return dist + 1
            seen.add(nb)
            queue.append((nb, dist + 1))
    return None


def reference_conflict_free_targets(config: Configuration, target_cells,
                                    arena: Arena) -> list[Cell]:
    """`conflict_free_targets` as it was when it stored every entry path."""
    occupied = config.cell_set
    pending = sorted((t for t in target_cells if t not in occupied))
    if not pending:
        return []
    target_set = set(target_cells)
    entry = None
    for cell in arena.cells_on_ring():
        if cell not in occupied and cell not in target_set:
            entry = cell
            break
    if entry is None:
        raise NoPathError("no free entry cell on the arena ring")
    alive = dict.fromkeys(pending, True)
    reachable: dict[Cell, GridPath] = {}
    for t in pending:
        if not alive[t]:
            continue
        try:
            path = astar_unit(entry, t, occupied, arena)
        except NoPathError:
            alive[t] = False
            continue
        reachable[t] = path
        on_path = set(path.waypoints)
        for other in pending:
            if other != t and alive[other] and other in on_path:
                alive[other] = False
    return [t for t in pending if alive[t] and t in reachable]


def gated_fill_assignment(config: Configuration, targets: list[Cell], candidates: list[Cell],
                          arena: Arena, params: PhysicalParams, epsilon: float,
                          ) -> list[tuple[Cell, Cell]]:
    """A fill round's (target, unit) pairs from the fully gated cost matrix.

    Every pair costs its A* flight length when `step_verdict` passes that
    flight, else _BIG; targets assigned a _BIG pair are left out.
    """
    cost = np.full((len(targets), len(candidates)), float(_BIG))
    for j, cand in enumerate(candidates):
        obstacles = frozenset(config.cell_set - {cand})
        for i, t in enumerate(targets):
            try:
                path = astar_unit(cand, t, obstacles, arena)
            except NoPathError:
                continue
            if step_verdict(config, (cand,), path, arena, params, epsilon)[2] is None:
                cost[i, j] = path.length
    cols = lexicographic_min_assignment(cost)
    return [(targets[i], candidates[j]) for i, j in enumerate(cols) if cost[i, j] < _BIG]


def ranked_donors(config: Configuration, target_cm: float, vacancy: Cell, params: PhysicalParams,
                  c1: float, c2: float, reserved: frozenset[Cell], arena: Arena,
                  epsilon: float) -> list[tuple[Cell, int]]:
    """(donor, flight length) of every eligible donor, sorted by the donor rank.

    Scores every donor: its exact detach margin (no floor) must reach
    epsilon, and its BFS length to the vacancy around the other units must
    exist. The rank is round(c1 * delta^2 - c2 * length, 9), delta the
    detach margin minus target_cm, then (y, x).
    """
    ranked = []
    for donor in config.cells:
        if config.state(donor).is_faulty or donor in reserved:
            continue
        after = config.detach(donor)
        after_cm = system_cm(after, params)
        length = bfs_unit_length(donor, vacancy, frozenset(after.cells), arena)
        if after_cm < epsilon or length is None:
            continue
        delta = after_cm - target_cm
        ranked.append((round(c1 * delta * delta - c2 * length, 9), donor, length))
    return [(donor, length) for _, donor, length in sorted(ranked)]


def exhaustive_parking(blocker: Cell, spots: list[Cell], gate, by_length: bool):
    """Gated path to the parking spot of least rank, gating every spot.

    `gate(spot)` returns the gated path or None. The rank is (path length,
    (y, x)) with `by_length`, otherwise (Manhattan distance, (y, x)).
    """
    best = None
    for spot in spots:
        path = gate(spot)
        if path is None:
            continue
        rank = (path.length if by_length else blocker.manhattan(spot), spot)
        if best is None or rank < best[0]:
            best = (rank, path)
    return None if best is None else best[1]


def brute_force_assignment(cost: np.ndarray) -> tuple[float, list[int]]:
    """Exact minimum assignment by enumerating permutations (rows <= cols).

    Returns (total, columns) where columns is the lexicographically smallest
    optimal choice in row order — the same refinement the library promises.
    """
    nr, nc = cost.shape
    best_total = None
    best_cols = None
    for cols in permutations(range(nc), nr):
        total = sum(cost[i, c] for i, c in enumerate(cols))
        if best_total is None or total < best_total - 1e-12 or (
                abs(total - best_total) <= 1e-12 and list(cols) < best_cols):
            best_total = total
            best_cols = list(cols)
    return float(best_total), best_cols


def reference_lexicographic_min_assignment(cost: list[list[int]]) -> list[int]:
    """The row-major smallest minimum-cost assignment (rows <= cols), by
    refinement: starting from one optimum, each row in turn takes the
    smallest free column that an optimal completion of the rows below keeps
    at the minimum (within 1e-6, exact for integer costs)."""
    c = [list(map(float, row)) for row in cost]
    nr, nc = len(c), len(c[0])
    chosen = _min_cost_assignment(c)
    best_total = sum(c[i][j] for i, j in enumerate(chosen))
    for r in range(nr):
        for col in range(chosen[r]):
            if col in chosen[:r]:
                continue
            trial = chosen[:r] + [col]
            if r + 1 < nr:
                free = [j for j in range(nc) if j not in trial]
                rest = _min_cost_assignment([[row[j] for j in free] for row in c[r + 1:]])
                trial += [free[j] for j in rest]
            if sum(c[i][j] for i, j in enumerate(trial)) - best_total <= 1e-6:
                chosen = trial
                break
    return chosen


def enumerate_shapes_brute_force(anchors, k: int) -> set[frozenset[Cell]]:
    """All 4-connected sets of |anchors| + k cells containing every anchor.

    Exhaustive and algorithm-independent: any connected set of n cells has
    graph diameter at most n - 1, so every member lies within Manhattan
    radius n - 1 of any fixed anchor; enumerate k-subsets of that disc and
    keep the connected ones.
    """
    anchors = frozenset(anchors)
    a0 = min(anchors)
    radius = len(anchors) + k - 1
    disc = [
        a0 + (dx, dy)
        for dx in range(-radius, radius + 1)
        for dy in range(-radius, radius + 1)
        if abs(dx) + abs(dy) <= radius
    ]
    free = [c for c in disc if c not in anchors]
    shapes = set()
    for extra in combinations(free, k):
        shape = anchors | set(extra)
        if is_connected(shape):
            shapes.add(frozenset(shape))
    return shapes


def reference_enumerate_connected_shapes(anchor, k: int) -> list[frozenset[Cell]]:
    """`vmcs.enumerate_connected_shapes` as it was when it filtered every
    grown shape by connectivity."""
    anchor = frozenset(anchor)
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


def reference_ranked_support_shapes(faults, k: int, params: PhysicalParams,
                                    floor: float) -> list[tuple[frozenset[Cell], float]]:
    """`vmcs.ranked_support_shapes` as it was when it sorted by rounded
    margin, then by sorted cells, over the reference enumeration."""
    ranked = []
    for shape in reference_enumerate_connected_shapes(faults.keys(), k):
        sub = Subassembly(tuple((c, faults.get(c, HEALTHY)) for c in sorted(shape)))
        ranked.append((shape, cached_subassembly_cm(sub, params, floor)))
    ranked.sort(key=lambda it: (-round(it[1], 9), sorted(it[0])))
    return ranked


# json.dumps(indent=2) breaks a structural pair over lines; it escapes a
# newline inside a string, so a name or note never matches
_PAIR = re.compile(r"\[\n\s+(-?\d+),\n\s+(-?\d+)\n\s+\]")


def reference_document_bytes(doc: dict) -> bytes:
    """`document_to_bytes` as it was: json.dumps(indent=2), then every pair
    that it broke over lines joined into one line by a regex."""
    text = json.dumps(doc, indent=2)
    text = _PAIR.sub(r"[\1, \2]", text)
    return (text + "\n").encode()


def reference_rigid_search(footprint, ref: Cell, goal_ref: Cell, obstacles,
                           arena: Arena) -> GridPath:
    """The library's rigid-footprint A* as it was, on `Cell` states."""
    others = tuple((c.x - ref.x, c.y - ref.y) for c in footprint if c != ref)
    dxs = [0] + [dx for dx, _ in others]
    dys = [0] + [dy for _, dy in others]
    lo_x, hi_x = arena.min_x - min(dxs), arena.max_x - max(dxs)
    lo_y, hi_y = arena.min_y - min(dys), arena.max_y - max(dys)

    def fits(pos: Cell) -> bool:
        y, x = pos
        if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y) or pos in obstacles:
            return False
        for dx, dy in others:
            if Cell(x + dx, y + dy) in obstacles:
                return False
        return True

    if not fits(ref):
        raise NoPathError(f"start placement at {ref} collides or leaves the arena")
    if not fits(goal_ref):
        raise NoPathError(f"goal placement at {goal_ref} collides or leaves the arena")
    if ref == goal_ref:
        return GridPath((ref,))
    open_heap = [(ref.manhattan(goal_ref), ref)]
    g_score = {ref: 0}
    parent: dict[Cell, Cell] = {}
    closed: set[Cell] = set()
    while open_heap:
        _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == goal_ref:
            out = [cur]
            while cur in parent:
                cur = parent[cur]
                out.append(cur)
            return GridPath(tuple(reversed(out)))
        closed.add(cur)
        g = g_score[cur]
        for nb in cur.neighbors4():
            if not fits(nb):
                continue
            tentative = g + 1
            if tentative < g_score.get(nb, 1 << 30):
                g_score[nb] = tentative
                parent[nb] = cur
                heapq.heappush(open_heap, (tentative + nb.manhattan(goal_ref), nb))
    raise NoPathError(f"no path moving {ref} -> {goal_ref}")


def reference_connected_components(cells) -> list[tuple[Cell, ...]]:
    """The library's `connected_components` as it was, on `Cell` neighbours."""
    remaining = set(cells)
    comps: list[tuple[Cell, ...]] = []
    for seed in sorted(remaining):
        if seed not in remaining:
            continue
        comp = {seed}
        remaining.discard(seed)
        queue = deque([seed])
        while queue:
            cur = queue.popleft()
            for nb in cur.neighbors4():
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    queue.append(nb)
        comps.append(tuple(sorted(comp)))
    return comps


def reference_optimal_configuration(config: Configuration, params: PhysicalParams,
                                    ) -> tuple[Configuration, float]:
    """`vmcs.optimal_configuration` as it was before it stopped at its
    ceiling: every candidate is visited and skipped by its own ceiling."""
    fault_states = sorted(s for _, s in config.items() if s.is_faulty)
    cells = config.cells
    components = connected_components(cells)
    component_of = {c: i for i, comp in enumerate(components) for c in comp}
    best = (-math.inf, -math.inf, {})
    for combo in combinations(cells, len(fault_states)):
        for order in sorted(set(permutations(fault_states))):
            placement = dict(zip(combo, order))
            held: dict[int, list[FaultState]] = {}
            for cell, state in placement.items():
                held.setdefault(component_of[cell], []).append(state)
            ceiling = min(margin_ceiling(len(components[i]), states, params) for i, states in held.items())
            if round(ceiling, 9) <= best[0]:
                continue
            subs = (Subassembly(tuple((c, placement.get(c, HEALTHY)) for c in comp)) for comp in components)
            cm = faulty_cm(subs, params, best[0])
            if round(cm, 9) > best[0]:
                best = (round(cm, 9), cm, placement)
    return Configuration.from_cells(cells, best[2]), best[1]
