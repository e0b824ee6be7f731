"""Grid path planning for single units and rigid subassemblies.

Both planners run A* with the Manhattan heuristic on 4-connected moves inside
a finite planning arena (the relevant bounding box inflated by two cells).
Ties are broken deterministically: among equal f-scores the state whose
reference cell has the smaller (y, x) key is expanded first, so identical
inputs always yield identical paths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .errors import NoPathError
from .model import Cell, cell_key

__all__ = [
    "Arena", "GridPath", "NoPathError", "arena_around", "astar_unit",
    "astar_subassembly", "swept_cells",
]


@dataclass(frozen=True)
class Arena:
    """Inclusive rectangle of cells the planner may use."""

    min_x: int
    min_y: int
    max_x: int
    max_y: int

    def __contains__(self, cell: Cell) -> bool:
        return self.min_x <= cell.x <= self.max_x and self.min_y <= cell.y <= self.max_y

    def cells_on_ring(self) -> list[Cell]:
        """Perimeter cells of the rectangle in (y, x) order."""
        ring = set()
        for x in range(self.min_x, self.max_x + 1):
            ring.add(Cell(x, self.min_y))
            ring.add(Cell(x, self.max_y))
        for y in range(self.min_y, self.max_y + 1):
            ring.add(Cell(self.min_x, y))
            ring.add(Cell(self.max_x, y))
        return sorted(ring, key=cell_key)


def arena_around(cells: Iterable[Cell], margin: int = 2) -> Arena:
    cells = list(cells)
    if not cells:
        raise ValueError("cannot build an arena around no cells")
    xs = [c.x for c in cells]
    ys = [c.y for c in cells]
    return Arena(min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)


@dataclass(frozen=True)
class GridPath:
    """Sequence of 4-adjacent waypoints for one moving unit or reference cell."""

    waypoints: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("a path needs at least one waypoint")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a.manhattan(b) != 1:
                raise ValueError(f"waypoints {a} and {b} are not 4-adjacent")

    @property
    def length(self) -> int:
        return len(self.waypoints) - 1

    @property
    def start(self) -> Cell:
        return self.waypoints[0]

    @property
    def goal(self) -> Cell:
        return self.waypoints[-1]


def _reconstruct(parent: dict[Cell, Cell], state: Cell) -> list[Cell]:
    out = [state]
    while state in parent:
        state = parent[state]
        out.append(state)
    out.reverse()
    return out


def astar_unit(start: Cell, goal: Cell, obstacles: frozenset[Cell] | set[Cell],
               arena: Arena) -> GridPath:
    """Shortest 4-connected path for a single unit.

    The moving unit's own start cell must not be in `obstacles` (callers pass
    the occupied set minus the mover). A zero-length path is returned when
    start == goal.
    """
    if start not in arena or goal not in arena:
        raise NoPathError(f"{start} -> {goal} leaves the planning arena")
    if goal in obstacles:
        raise NoPathError(f"goal {goal} is occupied")
    if start == goal:
        return GridPath((start,))
    open_heap: list[tuple[int, tuple[int, int], Cell]] = []
    g_score = {start: 0}
    parent: dict[Cell, Cell] = {}
    blocking: set[Cell] = set()
    heapq.heappush(open_heap, (start.manhattan(goal), start.key(), start))
    closed: set[Cell] = set()
    while open_heap:
        f, _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == goal:
            return GridPath(tuple(_reconstruct(parent, cur)))
        closed.add(cur)
        g = g_score[cur]
        for nb in cur.neighbors4():
            if nb not in arena:
                continue
            if nb in obstacles:
                blocking.add(nb)
                continue
            tentative = g + 1
            if tentative < g_score.get(nb, 1 << 30):
                g_score[nb] = tentative
                parent[nb] = cur
                heapq.heappush(open_heap, (tentative + nb.manhattan(goal), nb.key(), nb))
    raise NoPathError(f"no path {start} -> {goal}", frozenset(blocking))


def astar_subassembly(footprint: frozenset[Cell] | set[Cell], ref: Cell, goal_ref: Cell,
                      obstacles: frozenset[Cell] | set[Cell], arena: Arena) -> GridPath:
    """Shortest rigid translation of a footprint, reported as ref-cell waypoints.

    States are translations of the whole footprint; every intermediate
    placement must avoid `obstacles` (the stationary occupied cells) and stay
    inside the arena. `ref` is one cell of the footprint whose waypoints are
    recorded; the move ends when ref reaches `goal_ref`.
    """
    footprint = frozenset(footprint)
    if ref not in footprint:
        raise ValueError("reference cell must belong to the footprint")
    target_delta = (goal_ref.x - ref.x, goal_ref.y - ref.y)
    start_delta = (0, 0)

    def fits(delta: tuple[int, int]) -> bool:
        ok = True
        for c in footprint:
            dest = c + delta
            if dest not in arena:
                ok = False
            elif dest in obstacles:
                blocking.add(dest)
                ok = False
        return ok

    blocking: set[Cell] = set()
    if not fits(start_delta):
        raise NoPathError("footprint start placement collides", frozenset(blocking))
    if not fits(target_delta):
        raise NoPathError("footprint goal placement collides or leaves arena", frozenset(blocking))
    if target_delta == start_delta:
        return GridPath((ref,))

    def h(delta: tuple[int, int]) -> int:
        return abs(delta[0] - target_delta[0]) + abs(delta[1] - target_delta[1])

    g_score = {start_delta: 0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    open_heap: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    heapq.heappush(open_heap, (h(start_delta), (ref + start_delta).key(), start_delta))
    closed: set[tuple[int, int]] = set()
    while open_heap:
        f, _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == target_delta:
            deltas = _reconstruct(parent, cur)
            return GridPath(tuple(ref + d for d in deltas))
        closed.add(cur)
        g = g_score[cur]
        for step in ((0, -1), (-1, 0), (1, 0), (0, 1)):
            nd = (cur[0] + step[0], cur[1] + step[1])
            if not fits(nd):
                continue
            tentative = g + 1
            if tentative < g_score.get(nd, 1 << 30):
                g_score[nd] = tentative
                parent[nd] = cur
                heapq.heappush(open_heap, (tentative + h(nd), (ref + nd).key(), nd))
    raise NoPathError(
        f"no rigid path moving ref {ref} -> {goal_ref}", frozenset(blocking)
    )


def swept_cells(footprint: Iterable[Cell], ref: Cell, path: GridPath) -> frozenset[Cell]:
    """Union of footprint placements along a rigid path (includes start and goal)."""
    footprint = tuple(footprint)
    cells: set[Cell] = set()
    for wp in path.waypoints:
        delta = (wp.x - ref.x, wp.y - ref.y)
        cells.update(c + delta for c in footprint)
    return frozenset(cells)
