"""Grid path planning for single units and rigid subassemblies.

One A* search with the Manhattan heuristic moves a rigid footprint on
4-connected steps inside a finite planning arena (the relevant bounding box
inflated by two cells); a single unit is the one-cell footprint. Ties are
broken deterministically: among equal f-scores the state whose reference cell
comes first in the (y, x) cell order is expanded first, so identical inputs
always yield identical paths. The search runs on plain (y, x) tuples, which
order exactly as Cells do, so the ties are the same as on Cells; Cells are
built only for the returned waypoints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .errors import NoPathError
from .model import Cell

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

    def cells(self) -> list[Cell]:
        """Every cell of the rectangle in (y, x) order."""
        return [Cell(x, y) for y in range(self.min_y, self.max_y + 1)
                for x in range(self.min_x, self.max_x + 1)]

    def cells_on_ring(self) -> list[Cell]:
        """Perimeter cells of the rectangle in (y, x) order."""
        return [c for c in self.cells()
                if c.x in (self.min_x, self.max_x) or c.y in (self.min_y, self.max_y)]


# Free cells the arena keeps on every side of the cells it is built around.
_ARENA_MARGIN = 2


def arena_around(cells: Iterable[Cell]) -> Arena:
    cells = list(cells)
    if not cells:
        raise ValueError("cannot build an arena around no cells")
    xs = [c.x for c in cells]
    ys = [c.y for c in cells]
    return Arena(min(xs) - _ARENA_MARGIN, min(ys) - _ARENA_MARGIN,
                 max(xs) + _ARENA_MARGIN, max(ys) + _ARENA_MARGIN)


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


def astar_unit(start: Cell, goal: Cell, obstacles: frozenset[Cell] | set[Cell],
               arena: Arena) -> GridPath:
    """Shortest 4-connected path for a single unit.

    The moving unit's own start cell must not be in `obstacles` (callers pass
    the occupied set minus the mover). A zero-length path is returned when
    start == goal.
    """
    return _rigid_search((start,), start, goal, obstacles, arena)


def astar_subassembly(footprint: frozenset[Cell] | set[Cell], ref: Cell, goal_ref: Cell,
                      obstacles: frozenset[Cell] | set[Cell], arena: Arena) -> GridPath:
    """Shortest rigid translation of a footprint, reported as ref-cell waypoints.

    States are translations of the whole footprint; every intermediate
    placement must avoid `obstacles` (the stationary occupied cells) and stay
    inside the arena. `ref` is one cell of the footprint whose waypoints are
    recorded; the move ends when ref reaches `goal_ref`.
    """
    if ref not in footprint:
        raise ValueError("reference cell must belong to the footprint")
    return _rigid_search(footprint, ref, goal_ref, obstacles, arena)


def _rigid_search(footprint: Iterable[Cell], ref: Cell, goal_ref: Cell,
                  obstacles: frozenset[Cell] | set[Cell], arena: Arena) -> GridPath:
    """A* over the positions of the reference cell of a rigid footprint.

    A single unit is the one-cell footprint whose reference is itself. A
    position fits when every footprint cell lies in the arena and off the
    obstacles; the arena test is one range check on the reference cell.
    States are plain (y, x) tuples, which hash, compare and order as the
    Cells they stand for; Cells are built only for the returned waypoints.
    """
    ry, rx = ref
    gy, gx = goal_ref
    others = tuple((y - ry, x - rx) for y, x in footprint if (y, x) != (ry, rx))
    dys = [0] + [dy for dy, _ in others]
    dxs = [0] + [dx for _, dx in others]
    lo_x, hi_x = arena.min_x - min(dxs), arena.max_x - max(dxs)
    lo_y, hi_y = arena.min_y - min(dys), arena.max_y - max(dys)

    def fits(y: int, x: int) -> bool:
        if not (lo_x <= x <= hi_x and lo_y <= y <= hi_y) or (y, x) in obstacles:
            return False
        for dy, dx in others:
            if (y + dy, x + dx) in obstacles:
                return False
        return True

    if not fits(ry, rx):
        raise NoPathError(f"start placement at {ref} collides or leaves the arena")
    if not fits(gy, gx):
        raise NoPathError(f"goal placement at {goal_ref} collides or leaves the arena")
    start, goal = (ry, rx), (gy, gx)
    if start == goal:
        return GridPath((ref,))
    open_heap = [(abs(ry - gy) + abs(rx - gx), start)]
    g_score = {start: 0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    closed: set[tuple[int, int]] = set()
    while open_heap:
        _, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == goal:
            cells = [cur]
            while cur in parent:
                cur = parent[cur]
                cells.append(cur)
            return GridPath(tuple(Cell(x, y) for y, x in reversed(cells)))
        closed.add(cur)
        tentative = g_score[cur] + 1
        y, x = cur
        # the order of Cell.neighbors4
        for nb in ((y - 1, x), (y, x - 1), (y, x + 1), (y + 1, x)):
            if tentative < g_score.get(nb, 1 << 30) and fits(*nb):
                g_score[nb] = tentative
                parent[nb] = cur
                ny, nx = nb
                heapq.heappush(open_heap, (tentative + abs(ny - gy) + abs(nx - gx), nb))
    raise NoPathError(f"no path moving {ref} -> {goal_ref}")


def swept_cells(footprint: Iterable[Cell], ref: Cell, path: GridPath) -> frozenset[Cell]:
    """Union of footprint placements along a rigid path (includes start and goal)."""
    footprint = tuple(footprint)
    cells: set[Cell] = set()
    for wp in path.waypoints:
        delta = (wp.x - ref.x, wp.y - ref.y)
        cells.update(c + delta for c in footprint)
    return frozenset(cells)
