"""Grid path planning for single units and rigid subassemblies.

One A* search with the Manhattan heuristic moves a rigid footprint on
4-connected steps inside a finite planning arena (the relevant bounding box
inflated by two cells); a single unit is the one-cell footprint. Ties are
broken deterministically: among equal f-scores the state whose reference cell
comes first in the (y, x) cell order is expanded first, so identical inputs
always yield identical paths. The search runs on the indices of a flat
row-major grid of reference positions, whose order is the (y, x) order, so
the one-int heap key f * size + index breaks ties as (f, cell) would; Cells
are built only for the returned waypoints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import NoPathError
from .model import Cell

__all__ = [
    "Arena", "GridPath", "NoPathError", "arena_around", "astar_unit",
    "astar_subassembly", "swept_cells", "unit_flight",
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

    def cells(self) -> tuple[Cell, ...]:
        """Every cell of the rectangle in (y, x) order."""
        return self._cells_and_ring[0]

    def cells_on_ring(self) -> tuple[Cell, ...]:
        """Perimeter cells of the rectangle in (y, x) order."""
        return self._cells_and_ring[1]

    @cached_property
    def _cells_and_ring(self) -> tuple[tuple[Cell, ...], tuple[Cell, ...]]:
        cells = tuple(Cell(x, y) for y in range(self.min_y, self.max_y + 1)
                      for x in range(self.min_x, self.max_x + 1))
        return cells, tuple(c for c in cells if c.x in (self.min_x, self.max_x)
                            or c.y in (self.min_y, self.max_y))


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
    """Shortest 4-connected path for a single unit whose start cell is off
    `obstacles`; zero-length when start == goal."""
    return _rigid_search((start,), start, goal, obstacles, arena)


def unit_flight(start: Cell, goal: Cell, occupied: frozenset[Cell] | set[Cell],
                arena: Arena) -> GridPath | None:
    """The planner's one route of a candidate unit flight: `astar_unit` from
    `start` around the other `occupied` cells, or None when it finds no path.
    `start` need not be occupied (the fill's virtual entry unit)."""
    try:
        return astar_unit(start, goal, occupied - {start}, arena)
    except NoPathError:
        return None


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
    obstacles. The states are indices of a row-major grid of the positions
    that keep the footprint in the arena, framed by one blocked cell on each
    side, so a step never leaves the grid. A bytearray marks the blocked
    indices: the frame, each obstacle shifted back by each footprint offset,
    and every closed state. Obstacles may be Cells or plain (y, x) tuples.
    """
    ry, rx = ref
    offsets = [(y - ry, x - rx) for y, x in footprint]
    # (y0, x0) is the frame's corner; w and h count the positions plus the frame
    y0 = arena.min_y - min(dy for dy, _ in offsets) - 1
    x0 = arena.min_x - min(dx for _, dx in offsets) - 1
    h = arena.max_y - max(dy for dy, _ in offsets) - y0 + 2
    w = arena.max_x - max(dx for _, dx in offsets) - x0 + 2
    # a footprint wider or taller than the arena leaves no position (w or h <= 2)
    blocked = bytearray(b"\1" * w + (b"\1" + b"\0" * (w - 2) + b"\1") * (h - 2) + b"\1" * w)
    for dy, dx in offsets:
        for oy, ox in obstacles:
            y, x = oy - dy - y0, ox - dx - x0
            if 0 < y < h - 1 and 0 < x < w - 1:
                blocked[y * w + x] = 1

    def index(cell: Cell) -> int | None:
        y, x = cell[0] - y0, cell[1] - x0
        return y * w + x if 0 < y < h - 1 and 0 < x < w - 1 and not blocked[y * w + x] else None

    start = index(ref)
    if start is None:
        raise NoPathError(f"start placement at {ref} collides or leaves the arena")
    goal = index(goal_ref)
    if goal is None:
        raise NoPathError(f"goal placement at {goal_ref} collides or leaves the arena")
    size = w * h                         # above every index and every path length
    goal_y, goal_x = divmod(goal, w)
    g_score, parent = [size] * size, [0] * size
    g_score[start] = 0
    open_heap = [(abs(ry - goal_ref[0]) + abs(rx - goal_ref[1])) * size + start]
    while open_heap:
        key = heapq.heappop(open_heap)
        cur = key % size
        if blocked[cur]:                 # closed by an earlier entry of less f
            continue
        if cur == goal:
            path = [cur]
            while cur != start:
                cur = parent[cur]
                path.append(cur)
            return GridPath(tuple(Cell(i % w + x0, i // w + y0) for i in reversed(path)))
        blocked[cur] = 1
        tentative = g_score[cur] + 1
        # a step toward the goal keeps f; a step away raises it by 2
        keep = key - cur
        rise = keep + 2 * size
        y, x = divmod(cur, w)
        # the order of Cell.neighbors4, unrolled
        nb = cur - w
        if tentative < g_score[nb] and not blocked[nb]:
            g_score[nb], parent[nb] = tentative, cur
            heapq.heappush(open_heap, (keep if y > goal_y else rise) + nb)
        nb = cur - 1
        if tentative < g_score[nb] and not blocked[nb]:
            g_score[nb], parent[nb] = tentative, cur
            heapq.heappush(open_heap, (keep if x > goal_x else rise) + nb)
        nb = cur + 1
        if tentative < g_score[nb] and not blocked[nb]:
            g_score[nb], parent[nb] = tentative, cur
            heapq.heappush(open_heap, (keep if x < goal_x else rise) + nb)
        nb = cur + w
        if tentative < g_score[nb] and not blocked[nb]:
            g_score[nb], parent[nb] = tentative, cur
            heapq.heappush(open_heap, (keep if y < goal_y else rise) + nb)
    raise NoPathError(f"no path moving {ref} -> {goal_ref}")


def swept_cells(footprint: Iterable[Cell], ref: Cell, path: GridPath) -> frozenset[Cell]:
    """Union of footprint placements along a rigid path (includes start and goal)."""
    footprint = tuple(footprint)
    cells: set[Cell] = set()
    for wp in path.waypoints:
        delta = (wp.x - ref.x, wp.y - ref.y)
        cells.update(c + delta for c in footprint)
    return frozenset(cells)
