"""Grid model for modular aerial robot assemblies.

Units occupy integer grid cells (x to the right, y up) and connect to their
4-neighbors. A Configuration is an immutable snapshot of which cells are
occupied and what health state each unit is in. A Cell is the tuple (y, x),
so the tuple's own comparison, equality and hash are the one cell order that
all deterministic tie-breaking in the package uses: plain `sorted` and `min`
over cells follow it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping


class Cell(tuple):
    """Grid cell built as Cell(x, y) and held as the tuple (y, x)."""

    __slots__ = ()

    def __new__(cls, x: int, y: int) -> "Cell":
        return tuple.__new__(cls, (y, x))

    x = property(operator.itemgetter(1))
    y = property(operator.itemgetter(0))

    def __getnewargs__(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __repr__(self) -> str:
        return f"Cell(x={self.x!r}, y={self.y!r})"

    def __add__(self, delta: tuple[int, int]) -> "Cell":
        if isinstance(delta, Cell):
            raise TypeError("a Cell is a position, not a (dx, dy) displacement")
        y, x = self
        return Cell(x + delta[0], y + delta[1])

    def __radd__(self, other: object) -> "Cell":
        # a Cell is a tuple subclass, so without this `(1, 0) + cell` would
        # concatenate into a 4-tuple
        raise TypeError("add a (dx, dy) displacement to a Cell, not a Cell to a tuple")

    def manhattan(self, other: "Cell") -> int:
        return abs(self[1] - other[1]) + abs(self[0] - other[0])

    def neighbors4(self) -> tuple["Cell", "Cell", "Cell", "Cell"]:
        y, x = self
        return (Cell(x, y - 1), Cell(x - 1, y), Cell(x + 1, y), Cell(x, y + 1))


class FaultKind(str, Enum):
    HEALTHY = "healthy"
    ROTOR = "rotor"
    UNIT = "unit"


@dataclass(frozen=True, slots=True, order=True)
class FaultState:
    """Health of one unit: fully healthy, one dead rotor, or fully dead.

    A rotor fault names which of the four rotors is lost; a unit fault stops
    all four rotors but the unit keeps its mass and stays attached. States
    sort healthy first, then rotor faults by rotor, then the unit fault.
    """

    kind: FaultKind = FaultKind.HEALTHY
    rotor_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind is FaultKind.ROTOR:
            if self.rotor_index not in (0, 1, 2, 3):
                raise ValueError(f"rotor fault needs rotor_index in 0..3, got {self.rotor_index}")
        elif self.rotor_index is not None:
            raise ValueError(f"rotor_index only valid for rotor faults, got {self.rotor_index}")

    @property
    def is_faulty(self) -> bool:
        return self.kind is not FaultKind.HEALTHY

    def live_rotors(self) -> tuple[int, ...]:
        if self.kind is FaultKind.HEALTHY:
            return (0, 1, 2, 3)
        if self.kind is FaultKind.ROTOR:
            return tuple(i for i in range(4) if i != self.rotor_index)
        return ()


HEALTHY = FaultState()
UNIT_FAULT = FaultState(FaultKind.UNIT)


def rotor_fault(index: int) -> FaultState:
    return FaultState(FaultKind.ROTOR, index)


def require_cell(cell: object) -> None:
    if not isinstance(cell, Cell):
        raise TypeError(f"expected a Cell, got {cell!r}: a plain tuple would be read as (y, x)")


class CellOccupiedError(ValueError):
    pass


class CellNotOccupiedError(ValueError):
    pass


class DestinationCollisionError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Subassembly:
    """One 4-connected component of a configuration, with unit states; its
    units, and so its `cells`, are in (y, x) order, as `partition` builds them.
    A cell that is not a `Cell` raises TypeError."""

    units: tuple[tuple[Cell, FaultState], ...]

    def __post_init__(self) -> None:
        for c, _ in self.units:
            require_cell(c)

    @property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(c for c, _ in self.units)

    @property
    def faulty_cells(self) -> tuple[Cell, ...]:
        return tuple(c for c, s in self.units if s.is_faulty)

    @property
    def n(self) -> int:
        return len(self.units)

    def canonical(self) -> tuple[tuple[int, int, FaultState], ...]:
        """Translation-normalized signature: the margin cache's translation
        key. Turned and mirrored copies have other signatures."""
        mx = min(c.x for c, _ in self.units)
        my = min(c.y for c, _ in self.units)
        return tuple((c.x - mx, c.y - my, s) for c, s in self.units)


class Configuration:
    """Immutable assignment of fault states to occupied grid cells; `cells`,
    `faulty_cells` and `items()` are in (y, x) order whatever the input order.
    Cells must be `Cell`s: a plain (x, y) tuple equals the swapped cell, so
    construction and `state` raise TypeError for one and `in` is False.

    Edits (detach/translate_set) return new Configuration values. An
    empty configuration is permitted so that transient states with a whole
    subassembly in flight remain representable; scenario inputs require at
    least one unit.
    """

    __slots__ = ("_units", "_hash")

    def __init__(self, units: Mapping[Cell, FaultState]):
        for c in units:
            require_cell(c)
        self._units: dict[Cell, FaultState] = dict(sorted(units.items()))
        self._hash: int | None = None

    @classmethod
    def _of_cells(cls, units: dict[Cell, FaultState]) -> "Configuration":
        """A configuration of units whose keys are already `Cell`s, as an
        edit's are: the constructor without its per-cell check."""
        config = cls.__new__(cls)
        config._units = dict(sorted(units.items()))
        config._hash = None
        return config

    @classmethod
    def from_cells(cls, cells: Iterable[Cell], faults: Mapping[Cell, FaultState] | None = None) -> "Configuration":
        faults = dict(faults or {})
        for c in faults:
            require_cell(c)
        units = {}
        for c in cells:
            if c in units:
                raise CellOccupiedError(f"duplicate cell {c}")
            units[c] = faults.pop(c, HEALTHY)
        if faults:
            raise CellNotOccupiedError(f"fault assigned to unoccupied cell {next(iter(faults))}")
        return cls(units)

    # -- queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._units)

    @property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(self._units)

    @property
    def cell_set(self) -> frozenset[Cell]:
        return frozenset(self._units)

    @property
    def faulty_cells(self) -> tuple[Cell, ...]:
        return tuple(c for c, s in self._units.items() if s.is_faulty)

    @property
    def n_faulty(self) -> int:
        return sum(1 for s in self._units.values() if s.is_faulty)

    def state(self, cell: Cell) -> FaultState:
        require_cell(cell)
        try:
            return self._units[cell]
        except KeyError:
            raise CellNotOccupiedError(f"{cell} is not occupied") from None

    def __contains__(self, cell: object) -> bool:
        return isinstance(cell, Cell) and cell in self._units

    def items(self) -> Iterator[tuple[Cell, FaultState]]:
        return iter(self._units.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._units == other._units

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._units.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Configuration({self._units!r})"

    # -- edits -----------------------------------------------------------

    def detach(self, cell: Cell) -> "Configuration":
        if cell not in self:
            raise CellNotOccupiedError(f"{cell} is not occupied")
        units = dict(self._units)
        del units[cell]
        return Configuration._of_cells(units)

    def translate_set(self, moving: Iterable[Cell], delta: tuple[int, int]) -> "Configuration":
        """Rigidly shift a subset of units by delta (dx, dy).

        Destinations may reuse cells vacated by the moving subset itself, but
        colliding with any stationary unit is an error.
        """
        moving = set(moving)
        for c in moving:
            if c not in self:
                raise CellNotOccupiedError(f"{c} is not occupied")
        stationary = {c: s for c, s in self._units.items() if c not in moving}
        units = dict(stationary)
        for c in moving:
            dest = c + delta
            if dest in stationary:
                raise DestinationCollisionError(f"{c} -> {dest} collides with a stationary unit")
            units[dest] = self._units[c]
        return Configuration._of_cells(units)


def connected_components(cells: Iterable[Cell]) -> list[tuple[Cell, ...]]:
    """4-connected components of a cell set, sorted by their minimal cell.

    A breadth-first search from each component's smallest cell, over plain
    (y, x) neighbour tuples: each cell found is popped from a dict of the
    input cells, so a component holds the caller's own Cells, in (y, x)
    order, and no new ones.
    """
    remaining = {c: c for c in cells}
    comps: list[tuple[Cell, ...]] = []
    # each seed is its component's smallest cell, so components come out sorted
    for seed in sorted(remaining):
        if seed not in remaining:
            continue
        comp = [remaining.pop(seed)]
        # the loop visits the cells appended while it runs: a FIFO queue
        for y, x in comp:
            for nb in ((y - 1, x), (y, x - 1), (y, x + 1), (y + 1, x)):
                cell = remaining.pop(nb, None)
                if cell is not None:
                    comp.append(cell)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(cells: Iterable[Cell]) -> bool:
    cells = set(cells)
    if not cells:
        return True
    return len(connected_components(cells)[0]) == len(cells)


def partition(config: Configuration) -> list[Subassembly]:
    """Split a configuration into its 4-connected subassemblies.

    Deterministic: components are ordered by their minimal (y, x) cell and
    unit lists inside each component are sorted the same way.
    """
    units = config._units   # connected_components yields occupied Cells only
    return [
        Subassembly(tuple((c, units[c]) for c in comp))
        for comp in connected_components(config.cells)
    ]
