"""Grid model: cells, fault states, configurations, connectivity."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marsplan.model import (
    HEALTHY,
    UNIT_FAULT,
    Cell,
    CellNotOccupiedError,
    CellOccupiedError,
    Configuration,
    DestinationCollisionError,
    FaultKind,
    FaultState,
    Subassembly,
    connected_components,
    is_connected,
    partition,
    rotor_fault,
)

from marsplan.io import config_to_json

from helpers import random_connected_cells, random_fault_states


# -- Cell ------------------------------------------------------------------


def test_cell_order_is_row_major_bottom_up():
    cells = [Cell(1, 1), Cell(0, 0), Cell(2, 0), Cell(0, 1)]
    assert sorted(cells) == [Cell(0, 0), Cell(2, 0), Cell(0, 1), Cell(1, 1)]
    assert min(cells) == Cell(0, 0)
    assert min(Cell(0, 1), Cell(5, 0)) == Cell(5, 0)
    assert Cell(5, 0) < Cell(0, 1)  # y dominates x
    assert Cell(1, 0) != Cell(0, 1)


def test_cell_arithmetic():
    assert Cell(2, 3) + (1, -1) == Cell(3, 2)
    with pytest.raises(TypeError):
        Cell(1, 0) + Cell(0, 2)  # a Cell is not a displacement
    assert Cell(0, 0).manhattan(Cell(3, -4)) == 7
    assert set(Cell(1, 1).neighbors4()) == {Cell(1, 0), Cell(0, 1), Cell(2, 1), Cell(1, 2)}


def test_cell_is_hashable_value_type():
    assert len({Cell(1, 2), Cell(1, 2), Cell(2, 1)}) == 2
    cell = Cell(x=3, y=-1)
    assert (cell.x, cell.y) == (3, -1) and cell == Cell(3, -1)
    assert repr(cell) == "Cell(x=3, y=-1)"
    copies = [pickle.loads(pickle.dumps(cell, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies + [copy.copy(cell), copy.deepcopy(cell)]:
        assert type(twin) is Cell and twin == cell and (twin.x, twin.y) == (3, -1)
    # files keep writing [x, y]
    assert config_to_json(Configuration.from_cells([cell]))["cells"] == [[3, -1]]


# -- FaultState --------------------------------------------------------------


def test_fault_state_kinds():
    assert not HEALTHY.is_faulty
    assert UNIT_FAULT.is_faulty
    assert rotor_fault(2).is_faulty
    assert HEALTHY.live_rotors() == (0, 1, 2, 3)
    assert rotor_fault(1).live_rotors() == (0, 2, 3)
    assert UNIT_FAULT.live_rotors() == ()
    assert [k.value for k in FaultKind] == ["healthy", "rotor", "unit"]
    states = [UNIT_FAULT, rotor_fault(3), HEALTHY, rotor_fault(0), rotor_fault(2)]
    assert sorted(states) == [HEALTHY, rotor_fault(0), rotor_fault(2), rotor_fault(3), UNIT_FAULT]


def test_fault_state_validation():
    with pytest.raises(ValueError):
        FaultState(FaultKind.ROTOR, None)
    with pytest.raises(ValueError):
        FaultState(FaultKind.ROTOR, 4)
    with pytest.raises(ValueError):
        FaultState(FaultKind.HEALTHY, 0)
    with pytest.raises(ValueError):
        FaultState(FaultKind.UNIT, 1)


# -- Configuration -----------------------------------------------------------


def square():
    return Configuration.from_cells(
        [Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1)],
        {Cell(1, 0): UNIT_FAULT},
    )


def test_from_cells_rejects_duplicates_and_stray_faults():
    with pytest.raises(CellOccupiedError):
        Configuration.from_cells([Cell(0, 0), Cell(0, 0)])
    with pytest.raises(CellNotOccupiedError):
        Configuration.from_cells([Cell(0, 0)], {Cell(5, 5): UNIT_FAULT})
    # a plain (x, y) tuple would hash as the swapped cell
    with pytest.raises(TypeError):
        Configuration.from_cells([(1, 0)])
    with pytest.raises(TypeError):
        Configuration.from_cells([Cell(0, 1)], {(1, 0): UNIT_FAULT})
    with pytest.raises(TypeError):
        Configuration({(1, 0): HEALTHY})


def test_configuration_queries():
    cfg = square()
    assert cfg.n == 4
    assert cfg.n_faulty == 1
    assert cfg.faulty_cells == (Cell(1, 0),)
    assert cfg.cells == (Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(1, 1))  # (y, x) order
    assert Cell(1, 1) in cfg and Cell(2, 2) not in cfg
    assert cfg.state(Cell(1, 0)) is UNIT_FAULT
    with pytest.raises(CellNotOccupiedError):
        cfg.state(Cell(9, 9))
    # (0, 1) is the tuple that Cell(1, 0) holds, but not a cell
    assert (0, 1) not in cfg
    with pytest.raises(TypeError):
        cfg.state((0, 1))


def test_configuration_equality_ignores_input_order():
    a = Configuration({Cell(0, 0): HEALTHY, Cell(1, 0): UNIT_FAULT})
    b = Configuration({Cell(1, 0): UNIT_FAULT, Cell(0, 0): HEALTHY})
    assert a == b and hash(a) == hash(b)
    assert a != Configuration.from_cells([Cell(0, 0), Cell(1, 0), Cell(2, 0)],
                                         {Cell(1, 0): UNIT_FAULT})


def test_attach_detach():
    cfg = square()
    shrunk = cfg.detach(Cell(0, 1))
    assert Cell(0, 1) not in shrunk
    assert cfg.n == 4  # original untouched
    with pytest.raises(CellNotOccupiedError):
        cfg.detach(Cell(7, 7))
    with pytest.raises(CellNotOccupiedError):
        cfg.detach((0, 1))


def test_translate_set_moves_states_and_allows_self_vacated_cells():
    cfg = square()
    # Shift the whole bottom row right by one: (1,0) is vacated by its own
    # mover, so reusing it is legal.
    moved = cfg.translate_set([Cell(0, 0), Cell(1, 0)], (1, 0))
    assert moved.cell_set == frozenset(
        [Cell(1, 0), Cell(2, 0), Cell(0, 1), Cell(1, 1)]
    )
    assert moved.state(Cell(2, 0)) is UNIT_FAULT  # fault travels with its unit


def test_translate_set_rejects_collisions():
    cfg = square()
    with pytest.raises(DestinationCollisionError):
        cfg.translate_set([Cell(0, 0)], (1, 0))  # lands on stationary (1,0)
    with pytest.raises(CellNotOccupiedError):
        cfg.translate_set([Cell(9, 9)], (1, 0))


def test_empty_configuration_is_representable():
    cfg = Configuration({})
    assert cfg.n == 0


# -- connectivity ------------------------------------------------------------


def test_connected_components_split_and_order():
    comps = connected_components([Cell(0, 0), Cell(1, 0), Cell(3, 0), Cell(3, 1)])
    assert comps == [(Cell(0, 0), Cell(1, 0)), (Cell(3, 0), Cell(3, 1))]
    assert not is_connected([Cell(0, 0), Cell(2, 0)])
    assert is_connected([Cell(0, 0), Cell(1, 0), Cell(1, 1)])
    assert is_connected([])  # vacuous


def test_diagonal_is_not_adjacent():
    assert not is_connected([Cell(0, 0), Cell(1, 1)])


def test_partition_preserves_states():
    cfg = Configuration.from_cells(
        [Cell(0, 0), Cell(1, 0), Cell(4, 4)], {Cell(4, 4): UNIT_FAULT}
    )
    parts = partition(cfg)
    assert [p.cells for p in parts] == [(Cell(0, 0), Cell(1, 0)), (Cell(4, 4),)]
    assert parts[1].faulty_cells == (Cell(4, 4),)
    assert parts[0].units == ((Cell(0, 0), HEALTHY), (Cell(1, 0), HEALTHY))


def test_subassembly_canonical_is_translation_invariant():
    a = Subassembly(((Cell(2, 3), HEALTHY), (Cell(3, 3), UNIT_FAULT)))
    b = Subassembly(((Cell(-1, 0), HEALTHY), (Cell(0, 0), UNIT_FAULT)))
    assert a.canonical() == b.canonical()
    assert a.n == 2


# -- properties ---------------------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_random_growth_produces_connected_sets(seed, n):
    rng = np.random.default_rng(seed)
    cells = random_connected_cells(rng, n)
    assert len(cells) == n and is_connected(cells)


@given(st.integers(0, 2**32 - 1), st.integers(2, 10),
       st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_whole_set_translation_round_trips(seed, n, dx, dy):
    rng = np.random.default_rng(seed)
    cells = random_connected_cells(rng, n)
    faults = random_fault_states(rng, cells, min(2, n - 1))
    cfg = Configuration.from_cells(cells, faults)
    there = cfg.translate_set(cfg.cells, (dx, dy))
    assert there.n == cfg.n
    assert {c + (dx, dy) for c in cfg.faulty_cells} == set(there.faulty_cells)
    assert there.translate_set(there.cells, (-dx, -dy)) == cfg


@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_partition_covers_configuration_exactly(seed, n):
    rng = np.random.default_rng(seed)
    # Two independent blobs far enough apart never to touch.
    left = random_connected_cells(rng, n)
    right = [c + (100, 0) for c in random_connected_cells(rng, n)]
    cfg = Configuration.from_cells(left + right)
    parts = partition(cfg)
    seen = [c for p in parts for c in p.cells]
    assert sorted(seen) == sorted(cfg.cells)
    assert len(seen) == len(set(seen))
    for p in parts:
        assert is_connected(p.cells)
