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

from helpers import random_connected_cells, random_fault_states, reference_connected_components


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
    with pytest.raises(TypeError):
        (1, 0) + Cell(0, 0)  # not the 4-tuple (1, 0, 0, 0)
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


@pytest.mark.parametrize("make,error", [
    (lambda: FaultState("healthy"), TypeError),
    (lambda: rotor_fault(True), ValueError),
    (lambda: rotor_fault(1.0), ValueError),
    (lambda: rotor_fault(np.int64(1)), ValueError),
], ids=["kind-string", "bool-index", "float-index", "numpy-index"])
def test_fault_state_refuses_what_a_plan_document_cannot_carry(make, error):
    # no plan document carries these: the reader refuses the first three, and json
    # cannot write a numpy int
    with pytest.raises(error):
        make()


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


def test_edited_configurations_hold_only_cells():
    # edits build their result without the constructor's per-cell check;
    # every key they produce is still a Cell
    cfg = square()
    edited = [cfg.detach(Cell(0, 1)), cfg.translate_set([Cell(0, 1), Cell(1, 1)], (0, 1)),
              cfg.translate_set(cfg.cells, (3, -2))]
    for config in edited:
        assert all(type(c) is Cell for c in config.cells)
        assert config == Configuration(dict(config.items()))
        assert list(config.cells) == sorted(config.cells)


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


@pytest.mark.parametrize("seed", range(4))
def test_connected_components_match_the_cell_based_reference(seed):
    # Seeded cell sets in boxes up to 9x9 off the origin: the same components
    # in the same order, made of the caller's own Cell objects.
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x0, y0 = (int(v) for v in rng.integers(-5, 5, size=2))
        w, h = (int(v) for v in rng.integers(1, 10, size=2))
        density = rng.uniform(0.1, 0.9)
        cells = [Cell(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)
                 if rng.random() < density]
        rng.shuffle(cells)
        comps = connected_components(cells)
        assert comps == reference_connected_components(cells)
        mine = {id(c) for c in cells}
        assert all(type(c) is Cell and id(c) in mine for comp in comps for c in comp)


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


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_partition_equals_the_publicly_built_subassemblies(seed, n):
    # partition skips the per-cell check; its output is what the checked
    # public constructor builds from the same units, hash included.
    rng = np.random.default_rng(seed)
    cells = random_connected_cells(rng, n) + [c + (0, 50) for c in random_connected_cells(rng, n)]
    cfg = Configuration.from_cells(cells, random_fault_states(rng, cells, min(2, n)))
    parts = partition(cfg)
    public = [Subassembly(tuple((c, cfg.state(c)) for c in comp))
              for comp in connected_components(cfg.cells)]
    assert parts == public
    assert [hash(p) for p in parts] == [hash(p) for p in public]
    assert all(type(p) is Subassembly for p in parts)


def test_subassembly_canonical_is_translation_invariant():
    a = Subassembly(((Cell(2, 3), HEALTHY), (Cell(3, 3), UNIT_FAULT)))
    b = Subassembly(((Cell(-1, 0), HEALTHY), (Cell(0, 0), UNIT_FAULT)))
    assert a.canonical() == b.canonical()
    assert a.n == 2
    # a plain tuple is refused where it is given, not when the key is built
    with pytest.raises(TypeError, match="expected a Cell"):
        Subassembly((((2, 3), HEALTHY), (Cell(3, 3), UNIT_FAULT)))


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
