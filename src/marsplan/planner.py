"""Reconfiguration planning: move faulty units to their optimal cells safely.

Pipeline, in order:

1. Choose the optimal fault placement on the fixed footprint.
2. Assign each faulty unit a goal cell; moving faults with the same
   displacement (goal minus cell) whose cells are 4-connected share one
   support group.
3. For each group, pick the best feasible support shape anchored at the
   faults' current cells and fly donor units into its vacant cells.
4. Clear every stationary unit off the planned transfer corridors. With the
   relocation rule on, a blocker parks on the vacant target cell off the
   corridors with the shortest gated flight (so it never moves again); with
   it off, on the gated free cell of its own row nearest by |dx|, and is
   fetched later if that cell is off the target. Failing that, it parks on
   the free cell off the corridors and off the target with the shortest
   gated flight.
5. Rigidly transfer each support group so its faults land on their goals.
6. Fill the remaining vacant target cells with conflict-free assignment
   rounds until the configuration equals the target exactly.

Every step passes one gate, `step_verdict`: the flying piece (when it carries
faults) and the configuration after the move keep a margin at or above the
floor. `_Pipeline._step` gates every step of every phase with it, and
`validate_plan` re-checks every step of a finished plan with it. The
structure left behind while the piece is in flight is not gated; only the
donor ranking (`plan_vmcs_completion`) skips donors whose removal drops a
faulty subassembly below the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .controllability import DEFAULT_PARAMS, PhysicalParams, cached_subassembly_cm, system_cm
from .errors import (
    InfeasibleAssignmentError,
    InfeasibleTargetError,
    NoFeasibleDonorError,
    NoPathError,
    NoVmcsPlacementError,
    PlanningError,
    SafetyViolationError,
)
from .model import Cell, Configuration, FaultState, Subassembly, connected_components
from .paths import Arena, GridPath, arena_around, astar_subassembly, astar_unit, swept_cells
from .vmcs import (
    TargetConfiguration,
    _smallest_supports,
    optimal_configuration,
    plan_vmcs_completion,
)

_BIG = 10 ** 7
DEFAULT_EPSILON = 0.0      # the margin floor of `plan()`, and of a plan document without one


class StepKind(Enum):
    MOVE_UNIT = "move-unit"
    MOVE_SUBASSEMBLY = "move-subassembly"


class Phase(Enum):
    VMCS_BUILD = "vmcs-build"
    PATH_CLEARANCE = "path-clearance"
    VMCS_TRANSFER = "vmcs-transfer"
    FILL_REMAINDER = "fill-remainder"


@dataclass(frozen=True)
class PlanStep:
    kind: StepKind
    phase: Phase
    moved_cells: tuple[Cell, ...]        # pre-move cells, sorted (y, x)
    path: GridPath                       # waypoints of min(moved_cells)
    post_config: Configuration
    post_cm: float
    note: str | None = None


@dataclass
class Plan:
    steps: list[PlanStep]
    target: TargetConfiguration
    relocation_rule: bool
    c1: float
    c2: float
    epsilon: float
    params: PhysicalParams

    @property
    def step_count(self) -> int:
        return len(self.steps)

    @property
    def detach_attach_count(self) -> int:
        # one relocation = one detach plus one attach
        return 2 * len(self.steps)

    @property
    def total_path_length(self) -> int:
        return sum(s.path.length for s in self.steps)

    @property
    def min_cm(self) -> float:
        if not self.steps:
            return self.target.cm
        return min(s.post_cm for s in self.steps)


@dataclass
class _Group:
    """Faults that ride one rigid support together."""

    faults: dict[Cell, FaultState]       # current cells
    delta: tuple[int, int]               # goal minus current cell, one per group
    shape: frozenset[Cell] = field(default_factory=frozenset)

    @property
    def sort_cell(self) -> Cell:
        """The smallest goal cell."""
        return min(self.faults) + self.delta

    @property
    def landing(self) -> frozenset[Cell]:
        return frozenset(c + self.delta for c in self.shape)


def lexicographic_min_assignment(cost: np.ndarray) -> list[int]:
    """Exact min-cost row->column assignment, lexicographically refined.

    Rows must not exceed columns. Among all assignments of minimum total cost
    the row-major smallest column choice wins, so equal-cost solutions are
    deterministic: starting from one optimum, each row in turn takes the
    smallest free column that an optimal completion of the rows below keeps
    at the minimum. Entries >= _BIG are treated as forbidden but may still be
    chosen if no finite-cost perfect assignment exists; callers filter them.
    """
    cost = np.asarray(cost, dtype=float)
    nr, nc = cost.shape
    if nr == 0:
        return []
    if nr > nc:
        raise InfeasibleAssignmentError(f"{nr} targets but only {nc} candidates")
    rows, cols = linear_sum_assignment(cost)
    best_total = float(cost[rows, cols].sum())
    chosen = cols.tolist()
    for r in range(nr):
        for c in range(chosen[r]):
            if c in chosen[:r]:
                continue
            trial = chosen[:r] + [c]
            if r + 1 < nr:
                free = [j for j in range(nc) if j not in trial]
                _, rest = linear_sum_assignment(cost[r + 1:, free])
                trial += [free[j] for j in rest]
            if float(cost[rows, trial].sum()) - best_total <= 1e-6:
                chosen = trial
                break
    return chosen


def conflict_free_targets(config: Configuration, target_cells: Iterable[Cell],
                          arena: Arena) -> list[Cell]:
    """Vacant target cells safe to fill this round.

    A virtual unit enters from outside the assembly (the smallest vacant cell
    on the arena ring); any still-pending target sitting on the entry path of
    another target is deferred so filling it cannot wall off the rest.
    Unreachable targets are deferred too. The first surviving target can never
    be discarded, so the result is nonempty whenever any target is reachable.
    """
    occupied = config.cell_set
    pending = sorted(t for t in target_cells if t not in occupied)
    if not pending:
        return []
    target_set = set(target_cells)
    entry = next((c for c in arena.cells_on_ring()
                  if c not in occupied and c not in target_set), None)
    if entry is None:
        raise NoPathError("no free entry cell on the arena ring")
    reached: list[Cell] = []
    crossed: set[Cell] = set()       # cells on entry paths, short of their goals
    for t in pending:
        if t in crossed:
            continue
        try:
            path = astar_unit(entry, t, occupied, arena)
        except NoPathError:
            continue
        reached.append(t)
        crossed.update(path.waypoints[:-1])
    return [t for t in reached if t not in crossed]


def step_verdict(config: Configuration, moved: Sequence[Cell], path: GridPath,
                 params: PhysicalParams, epsilon: float
                 ) -> tuple[Configuration, float | None, str | None]:
    """The one safety gate: fly `moved` ((y, x) order) along `path` from `config`.

    Returns the configuration after the move, its margin (exact when at or
    above `epsilon`) and the first check that fails: "piece" when the flying
    piece carries a fault and is below `epsilon` (the margin is then None),
    "post" when the configuration after the move is, or None.
    """
    ref = moved[0]
    post = config.translate_set(moved, (path.goal.x - ref.x, path.goal.y - ref.y))
    flying = tuple((c, config.state(c)) for c in moved)
    if (any(s.is_faulty for _, s in flying)
            and cached_subassembly_cm(Subassembly(flying), params, epsilon) < epsilon):
        return post, None, "piece"
    post_cm = system_cm(post, params, epsilon)
    return post, post_cm, "post" if post_cm < epsilon else None


def plan(config: Configuration, params: PhysicalParams = DEFAULT_PARAMS, *,
         c1: float = 2.0, c2: float = -0.1, relocation_rule: bool = True,
         epsilon: float = DEFAULT_EPSILON) -> Plan:
    """Compute a safe reconfiguration to the optimal fault placement.

    Raises ValueError unless c1, c2 and epsilon are finite,
    InfeasibleTargetError when no placement reaches the margin floor, and
    PlanningError subtypes (typed by `reason`) when any phase cannot complete.
    A fault-free configuration yields an empty plan.
    """
    if config.n == 0:
        raise ValueError("cannot plan for an empty configuration")
    if not all(map(math.isfinite, (c1, c2, epsilon))):
        raise ValueError(f"c1, c2 and epsilon must be finite, got {c1}, {c2}, {epsilon}")
    target = optimal_configuration(config, params)
    if config.n_faulty and target.cm < epsilon:
        raise InfeasibleTargetError(
            f"best fault placement has margin {target.cm:.6f}, below floor {epsilon:.6f}"
        )
    pipeline = _Pipeline(config, target, params, c1, c2, relocation_rule, epsilon)
    steps = pipeline.run()
    return Plan(steps=steps, target=target, relocation_rule=relocation_rule,
                c1=c1, c2=c2, epsilon=epsilon, params=params)


class _Pipeline:
    def __init__(self, config: Configuration, target: TargetConfiguration,
                 params: PhysicalParams, c1: float, c2: float,
                 relocation_rule: bool, epsilon: float):
        self.work = config
        self.target = target
        self.params = params
        self.c1 = c1
        self.c2 = c2
        self.relocation_rule = relocation_rule
        self.epsilon = epsilon
        self.arena = arena_around(config.cells)
        self.steps: list[PlanStep] = []
        self.groups: list[_Group] = []
        self.corridor: frozenset[Cell] = frozenset()

    # -- driver ----------------------------------------------------------

    def run(self) -> list[PlanStep]:
        if self.work == self.target.config:
            return []
        self._form_groups()
        self._select_supports()
        self._build_supports()
        self._plan_corridor()
        self._clear_corridor()
        self._transfer_groups()
        self._fill_remainder()
        if self.work != self.target.config:
            raise PlanningError("pipeline finished away from the target configuration")
        return self.steps

    # -- step emission with the safety gate --------------------------------

    def _step(self, moved: Sequence[Cell], path: GridPath, phase: Phase,
              note: str | None = None) -> PlanStep | None:
        """The step that flies `moved` from `self.work` along `path` (which runs
        from the smallest moved cell), or None when `step_verdict` rejects it."""
        moved = tuple(sorted(moved))
        post, post_cm, failure = step_verdict(self.work, moved, path, self.params, self.epsilon)
        if failure is not None:
            return None
        kind = StepKind.MOVE_UNIT if len(moved) == 1 else StepKind.MOVE_SUBASSEMBLY
        return PlanStep(kind=kind, phase=phase, moved_cells=moved, path=path,
                        post_config=post, post_cm=post_cm, note=note)

    def _unit_step(self, start: Cell, goal: Cell, obstacles: frozenset[Cell],
                   phase: Phase, note: str | None = None) -> PlanStep | None:
        """Gated step of a single unit, or None when unreachable or rejected."""
        try:
            path = astar_unit(start, goal, obstacles, self.arena)
        except NoPathError:
            return None
        return self._step((start,), path, phase, note)

    def _commit(self, step: PlanStep) -> None:
        self.steps.append(step)
        self.work = step.post_config

    # -- phase 2: goals and groups ----------------------------------------

    def _form_groups(self) -> None:
        """Moving faults with one displacement ride one rigid support when
        their cells touch (with equal displacements, their goals touch
        exactly when their cells do)."""
        by_delta: dict[tuple[int, int], list[Cell]] = {}
        for c, g in self._fault_goals().items():
            if c != g:
                by_delta.setdefault((g.x - c.x, g.y - c.y), []).append(c)
        for delta, cells in by_delta.items():
            for comp in connected_components(cells):
                self.groups.append(_Group({c: self.work.state(c) for c in comp}, delta))
        self.groups.sort(key=lambda g: g.sort_cell)

    def _fault_goals(self) -> dict[Cell, Cell]:
        goals: dict[Cell, Cell] = {}
        # match within each fault-state class so kinds are preserved
        states = sorted({s for _, s in self.work.items() if s.is_faulty})
        for state in states:
            cur = [c for c, s in self.work.items() if s == state]
            tgt = [c for c, s in self.target.config.items() if s == state]
            cost = np.array([[a.manhattan(b) for b in tgt] for a in cur], dtype=float)
            for i, col in enumerate(lexicographic_min_assignment(cost)):
                goals[cur[i]] = tgt[col]
        return goals

    # -- phase 3: support selection and completion --------------------------

    def _select_supports(self) -> None:
        all_fault_cells = set(self.work.faulty_cells)
        claimed: set[Cell] = set()
        for group in self.groups:
            own = set(group.faults)
            foreign_faults = all_fault_cells - own
            _, ranked = _smallest_supports(group.faults, self.params,
                                           self.work.n - self.work.n_faulty, self.epsilon)
            chosen = None
            for shape, cm in ranked:
                if cm < self.epsilon:
                    break
                landing = frozenset(c + group.delta for c in shape)
                if any(c not in self.arena for c in shape | landing):
                    continue
                if (shape | landing) & (foreign_faults | claimed):
                    continue
                chosen = shape
                break
            if chosen is None:
                raise NoVmcsPlacementError(
                    "no support shape fits around the faults without conflicts",
                    faults=tuple(sorted(own)),
                )
            group.shape = chosen
            claimed |= group.shape | group.landing

    def _build_supports(self) -> None:
        """Fill each support's vacant cells in (y, x) order, each with the
        best-ranked donor flight that passes the gate."""
        reserved = frozenset(self.work.faulty_cells).union(*(g.shape for g in self.groups))
        for group in self.groups:
            for vacancy in sorted(group.shape - self.work.cell_set):
                flights = plan_vmcs_completion(
                    self.work, self.target.cm, vacancy, self.params, self.c1, self.c2,
                    reserved=reserved, arena=self.arena, epsilon=self.epsilon,
                )
                gated = (self._step((path.start,), path, Phase.VMCS_BUILD) for path in flights)
                step = next((s for s in gated if s is not None), None)
                if step is None:
                    raise NoFeasibleDonorError(
                        f"no donor can reach vacancy {vacancy} without breaking support",
                        vacancy=vacancy,
                    )
                self._commit(step)

    # -- phase 4: corridor clearance ---------------------------------------

    def _plan_corridor(self) -> None:
        """Nominal transfer corridors, ignoring movable healthy units.

        Only immovable cells are obstacles here: faults staying in place and
        the other groups' anchor and landing footprints. Healthy units swept
        by a corridor become blockers and are evacuated before the transfer
        re-plans against the true occupancy.
        """
        grouped_faults = set().union(*(g.faults for g in self.groups))
        settled = frozenset(set(self.work.faulty_cells) - grouped_faults)
        swept: set[Cell] = set()
        for i, group in enumerate(self.groups):
            ref = min(group.shape)
            goal_ref = ref + group.delta
            obstacles = set(settled)
            for j, other in enumerate(self.groups):
                if j != i:
                    obstacles |= other.shape | other.landing
            path = astar_subassembly(group.shape, ref, goal_ref,
                                     frozenset(obstacles - group.shape), self.arena)
            swept |= swept_cells(group.shape, ref, path)
        self.corridor = frozenset(swept)

    def _clear_corridor(self) -> None:
        members = frozenset().union(*(g.shape for g in self.groups))
        blockers = sorted(c for c in self.corridor if c in self.work
                          and not self.work.state(c).is_faulty and c not in members)
        for blocker in blockers:
            self._relocate_blocker(blocker)

    def _relocate_blocker(self, blocker: Cell) -> None:
        occupied = self.work.cell_set
        free = [w for w in self.arena.cells() if w not in occupied and w not in self.corridor]
        target_cells = self.target.config.cell_set
        if self.relocation_rule:
            step = self._park(blocker, [w for w in free if w in target_cells], by_length=True)
        else:
            step = self._park(blocker, [w for w in free if w.y == blocker.y], by_length=False)
        if step is None:
            # fall back to any free cell off the corridors and off the target
            step = self._park(blocker, [w for w in free if w not in target_cells],
                              by_length=True, note="off-target-parking")
            if step is None:
                raise NoPathError(f"blocker {blocker} has nowhere to park")
        self._commit(step)

    def _park(self, blocker: Cell, spots: list[Cell], by_length: bool,
              note: str | None = None) -> PlanStep | None:
        """Gated step to the spot of least rank, or None when no spot passes the gate.

        The rank is (flight length, (y, x)) with `by_length`, otherwise
        (Manhattan distance, (y, x)). Spots are tried in (Manhattan distance,
        (y, x)) order; the Manhattan distance bounds the flight length from
        below, so no spot after one whose bound exceeds the best rank can win.
        """
        obstacles = frozenset(self.work.cell_set - {blocker})
        best: PlanStep | None = None
        best_rank = None
        for bound, w in sorted((blocker.manhattan(w), w) for w in spots):
            if best_rank is not None and (bound, w) > best_rank:
                break
            step = self._unit_step(blocker, w, obstacles, Phase.PATH_CLEARANCE, note)
            if step is None:
                continue
            rank = (step.path.length if by_length else bound, w)
            if best_rank is None or rank < best_rank:
                best, best_rank = step, rank
        return best

    # -- phase 5: rigid transfers ------------------------------------------

    def _transfer_groups(self) -> None:
        for group in self.groups:
            current_cells = group.shape
            ref = min(current_cells)
            goal_ref = ref + group.delta
            obstacles = frozenset(self.work.cells) - current_cells
            path = astar_subassembly(current_cells, ref, goal_ref, obstacles, self.arena)
            step = self._step(tuple(current_cells), path, Phase.VMCS_TRANSFER)
            if step is None:
                raise SafetyViolationError(
                    f"move of {sorted(current_cells)} would leave the system below "
                    f"the margin floor", phase=Phase.VMCS_TRANSFER.value,
                )
            self._commit(step)

    # -- phase 6: fill rounds ----------------------------------------------

    def _fill_remainder(self) -> None:
        target_cells = self.target.config.cell_set
        while not target_cells <= self.work.cell_set:
            round_targets = conflict_free_targets(self.work, target_cells, self.arena)
            if not round_targets:
                raise InfeasibleAssignmentError("no fill target is reachable")
            # as many units stand off the target as target cells are vacant
            candidates = [c for c in self.work.cells if c not in target_cells]
            pairs = self._assign_fill_moves(round_targets, candidates)
            executed = self._execute_fill_round(pairs)
            if executed == 0:
                raise InfeasibleAssignmentError(
                    "fill round could not execute any assigned move"
                )

    def _assign_fill_moves(self, targets: list[Cell], candidates: list[Cell]
                           ) -> list[tuple[Cell, Cell]]:
        """The row-major smallest pairing of least total gated flight length;
        a target without a gated flight waits. Costs start from ungated A*
        lengths, a lower bound: only assigned pairs are gated, a failing one is
        forbidden and the matrix solved again, until the pairing is also the
        smallest optimum of the matrix that gates every pair."""
        cost = np.full((len(targets), len(candidates)), float(_BIG))
        paths: dict[tuple[int, int], GridPath] = {}
        for j, cand in enumerate(candidates):
            obstacles = frozenset(self.work.cell_set - {cand})
            for i, t in enumerate(targets):
                try:
                    paths[i, j] = astar_unit(cand, t, obstacles, self.arena)
                except NoPathError:
                    continue
                cost[i, j] = paths[i, j].length
        gated: set[tuple[int, int]] = set()
        while True:
            cols = lexicographic_min_assignment(cost)
            todo = [(i, j) for i, j in enumerate(cols)
                    if cost[i, j] < _BIG and (i, j) not in gated]
            gated.update(todo)
            failed = [(i, j) for i, j in todo
                      if self._step((candidates[j],), paths[i, j], Phase.FILL_REMAINDER) is None]
            if not failed:
                break
            for i, j in failed:
                cost[i, j] = _BIG
        pairs = [(targets[i], candidates[j]) for i, j in enumerate(cols) if cost[i, j] < _BIG]
        if not pairs:
            raise InfeasibleAssignmentError("no unit can reach any fill target")
        return pairs

    def _execute_fill_round(self, pairs: list[tuple[Cell, Cell]]) -> int:
        executed = 0
        pending = [t for t, _ in pairs]
        for t, cand in pairs:
            pending.remove(t)
            obstacles = frozenset(self.work.cell_set - {cand})
            # keep this round's still-unfilled targets clear of the path
            step = (self._unit_step(cand, t, obstacles | frozenset(pending), Phase.FILL_REMAINDER)
                    or self._unit_step(cand, t, obstacles, Phase.FILL_REMAINDER))
            if step is None:
                continue  # deferred; a later round retries with a fresh state
            self._commit(step)
            executed += 1
        return executed


def validate_plan(start: Configuration, plan: Plan) -> Configuration:
    """Re-simulate a plan; returns the final configuration.

    Reads `plan.steps`, `plan.params` and `plan.epsilon`, which must be
    finite (else ValueError). Each step flies one 4-connected piece of
    occupied cells along a path that starts at its smallest cell and crosses
    only free cells of `arena_around(start)` (else SafetyViolationError), ends
    in its recorded post_config, passes `step_verdict` (else
    SafetyViolationError with the failed check as `cause`) and records its
    margin to six decimals.
    """
    if not math.isfinite(plan.epsilon):
        raise ValueError(f"plan epsilon must be finite, got {plan.epsilon}")
    work = start
    arena = arena_around(start.cells)
    for idx, step in enumerate(plan.steps):
        moved = step.moved_cells
        ref = moved[0]
        if step.path.start != ref:
            raise PlanningError(f"step {idx} path does not start at the reference cell",
                                step=idx)
        occupied = work.cell_set
        if not occupied.issuperset(moved):
            raise PlanningError(f"step {idx} moves an unoccupied cell", step=idx)
        if len(connected_components(moved)) != 1:
            raise PlanningError(f"step {idx} flies cells that are not 4-connected", step=idx)
        swept = swept_cells(moved, ref, step.path)
        if not all(c in arena for c in swept):
            raise SafetyViolationError(f"step {idx} leaves the arena", step=idx)
        if swept & (occupied - set(moved)):
            raise SafetyViolationError(f"step {idx} sweeps through occupied cells", step=idx)
        work, margin, failure = step_verdict(work, moved, step.path, plan.params, plan.epsilon)
        if work != step.post_config:
            raise PlanningError(f"step {idx} post configuration mismatch", step=idx)
        if failure is not None:
            raise SafetyViolationError(f"step {idx} fails the {failure} check", step=idx,
                                       cause=failure)
        # a recorded margin is rounded to six decimals
        if not (margin == step.post_cm or abs(margin - step.post_cm) <= 5e-7 + 1e-12):
            raise PlanningError(f"step {idx} records margin {step.post_cm!r}, "
                                f"its configuration has {margin!r}", step=idx)
    return work
