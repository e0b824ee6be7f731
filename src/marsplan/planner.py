"""Reconfiguration planning: move faulty units to their optimal cells safely.

Pipeline, in order:

1. Choose the optimal fault placement on the fixed footprint.
2. Assign each faulty unit a goal cell; moving faults with the same
   displacement (goal minus cell) whose cells are 4-connected share one
   support group.
3. For each group, pick the best feasible support shape anchored at the
   faults' current cells and fly donor units into its vacant cells, each
   the best-ranked donor flight that passes the gate. Donors are scored
   best first and each flight is gated as it is taken, so no donor ranked
   behind that flight is scored.
4. Clear every stationary unit off the planned transfer corridors. Each
   blocker parks in the free cells off the corridors, searched tier by tier,
   each tier one best-first search: first the spots the relocation rule
   prefers (with it on, the vacant target cells by flight length, so it
   never moves again; with it off, its own row's cells by |dx|, fetched
   later if off the target), then the other cells off the target by flight
   length. Each spot is gated as it is taken, so no spot ranked behind the
   first that passes reaches the gate, and no later tier is read.
5. Rigidly transfer each support group so its faults land on their goals.
6. Fill the remaining vacant target cells with conflict-free assignment
   rounds until the configuration equals the target exactly. Each flight
   takes its A* route around the units standing at the time; a round
   commits its first flight as the assignment gated it.

Every step passes one gate, `step_verdict`, which owns every check of a move
and names the first that fails: "unoccupied", "disconnected", "arena",
"collision", "piece" or "post". `_Pipeline._step` gates every step of every
phase with it, and `validate_plan` replays a finished plan through it. The
build, clearance and transfer phases commit at one point,
`_Pipeline._commit_first`: the first of a phase's ranked steps that the gate
passes, or the phase's typed failure when none does. Every candidate unit
flight (a donor, a parking spot, a fill pair, a fill target's entry path) is
routed by one call, `paths.unit_flight`, and one without a route is no
candidate. The structure left behind while the piece is in flight is not
gated; only the donor ranking (`plan_vmcs_completion`) skips donors whose
removal drops a faulty subassembly below the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

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
from .paths import Arena, GridPath, arena_around, astar_subassembly, swept_cells, unit_flight
from .vmcs import (
    TargetConfiguration,
    best_first,
    smallest_supports,
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


def _min_cost_assignment(c: list[list[float]]) -> list[int]:
    """The column of each row in one minimum-cost assignment of a finite
    cost matrix, as a list of rows, with rows <= columns.

    The Hungarian method in its potentials form (Kuhn 1955; Munkres 1957):
    each new row enters through a virtual start column, and a Dijkstra search
    over reduced costs c[i][j] - u[i] - v[j] grows the set of used columns
    one at a time until it reaches a free column. Each step shifts the duals
    of the used rows and columns by the smallest distance found, so reduced
    costs stay >= 0 and the path's edges stay tight; the assignment is then
    flipped along the path. The duals start at int 0, so integer costs are
    solved in exact integer arithmetic.
    """
    nr, nc = len(c), len(c[0])
    u, v = [0] * nr, [0] * (nc + 1)
    row_of = [-1] * (nc + 1)                # column nc is the virtual start column
    for row in range(nr):
        row_of[nc], j0 = row, nc
        dist, via, used = [math.inf] * (nc + 1), [nc] * (nc + 1), [False] * (nc + 1)
        while row_of[j0] >= 0:
            used[j0] = True
            i, delta, j1 = row_of[j0], math.inf, -1
            for j in range(nc):
                if not used[j]:
                    r = c[i][j] - u[i] - v[j]
                    if r < dist[j]:
                        dist[j], via[j] = r, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(nc + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0 != nc:
            row_of[j0] = row_of[via[j0]]
            j0 = via[j0]
    return sorted((j for j in range(nc) if row_of[j] >= 0), key=row_of.__getitem__)


def lexicographic_min_assignment(cost: Sequence[Sequence[float]]) -> list[int]:
    """Exact min-cost row->column assignment, the row-major smallest optimum.

    `cost` is a sequence of rows, at most as many as columns. Each entry is
    read as a float and compared exactly, as the rational number n/d that the
    float is (`float.as_integer_ratio`, d a power of two): no tolerance
    merges near-equal totals, so [[0.1 + 0.2, 0.3]] gives [1]. Among all
    minimum-cost assignments the row-major smallest column choice wins, so
    equal-cost solutions are deterministic. One Kuhn-Munkres solve
    (_min_cost_assignment) finds it on integers: with D the largest d, entry
    (i, j) becomes n * (D // d) * nc**nr + j * nc**(nr - 1 - i). The column
    digits of an assignment sum to less than nc**nr, one cost unit, so every
    assignment has its own total, which orders by cost first and then by
    the columns row by row. The optimum is thus unique, and the solver
    needs no tie rule.
    Ragged rows or a non-finite entry raise ValueError; an entry >= _BIG is
    forbidden, yet chosen when no cheaper perfect assignment exists; callers
    filter.
    """
    c = [list(map(float, row)) for row in cost]
    if not c:
        return []
    nr, nc = len(c), len(c[0])
    if any(len(row) != nc for row in c):
        raise ValueError("assignment cost rows must have one length")
    if nr > nc:
        raise InfeasibleAssignmentError(f"{nr} targets but only {nc} candidates")
    if not all(math.isfinite(x) for row in c for x in row):
        raise ValueError("assignment costs must be finite")
    ratios = [[x.as_integer_ratio() for x in row] for row in c]
    scale = max(d for row in ratios for _, d in row)
    unit = nc ** nr
    exact = []
    for i, row in enumerate(ratios):
        weight = nc ** (nr - 1 - i)
        exact.append([n * (scale // d) * unit + j * weight for j, (n, d) in enumerate(row)])
    return _min_cost_assignment(exact)


def conflict_free_targets(config: Configuration, target_cells: Iterable[Cell],
                          arena: Arena) -> list[Cell]:
    """Vacant target cells safe to fill this round.

    A virtual unit enters from outside the assembly (the smallest vacant cell
    on the arena ring); any still-pending target sitting on the entry path of
    another target is deferred so filling it cannot wall off the rest.
    Unreachable targets are deferred too. A target on an entry path is not
    searched, so the last target reached lies on none, and the result is
    nonempty whenever any target is reachable.
    """
    occupied = config.cell_set
    target_set = set(target_cells)
    pending = sorted(target_set - occupied)
    if not pending:
        return []
    entry = next((c for c in arena.cells_on_ring()
                  if c not in occupied and c not in target_set), None)
    if entry is None:
        raise NoPathError("no free entry cell on the arena ring")
    reached: list[Cell] = []
    crossed: set[Cell] = set()       # cells on entry paths, short of their goals
    for t in pending:
        if t in crossed or (path := unit_flight(entry, t, occupied, arena)) is None:
            continue
        reached.append(t)
        crossed.update(path.waypoints[:-1])
    return [t for t in reached if t not in crossed]


def step_verdict(config: Configuration, moved: Sequence[Cell], path: GridPath, arena: Arena,
                 params: PhysicalParams, epsilon: float
                 ) -> tuple[Configuration | None, float | None, str | None]:
    """The one move gate: fly `moved` ((y, x) order) along `path` from `config`.

    Returns the configuration after the move, its margin (exact when at or
    above `epsilon`) and the first check that fails, or None. "unoccupied",
    "disconnected" (not 4-connected), "arena" (sweeps a cell outside `arena`)
    and "collision" (sweeps a stationary unit) read no margin and return
    (None, None, cause); "piece" (a faulty piece below `epsilon`) returns no
    margin, and "post" (the configuration after the move below it) does.
    """
    states = dict(config.items())
    if not all(c in states for c in moved):
        return None, None, "unoccupied"
    if len(moved) > 1 and len(connected_components(moved)) > 1:
        return None, None, "disconnected"
    ref = moved[0]
    swept = swept_cells(moved, ref, path)
    if not all(c in arena for c in swept):
        return None, None, "arena"
    if not states.keys().isdisjoint(swept.difference(moved)):
        return None, None, "collision"
    post = config.translate_set(moved, (path.goal.x - ref.x, path.goal.y - ref.y))
    flying = tuple((c, states[c]) for c in moved)
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
        """The step flying `moved` along `path` (from its smallest cell), or None if rejected."""
        moved = tuple(sorted(moved))
        post, post_cm, cause = step_verdict(self.work, moved, path, self.arena, self.params,
                                            self.epsilon)
        if cause is not None:
            return None
        kind = StepKind.MOVE_UNIT if len(moved) == 1 else StepKind.MOVE_SUBASSEMBLY
        return PlanStep(kind=kind, phase=phase, moved_cells=moved, path=path,
                        post_config=post, post_cm=post_cm, note=note)

    def _unit_step(self, start: Cell, goal: Cell, phase: Phase) -> PlanStep | None:
        """Gated step of one unit around the others, or None when unreachable or rejected."""
        path = unit_flight(start, goal, self.work.cell_set, self.arena)
        return None if path is None else self._step((start,), path, phase)

    def _commit(self, step: PlanStep) -> None:
        self.steps.append(step)
        self.work = step.post_config

    def _commit_first(self, steps: Iterable[PlanStep | None],
                      failure: Callable[[], PlanningError]) -> None:
        """Commit the first of the gated `steps` that passed, or raise `failure()`."""
        for step in steps:
            if step is not None:
                self._commit(step)
                return
        raise failure()

    # -- phase 2: goals and groups ----------------------------------------

    def _form_groups(self) -> None:
        """Moving faults with one displacement ride one rigid support when
        their cells touch (with equal displacements, their goals touch
        exactly when their cells do)."""
        by_delta: dict[tuple[int, int], list[Cell]] = {}
        for c, g in self._fault_goals().items():
            if c != g:
                by_delta.setdefault((g.x - c.x, g.y - c.y), []).append(c)
        states = dict(self.work.items())
        for delta, cells in by_delta.items():
            for comp in connected_components(cells):
                self.groups.append(_Group({c: states[c] for c in comp}, delta))
        self.groups.sort(key=lambda g: min(g.faults) + g.delta)     # by smallest goal cell

    def _fault_goals(self) -> dict[Cell, Cell]:
        goals: dict[Cell, Cell] = {}
        # match within each fault-state class so kinds are preserved
        states = sorted({s for _, s in self.work.items() if s.is_faulty})
        for state in states:
            cur = [c for c, s in self.work.items() if s == state]
            tgt = [c for c, s in self.target.config.items() if s == state]
            cost = [[a.manhattan(b) for b in tgt] for a in cur]
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
            _, ranked = smallest_supports(group.faults, self.params,
                                          self.work.n - self.work.n_faulty, self.epsilon)
            chosen = None
            for shape, _ in ranked:
                landing = frozenset(c + group.delta for c in shape)
                if (all(c in self.arena for c in shape | landing)
                        and not (shape | landing) & (foreign_faults | claimed)):
                    chosen = shape
                    break
            if chosen is None:
                raise NoVmcsPlacementError(
                    "no support shape fits around the faults without conflicts",
                    faults=tuple(sorted(own)),
                )
            group.shape = chosen
            claimed |= chosen | landing

    def _build_supports(self) -> None:
        """Fill each support's vacant cells in (y, x) order, each with the
        best-ranked donor flight that passes the gate."""
        reserved = frozenset().union(*(g.shape for g in self.groups))
        for group in self.groups:
            for vacancy in sorted(group.shape - self.work.cell_set):
                flights = plan_vmcs_completion(
                    self.work, self.target.cm, vacancy, self.params, self.c1, self.c2,
                    reserved=reserved, arena=self.arena, epsilon=self.epsilon,
                )
                self._commit_first(
                    (self._step((path.start,), path, Phase.VMCS_BUILD) for path in flights),
                    lambda: NoFeasibleDonorError(f"no donor can reach vacancy {vacancy} "
                                                 "without breaking support", vacancy=vacancy))

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
            obstacles = set(settled)
            for j, other in enumerate(self.groups):
                if j != i:
                    obstacles |= other.shape | {c + other.delta for c in other.shape}
            path = astar_subassembly(group.shape, ref, ref + group.delta,
                                     frozenset(obstacles - group.shape), self.arena)
            swept |= swept_cells(group.shape, ref, path)
        self.corridor = frozenset(swept)

    def _clear_corridor(self) -> None:
        members = frozenset().union(*(g.shape for g in self.groups))
        blockers = [c for c, s in self.work.items() if c in self.corridor
                    and not s.is_faulty and c not in members]
        for blocker in blockers:
            self._commit_first(self._parking_steps(blocker),
                               lambda: NoPathError(f"blocker {blocker} has nowhere to park"))

    def _parking_steps(self, blocker: Cell) -> Iterator[PlanStep | None]:
        """The gated flights of `blocker` to its parking spots, best spot
        first, each gated as it is taken (None when rejected).

        Spots are the free cells off the corridors, searched tier by tier.
        Tier 0, the spots the rule prefers, holds the vacant target cells by
        flight length (rule on) or the blocker's row by Manhattan distance
        (rule off); tier 1 every other cell off the target by flight length,
        noted "off-target-parking", and is read only once tier 0 is spent.
        Each tier is one best_first by (rank, (y, x)), each spot from its
        Manhattan distance, so a caller that stops at the first passing
        flight routes no spot of a later tier, nor one of its own whose
        Manhattan distance sorts after the winner's rank, and no spot twice.
        """
        occupied = self.work.cell_set
        target_cells = self.target.config.cell_set
        free = [w for w in self.arena.cells() if w not in occupied and w not in self.corridor]
        preferred = target_cells.__contains__ if self.relocation_rule else lambda w: w.y == blocker.y
        tiers = (((w for w in free if preferred(w)), not self.relocation_rule, None),
                 ((w for w in free if not preferred(w) and w not in target_cells), False,
                  "off-target-parking"))
        for spots, by_distance, note in tiers:
            def route(spot: Cell, _) -> tuple | None:
                if (path := unit_flight(blocker, spot, occupied, self.arena)) is None:
                    return None
                return (blocker.manhattan(spot) if by_distance else path.length), path

            for _, path in best_first(((blocker.manhattan(w), w) for w in spots), route):
                yield self._step((blocker,), path, Phase.PATH_CLEARANCE, note)

    # -- phase 5: rigid transfers ------------------------------------------

    def _transfer_groups(self) -> None:
        for group in self.groups:
            ref = min(group.shape)
            path = astar_subassembly(group.shape, ref, ref + group.delta,
                                     self.work.cell_set - group.shape, self.arena)
            self._commit_first(
                [self._step(tuple(group.shape), path, Phase.VMCS_TRANSFER)],
                lambda: SafetyViolationError(
                    f"move of {sorted(group.shape)} would leave the system below the margin "
                    "floor", phase=Phase.VMCS_TRANSFER.value))

    # -- phase 6: fill rounds ----------------------------------------------

    def _fill_remainder(self) -> None:
        target_cells = self.target.config.cell_set
        while not target_cells <= self.work.cell_set:
            round_targets = conflict_free_targets(self.work, target_cells, self.arena)
            if not round_targets:
                raise InfeasibleAssignmentError("no fill target is reachable")
            # as many units stand off the target as target cells are vacant
            candidates = [c for c in self.work.cells if c not in target_cells]
            first, *later = self._assign_fill_moves(round_targets, candidates)
            self._commit(first)     # gated on this state; later flights are planned again
            for assigned in later:
                step = self._unit_step(assigned.path.start, assigned.path.goal,
                                       Phase.FILL_REMAINDER)
                if step is not None:
                    self._commit(step)

    def _assign_fill_moves(self, targets: list[Cell], candidates: list[Cell]) -> list[PlanStep]:
        """The gated flights of the row-major smallest pairing of least total
        gated flight length, in target order; a target without a gated flight
        waits. Costs start from ungated A* lengths, a lower bound: only
        assigned pairs are gated, a failing one is forbidden and the matrix
        solved again, until the pairing is also the smallest optimum of the
        matrix that gates every pair."""
        cost = [[_BIG] * len(candidates) for _ in targets]
        paths: dict[tuple[int, int], GridPath] = {}
        occupied = self.work.cell_set
        for j, cand in enumerate(candidates):
            for i, t in enumerate(targets):
                if (path := unit_flight(cand, t, occupied, self.arena)) is not None:
                    paths[i, j], cost[i][j] = path, path.length
        steps: dict[tuple[int, int], PlanStep | None] = {}
        while True:
            cols = lexicographic_min_assignment(cost)
            todo = [(i, j) for i, j in enumerate(cols)
                    if cost[i][j] < _BIG and (i, j) not in steps]
            for i, j in todo:
                steps[i, j] = self._step((candidates[j],), paths[i, j], Phase.FILL_REMAINDER)
                if steps[i, j] is None:
                    cost[i][j] = _BIG
            if all(steps[pair] is not None for pair in todo):
                break
        gated = [steps[i, j] for i, j in enumerate(cols) if cost[i][j] < _BIG]
        if not gated:
            raise InfeasibleAssignmentError("no unit can reach any fill target")
        return gated


def validate_plan(start: Configuration, plan: Plan) -> Configuration:
    """Re-simulate a plan; returns the final configuration.

    Reads `plan.steps`, `plan.params` and `plan.epsilon`, which must be
    finite (else ValueError). A step that fails `step_verdict` in
    `arena_around(start)` raises SafetyViolationError naming the `cause`.
    Only what the plan records is checked here, each mismatch a
    PlanningError: the path starts at the smallest moved cell, and the step
    ends in its recorded post_config with its margin to six decimals.
    """
    if not math.isfinite(plan.epsilon):
        raise ValueError(f"plan epsilon must be finite, got {plan.epsilon}")
    work = start
    arena = arena_around(start.cells)
    for idx, step in enumerate(plan.steps):
        if step.path.start != step.moved_cells[0]:
            raise PlanningError(f"step {idx} path does not start at the reference cell", step=idx)
        work, margin, cause = step_verdict(work, step.moved_cells, step.path, arena,
                                           plan.params, plan.epsilon)
        if cause is not None:
            raise SafetyViolationError(f"step {idx} fails the {cause} check", step=idx,
                                       cause=cause)
        if work != step.post_config:
            raise PlanningError(f"step {idx} post configuration mismatch", step=idx)
        # a recorded margin is rounded to six decimals
        if not (margin == step.post_cm or abs(margin - step.post_cm) <= 5e-7 + 1e-12):
            raise PlanningError(f"step {idx} records margin {step.post_cm!r}, "
                                f"its configuration has {margin!r}", step=idx)
    return work
