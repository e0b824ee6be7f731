"""Typed failure conditions shared across the package.

Planner failures always carry a machine-readable `reason` slug so callers
(and the CLI exit-code mapping) can distinguish infeasibility classes without
parsing message text.
"""

from __future__ import annotations


class ScenarioError(ValueError):
    """Malformed scenario input (unknown key, bad cell, bad fault spec)."""


class InfeasibleTargetError(Exception):
    """No fault placement on the footprint reaches a non-negative margin."""


class PlanningError(Exception):
    reason = "planning"

    def __init__(self, msg: str, **info):
        super().__init__(msg)
        self.info = info


class NoPathError(PlanningError):
    """Goal unreachable, or the start or goal placement does not fit."""

    reason = "no-path"


class NoFeasibleDonorError(PlanningError):
    reason = "no-feasible-donor"


class NoVmcsPlacementError(PlanningError):
    reason = "no-vmcs-placement"


class InfeasibleAssignmentError(PlanningError):
    reason = "infeasible-assignment"


class SafetyViolationError(PlanningError):
    """A move the gate rejects; `info["cause"]` names the check that failed."""
    reason = "safety-violation"


class VmcsSearchError(PlanningError):
    reason = "vmcs-search-exhausted"
