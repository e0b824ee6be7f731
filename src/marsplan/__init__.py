"""Controllability-safe self-reconfiguration planning for modular aerial
robot assemblies (MARS) on a grid.

The library models rectangular assemblies of quadrotor units, scores any
subassembly by its controllability margin (signed distance from the hover
wrench to the boundary of the feasible wrench set), searches for the smallest
support structure that keeps faulty units flyable, and plans step-by-step
reconfiguration in which every intermediate state stays controllable.
"""

from .controllability import DEFAULT_PARAMS, PhysicalParams, subassembly_cm, system_cm
from .errors import InfeasibleTargetError, PlanningError, ScenarioError
from .io import load_scenario, replay_document, save_plan
from .model import UNIT_FAULT, Cell, Configuration, Subassembly, rotor_fault
from .planner import plan, validate_plan
from .render import render_plan_svgs
from .vmcs import identify_vmcs, optimal_configuration

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PARAMS",
    "PhysicalParams",
    "subassembly_cm",
    "system_cm",
    "InfeasibleTargetError",
    "PlanningError",
    "ScenarioError",
    "load_scenario",
    "replay_document",
    "save_plan",
    "UNIT_FAULT",
    "Cell",
    "Configuration",
    "Subassembly",
    "rotor_fault",
    "plan",
    "validate_plan",
    "render_plan_svgs",
    "identify_vmcs",
    "optimal_configuration",
    "__version__",
]
