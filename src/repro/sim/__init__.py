"""Synchronous round-based simulation of OCD distribution schedules."""

from repro.sim.engine import (
    Engine,
    HeuristicProtocol,
    HeuristicViolation,
    Proposal,
    RunResult,
    StallError,
    StepContext,
    run_heuristic,
)
from repro.sim.render import possession_timeline, schedule_to_text
from repro.sim.state import SimState

__all__ = [
    "Engine",
    "HeuristicProtocol",
    "HeuristicViolation",
    "Proposal",
    "RunResult",
    "SimState",
    "StallError",
    "StepContext",
    "possession_timeline",
    "run_heuristic",
    "schedule_to_text",
]
