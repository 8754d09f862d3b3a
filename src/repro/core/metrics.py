"""Metrics over problems and schedules.

The paper evaluates heuristics on two axes — the number of timesteps
("moves" in the figures' x-label sense is the makespan; the paper's plots
call it *moves*) and the total bandwidth (token-arc transfers).  This
module computes those and the finer-grained views used in EXPERIMENTS.md:
per-vertex completion times and per-timestep progress curves.

Terminology note: the paper's figures label the makespan axis "moves"
(as in "number of rounds of simultaneous moves"), while "bandwidth" counts
individual token transfers.  We expose both under unambiguous names and
keep ``makespan``/``bandwidth`` as the canonical pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.problem import Problem
from repro.core.schedule import Schedule
from repro.core.tokenset import TokenSet

__all__ = ["ScheduleMetrics", "evaluate_schedule", "completion_times", "progress_curve"]


@dataclass(frozen=True)
class ScheduleMetrics:
    """Summary metrics for one schedule against one problem."""

    makespan: int
    bandwidth: int
    successful: bool
    mean_completion: float
    max_completion: int
    unsatisfied_vertices: int

    def as_row(self) -> Dict[str, Any]:
        """Flat dict for tabular reports."""
        return {
            "makespan": self.makespan,
            "bandwidth": self.bandwidth,
            "successful": self.successful,
            "mean_completion": round(self.mean_completion, 3),
            "max_completion": self.max_completion,
            "unsatisfied": self.unsatisfied_vertices,
        }


def completion_times(problem: Problem, schedule: Schedule) -> List[Optional[int]]:
    """Timestep at which each vertex first holds everything it wants.

    Vertices with empty (or initially satisfied) wants complete at 0;
    vertices never satisfied get ``None``.  Raises
    :class:`~repro.core.schedule.ScheduleError` for an invalid schedule.
    """
    return _completion_times(problem, schedule.validate(problem))


def _completion_times(
    problem: Problem, history: Sequence[Sequence[TokenSet]]
) -> List[Optional[int]]:
    times: List[Optional[int]] = []
    for v in range(problem.num_vertices):
        found: Optional[int] = None
        for i, possession in enumerate(history):
            if problem.want[v] <= possession[v]:
                found = i
                break
        times.append(found)
    return times


def progress_curve(problem: Problem, schedule: Schedule) -> List[int]:
    """Outstanding demand (wanted-but-missing token count) after each step.

    Entry 0 is the initial demand; the curve is non-increasing and
    reaches 0 exactly when the schedule succeeds.  Raises
    :class:`~repro.core.schedule.ScheduleError` for an invalid schedule.
    """
    history = schedule.validate(problem)
    curve: List[int] = []
    for possession in history:
        curve.append(
            sum(
                len(problem.want[v] - possession[v])
                for v in range(problem.num_vertices)
            )
        )
    return curve


def evaluate_schedule(problem: Problem, schedule: Schedule) -> ScheduleMetrics:
    """Validate and summarize a schedule in one pass."""
    history = schedule.validate(problem)
    final = history[-1]
    unsatisfied = sum(
        1 for v in range(problem.num_vertices) if not problem.want[v] <= final[v]
    )
    times = _completion_times(problem, history)
    finite = [t for t in times if t is not None]
    mean_completion = sum(finite) / len(finite) if finite else 0.0
    max_completion = max(finite) if finite else 0
    return ScheduleMetrics(
        makespan=schedule.makespan,
        bandwidth=schedule.bandwidth,
        successful=unsatisfied == 0,
        mean_completion=mean_completion,
        max_completion=max_completion,
        unsatisfied_vertices=unsatisfied,
    )
