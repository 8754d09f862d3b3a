"""Streaming (per-object latency) analysis of schedules.

The paper's introduction lists *per-object latency* among content
distribution goals its makespan/bandwidth evaluation does not cover.
This module analyzes any schedule through a streaming lens: tokens are
media pieces consumed **in index order** at a fixed playback rate, and
the quantity of interest is how early each receiver can safely start.

For a receiver whose token ``t`` first arrives at step ``a_t``, playback
starting at step ``s`` with rate ``r`` tokens/step consumes token ``t``
during step ``s + ceil((t+1)/r)``; it never stalls iff
``a_t <= s + floor(t/r)`` for every wanted ``t``.  The minimal safe
start is therefore ``max_t (a_t - floor(t/r))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.problem import Problem
from repro.core.schedule import Schedule

__all__ = ["StreamingReport", "arrival_times", "playback_delays", "streaming_report"]


def arrival_times(
    problem: Problem, schedule: Schedule
) -> List[Dict[int, int]]:
    """Per vertex: first possession step of each token it ever holds."""
    history = schedule.validate(problem)
    arrivals: List[Dict[int, int]] = [dict() for _ in range(problem.num_vertices)]
    for step, possession in enumerate(history):
        for v in range(problem.num_vertices):
            for token in possession[v]:
                arrivals[v].setdefault(token, step)
    return arrivals


def playback_delays(
    problem: Problem,
    schedule: Schedule,
    rate: int = 1,
) -> List[Optional[int]]:
    """Minimal safe playback start per vertex (``None`` if its want is
    never fully delivered; 0 for vertices wanting nothing).

    Only *wanted* tokens gate playback; the indices used for ordering
    are each vertex's wanted tokens in increasing token id, i.e. token
    ids define the stream order.
    """
    if rate < 1:
        raise ValueError(f"rate must be >= 1, got {rate}")
    arrivals = arrival_times(problem, schedule)
    delays: List[Optional[int]] = []
    for v in range(problem.num_vertices):
        wanted = sorted(problem.want[v])
        if not wanted:
            delays.append(0)
            continue
        start = 0
        complete = True
        for position, token in enumerate(wanted):
            arrived = arrivals[v].get(token)
            if arrived is None:
                complete = False
                break
            start = max(start, arrived - position // rate)
        delays.append(start if complete else None)
    return delays


@dataclass(frozen=True)
class StreamingReport:
    """Aggregate streaming quality of one schedule."""

    mean_startup_delay: float
    max_startup_delay: int
    receivers: int
    incomplete: int

    def all_complete(self) -> bool:
        return self.incomplete == 0


def streaming_report(
    problem: Problem, schedule: Schedule, rate: int = 1
) -> StreamingReport:
    """Summarize startup delays over all vertices with non-empty wants."""
    delays = playback_delays(problem, schedule, rate=rate)
    relevant = [
        delays[v] for v in range(problem.num_vertices) if problem.want[v]
    ]
    finite = [d for d in relevant if d is not None]
    return StreamingReport(
        mean_startup_delay=sum(finite) / len(finite) if finite else 0.0,
        max_startup_delay=max(finite) if finite else 0,
        receivers=len(relevant),
        incomplete=sum(1 for d in relevant if d is None),
    )
