"""Re-trace a finished schedule as if a tracing engine had produced it.

The frozen reference oracle (:mod:`repro.sim.reference`) predates the
tracing layer and must never change — but differential debugging wants
a reference *trace* to diff against a live engine trace.  The bridge is
:func:`retrace_run`: run :class:`repro.sim.Engine`, and so the one
step loop :class:`repro.sim.engine.StepDriver`, with a completed
:class:`~repro.core.schedule.Schedule` as its proposal source.  Each
replayed step is validated against §3.1 like a live proposal, applied,
and traced by the same code that traces a live run.  Because the
incremental engine's schedules are byte-identical to the oracle's, the
re-trace of an oracle schedule is byte-identical to a live engine trace
of the same (problem, heuristic, seed) — except for the ``engine``
label, which honestly records where the schedule came from
(``trace-diff --ignore-fields engine`` masks it).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine, Proposal, StallError, StepContext

__all__ = ["retrace_run"]


class _Replay:
    """A heuristic whose proposals are a finished schedule's steps."""

    def __init__(self, steps: Sequence[Timestep], name: str) -> None:
        self.name = name
        self._steps = steps

    def reset(self, problem: Problem, rng: random.Random) -> None:
        pass

    def propose(self, ctx: StepContext) -> Proposal:
        if ctx.step == len(self._steps):
            raise StallError(
                f"step {ctx.step}: the replayed schedule of {self.name!r} "
                f"ends with demand remaining"
            )
        return self._steps[ctx.step].sends


def retrace_run(
    tracer: Tracer,
    problem: Problem,
    schedule: Schedule,
    heuristic_name: str,
    engine: str = "sim",
    max_steps: Optional[int] = None,
) -> None:
    """Emit the trace a tracing engine would have produced for ``schedule``.

    ``engine`` is the label stamped into ``run_start`` (use
    ``"reference"`` for oracle schedules).  ``max_steps`` must match the
    producing engine's cap for byte-identity; the default is
    :class:`repro.sim.Engine`'s.  A step that breaks §3.1 raises
    :class:`~repro.sim.engine.HeuristicViolation` naming it, and a
    schedule that stalls or ends before every want is met raises
    :class:`~repro.sim.engine.StallError`.
    """
    if not tracer.enabled:
        return
    driver = Engine(
        problem, _Replay(schedule.steps, heuristic_name), max_steps=max_steps, tracer=tracer
    )
    driver.engine_name = engine
    driver.run()
