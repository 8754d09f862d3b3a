"""Re-trace a finished schedule as if a tracing engine had produced it.

The frozen reference oracle (:mod:`repro.sim.reference`) predates the
tracing layer and must never change — but differential debugging wants
a reference *trace* to diff against a live engine trace.  The bridge is
:func:`retrace_run`: replay a completed :class:`~repro.core.schedule.
Schedule` through a fresh :class:`~repro.sim.state.SimState` and emit
events through the exact same helpers (:func:`repro.sim.engine.
emit_run_start` / :func:`~repro.sim.engine.emit_step_event` /
:func:`~repro.sim.engine.count_stall`) in the exact control-flow order
of :meth:`repro.sim.engine.StepDriver.run`.  Because the
incremental engine's schedules are byte-identical to the oracle's, the
re-trace of an oracle schedule is byte-identical to a live engine trace
of the same (problem, heuristic, seed) — except for the ``engine``
label, which honestly records where the schedule came from
(``trace-diff --ignore-fields engine`` masks it).
"""

from __future__ import annotations

from typing import Optional

from repro.core.problem import Problem
from repro.core.schedule import Schedule
from repro.obs.tracer import Tracer
from repro.sim.engine import StallError, count_stall, emit_run_start, emit_step_event
from repro.sim.state import SimState

__all__ = ["retrace_run"]


def retrace_run(
    tracer: Tracer,
    problem: Problem,
    schedule: Schedule,
    success: bool,
    heuristic_name: str,
    engine: str = "sim",
    max_steps: Optional[int] = None,
) -> None:
    """Emit the trace a tracing engine would have produced for ``schedule``.

    ``engine`` is the label stamped into ``run_start`` (use
    ``"reference"`` for oracle schedules).  ``max_steps`` must match the
    producing engine's cap for byte-identity; the default mirrors
    :class:`repro.sim.Engine`.
    """
    if not tracer.enabled:
        return
    if max_steps is None:
        max_steps = 4 * max(problem.move_bound(), 1) + 64
    state = SimState(problem)
    emit_run_start(tracer, engine, problem, heuristic_name, state, max_steps)
    stalled_for = 0
    for step, timestep in enumerate(schedule.steps):
        version_before = state.version
        state.apply_timestep(timestep)
        emit_step_event(tracer, problem, state, timestep, step, version_before)
        if state.satisfied():
            break
        if state.version != version_before:
            stalled_for = 0
            continue
        try:
            empty = count_stall(tracer, state, timestep, step, stalled_for)
        except StallError:
            # The live engine's trace ends at the terminal stall too (no
            # run_end follows it) — but replayed schedules come from
            # *completed* runs, which never reach this state.
            return
        stalled_for = stalled_for + 1 if empty else 0
    tracer.emit(
        "run_end",
        {
            "success": success,
            "makespan": schedule.makespan,
            "bandwidth": schedule.bandwidth,
        },
    )
