"""Human-readable renderings of schedules and runs.

Exact witnesses and heuristic traces on small instances are much easier
to inspect as text than as nested token-set dicts.  Two views:

* :func:`schedule_to_text` — one block per timestep listing its moves,
  followed by the per-vertex possession after the step;
* :func:`possession_timeline` — a vertex-by-timestep grid where each
  cell counts the tokens held (with a ``*`` once the vertex's want is
  satisfied), compact enough for instances of a few dozen vertices.
"""

from __future__ import annotations

import io
from typing import Iterable, List, Optional, Sequence

from repro.core.metrics import completion_times
from repro.core.problem import Problem
from repro.core.schedule import Schedule

__all__ = ["schedule_to_text", "possession_timeline"]


def _token_label(tokens: Iterable[int]) -> str:
    return "{" + ",".join(map(str, tokens)) + "}"


def schedule_to_text(
    problem: Problem, schedule: Schedule, max_vertices: int = 20
) -> str:
    """Step-by-step rendering with possession snapshots.

    For instances above ``max_vertices`` vertices the possession
    snapshot lines are elided (the move lists are still shown).
    """
    history = schedule.validate(problem)
    out = io.StringIO()
    out.write(
        f"schedule for {problem.name or 'problem'}: "
        f"{schedule.makespan} timesteps, {schedule.bandwidth} moves\n"
    )
    show_possession = problem.num_vertices <= max_vertices

    def write_possession(step_index: int) -> None:
        if not show_possession:
            return
        cells: List[str] = []
        for v in range(problem.num_vertices):
            held = history[step_index][v]
            satisfied = problem.want[v] <= held
            cells.append(f"{v}:{_token_label(held)}{'*' if satisfied else ''}")
        out.write("    holds " + "  ".join(cells) + "\n")

    write_possession(0)
    for i, step in enumerate(schedule.steps):
        moves = step.moves()
        if moves:
            rendered = ", ".join(
                f"{m.src}->{m.dst}:t{m.token}" for m in moves
            )
        else:
            rendered = "(idle)"
        out.write(f"  step {i + 1}: {rendered}\n")
        write_possession(i + 1)
    return out.getvalue()


def possession_timeline(
    problem: Problem,
    schedule: Schedule,
    vertices: Optional[Sequence[int]] = None,
) -> str:
    """A vertex x timestep grid of held-token counts.

    Cells show ``|p_i(v)|``; a trailing ``*`` marks the step at which
    the vertex's want is first fully covered.  The ``vertices`` argument
    restricts the rows (default: all).
    """
    history = schedule.validate(problem)
    if vertices is None:
        vertices = range(problem.num_vertices)
    times = completion_times(problem, schedule)
    width = max(3, len(str(problem.num_tokens)) + 1)
    out = io.StringIO()
    header = "vertex " + " ".join(
        f"t{i}".rjust(width) for i in range(len(history))
    )
    out.write(header + "\n")
    for v in vertices:
        cells: List[str] = []
        for i, possession in enumerate(history):
            count = len(possession[v])
            mark = "*" if times[v] == i else " "
            cells.append(f"{count}{mark}".rjust(width))
        out.write(f"{str(v).rjust(6)} " + " ".join(cells) + "\n")
    return out.getvalue()
