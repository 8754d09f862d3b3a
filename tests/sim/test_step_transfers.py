"""Step events' ``sends``, ``moves`` and ``transfers`` against the schedule.

The emitter builds those fields from a timestep's send arrays.  Here they
are rebuilt from the :class:`~repro.core.schedule.Schedule` each driver
returns, through the timestep's send dict, so a wrong plane, byte order
or sort in the emitter shows up as a mismatch.  Every driver is covered
(:class:`Engine` on both proposal paths — the ``vector`` heuristics and
the ``scalar`` ``propose`` dict ones —, :class:`LocalEngine`,
:class:`DynamicEngine`) on 1-, 2- and 3-plane token universes.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.core.problem import Problem
from repro.extensions.dynamic import churn_schedule, run_dynamic
from repro.heuristics import make_heuristic, standard_heuristics
from repro.locd import LocalRarest, run_local
from repro.obs import RecordingTracer
from repro.sim import run_heuristic
from repro.sim.engine import RunResult
from repro.topology import random_graph
from repro.workloads import single_file

#: 1, 1, 2 and 3 planes.
TOKEN_COUNTS = [5, 64, 65, 130]


def _problem(num_tokens: int) -> Problem:
    return single_file(random_graph(10, random.Random(num_tokens)), file_tokens=num_tokens)


def _expected(sends: Dict[Any, Any]) -> Dict[str, Any]:
    return {
        "sends": len(sends),
        "moves": sum(len(tokens) for tokens in sends.values()),
        "transfers": [[s, d, sorted(sends[(s, d)])] for (s, d) in sorted(sends)],
    }


def _assert_steps_match(events: List[Dict[str, Any]], result: RunResult) -> int:
    """Check every ``step`` event of the one run in ``events``; returns
    how many of its steps sent nothing."""
    steps = [e for e in events if e["event"] == "step"]
    assert [e["step"] for e in steps] == list(range(result.makespan))
    empty = 0
    for event, timestep in zip(steps, result.schedule):
        got = {key: event[key] for key in ("sends", "moves", "transfers")}
        assert got == _expected(timestep.sends), f"step {event['step']}"
        empty += not timestep.sends
    return empty


def _checked_vector(heuristic: Any, calls: List[int]) -> Any:
    """Wrap ``heuristic.propose_vector``: each proposal must name each arc
    at most once (the send arrays keep every row, where a dict would keep
    the last), and ``calls`` counts the proposals it made."""
    propose = heuristic.propose_vector

    def checked(state: Any) -> Any:
        vec = propose(state)
        indices = np.asarray(vec.arc_indices)
        assert len(np.unique(indices)) == len(indices), "an arc is proposed twice"
        calls.append(len(indices))
        return vec

    heuristic.propose_vector = checked
    return heuristic


@pytest.mark.parametrize("num_tokens", TOKEN_COUNTS)
@pytest.mark.parametrize("path", ["vector", "scalar"])
def test_engine_steps_match_schedule(num_tokens: int, path: str) -> None:
    """``vector``: the heuristics with ``propose_vector`` (Round-Robin,
    Random, Local); ``scalar``: those proposing a dict (Bandwidth,
    Global)."""
    problem = _problem(num_tokens)
    vector_calls: List[int] = []
    ran = 0
    for heuristic in standard_heuristics():
        if hasattr(heuristic, "propose_vector") != (path == "vector"):
            continue
        if path == "vector":
            _checked_vector(heuristic, vector_calls)
        tracer = RecordingTracer()
        result = run_heuristic(problem, heuristic, seed=num_tokens, tracer=tracer)
        assert result.success
        _assert_steps_match(tracer.events, result)
        ran += 1
    assert ran >= 2
    if path == "vector":
        assert vector_calls, "no heuristic took the vector path"


@pytest.mark.parametrize("num_tokens", TOKEN_COUNTS)
def test_local_engine_steps_match_schedule(num_tokens: int) -> None:
    tracer = RecordingTracer()
    result = run_local(_problem(num_tokens), LocalRarest(), seed=1, tracer=tracer)
    assert result.success
    _assert_steps_match(tracer.events, result)


@pytest.mark.parametrize("num_tokens", TOKEN_COUNTS)
def test_dynamic_engine_steps_match_schedule(num_tokens: int) -> None:
    problem = _problem(num_tokens)
    # The only holder is away for the first two turns: nothing can move.
    (holder,) = [v for v in range(problem.num_vertices) if problem.have[v]]
    conditions = churn_schedule(problem, {holder: [(0, 2)]})
    tracer = RecordingTracer()
    result = run_dynamic(conditions, make_heuristic("local"), seed=2, tracer=tracer)
    assert result.success
    assert _assert_steps_match(tracer.events, result) >= 2
