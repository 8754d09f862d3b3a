"""RNG-stream exactness: ``propose_vector`` draws what ``propose`` draws.

The vector fast paths are only byte-compatible with the scalar
heuristics if they consume the engine RNG *identically at every step* —
same number of draws, same order — not merely if the schedules agree.
This property is checked directly: a recording wrapper snapshots
``rng.getstate()`` after every proposal on both kernels, and the two
state sequences must match element for element (a schedule comparison
alone could mask compensating divergences).

Covers every heuristic with a ``propose_vector`` fast path: the
direct-draw heuristics (local rarest, sequential — one ``rng.shuffle``
plus per-eligible-supplier ``rng.random()`` calls in scalar order), the
random heuristic (real ``rng.sample`` calls from the vector path) and
round robin (no draws at all, so any stray draw shows).  This suite is
the enforcement point for the vector stream-order contract
(``docs/MODEL.md`` §8).  Hypothesis supplies shrinking topologies when a
divergence appears; a seeded >64-token grid covers the multi-plane
layout hypothesis would be slow to reach.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.heuristics import HEURISTIC_FACTORIES
from repro.heuristics.sequential import SequentialHeuristic
from repro.sim import Engine

from tests.conftest import make_random_problem, problems

FACTORIES = {**HEURISTIC_FACTORIES, "sequential": SequentialHeuristic}
STREAM_HEURISTICS = tuple(
    name for name, factory in FACTORIES.items() if hasattr(factory(), "propose_vector")
)


def new_heuristic(name: str):
    return FACTORIES[name]()


def recording(name: str, states):
    """A heuristic that snapshots the engine RNG after every proposal."""
    base = new_heuristic(name)

    class Recording(type(base)):
        def propose(self, ctx):
            proposal = super().propose(ctx)
            states.append(self.rng.getstate())
            return proposal

        def propose_vector(self, state):
            vec = super().propose_vector(state)
            if vec is None:
                return None
            states.append(self.rng.getstate())
            return vec

    return Recording()


def stream_states(problem, name: str, seed: int, kernel: str):
    states: list = []
    rng = random.Random(seed)
    Engine(problem, recording(name, states), rng=rng, kernel=kernel).run()
    states.append(rng.getstate())
    return states


@given(problems(max_vertices=8, max_tokens=6))
@settings(max_examples=25, deadline=None)
def test_property_streams_identical(problem):
    for name in STREAM_HEURISTICS:
        scalar = stream_states(problem, name, seed=13, kernel="state")
        vector = stream_states(problem, name, seed=13, kernel="batch")
        assert scalar == vector, name


@pytest.mark.parametrize("name", STREAM_HEURISTICS)
def test_multi_plane_streams_identical(name):
    rng = random.Random(411)
    for i in range(5):
        problem = make_random_problem(rng, max_vertices=9, max_tokens=90)
        scalar = stream_states(problem, name, seed=100 + i, kernel="state")
        vector = stream_states(problem, name, seed=100 + i, kernel="batch")
        assert scalar == vector, (name, i)
