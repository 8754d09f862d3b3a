"""RNG-stream exactness: ``propose_vector`` draws what ``propose`` draws.

The vector fast paths are only byte-compatible with the scalar
heuristics if they consume the engine RNG *identically at every step* —
same number of draws, same order — not merely if the schedules agree.
This property is checked directly: a recording wrapper snapshots
``rng.getstate()`` after every proposal on both paths of the one kernel
(the scalar path forced by hiding ``propose_vector``), and the two
state sequences must match element for element (a schedule comparison
alone could mask compensating divergences).

Covers every heuristic with a ``propose_vector`` fast path: the
direct-draw heuristics (local rarest — one ``rng.shuffle`` plus
per-eligible-supplier ``rng.random()`` calls in scalar order — and
sequential, the same supplier draws without the shuffle), the
random heuristic (real ``rng.sample`` calls from the vector path) and
round robin (no draws at all, so any stray draw shows).  This suite is
the enforcement point for the vector stream-order contract
(``docs/MODEL.md`` §8).  Hypothesis supplies shrinking topologies when a
divergence appears; a seeded >64-token grid covers the multi-plane
layout hypothesis would be slow to reach, and hub instances with more
than 64 in-arcs into one vertex cover supplier bitmasks wider than one
word.  The inlined Fisher–Yates the vector paths shuffle with is pinned
to ``random.Random.shuffle`` directly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core.problem import Problem
from repro.heuristics import HEURISTIC_FACTORIES
from repro.heuristics.sequential import SequentialHeuristic
from repro.heuristics.vector_common import list_shuffler
from repro.sim import Engine

from tests.conftest import make_random_problem, problems, scalar_only

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


def stream_states(problem, name: str, seed: int, vector: bool):
    states: list = []
    rng = random.Random(seed)
    heuristic = recording(name, states)
    if not vector:
        scalar_only(heuristic)
    Engine(problem, heuristic, rng=rng).run()
    states.append(rng.getstate())
    return states


@given(problems(max_vertices=8, max_tokens=6))
@settings(max_examples=25, deadline=None)
def test_property_streams_identical(problem):
    for name in STREAM_HEURISTICS:
        scalar = stream_states(problem, name, seed=13, vector=False)
        vector = stream_states(problem, name, seed=13, vector=True)
        assert scalar == vector, name


@pytest.mark.parametrize("name", STREAM_HEURISTICS)
def test_multi_plane_streams_identical(name):
    rng = random.Random(411)
    for i in range(5):
        problem = make_random_problem(rng, max_vertices=9, max_tokens=90)
        scalar = stream_states(problem, name, seed=100 + i, vector=False)
        vector = stream_states(problem, name, seed=100 + i, vector=True)
        assert scalar == vector, (name, i)


def hub_problem(rng: random.Random, spokes: int, tokens: int) -> Problem:
    """A hub with ``spokes`` in-arcs (and as many out-arcs), a spoke
    ring, and tokens scattered over the spokes; everyone wants all."""
    hub = 0
    arcs = []
    for v in range(1, spokes + 1):
        cap = rng.randint(1, 2)
        arcs += [(v, hub, cap), (hub, v, cap)]
        w = v % spokes + 1
        arcs += [(v, w, 1), (w, v, 1)]
    have = {v: rng.sample(range(tokens), rng.randint(1, 3)) for v in range(1, spokes + 1)}
    have[1] = list(range(tokens))  # every token is held somewhere
    want = {v: list(range(tokens)) for v in range(spokes + 1)}
    return Problem.build(spokes + 1, tokens, arcs, have, want)


@pytest.mark.parametrize("name", ["local", "sequential"])
@pytest.mark.parametrize("spokes,tokens", [(70, 20), (130, 90)])
def test_wide_supplier_masks_streams_identical(name, spokes, tokens):
    problem = hub_problem(random.Random(spokes * tokens), spokes, tokens)
    assert len(problem.in_arcs(0)) > 64
    scalar = stream_states(problem, name, seed=5, vector=False)
    vector = stream_states(problem, name, seed=5, vector=True)
    assert scalar == vector


def test_inlined_shuffle_matches_random_shuffle():
    for n in range(301):
        ours, theirs = random.Random(n), random.Random(n)
        mine = list(range(n))
        expected = list(range(n))
        list_shuffler(ours)(mine)
        theirs.shuffle(expected)
        assert mine == expected, n
        assert ours.getstate() == theirs.getstate(), n


def test_random_subclass_keeps_its_own_shuffle():
    calls = []

    class Counting(random.Random):
        def shuffle(self, x):
            calls.append(len(x))
            super().shuffle(x)

    rng = Counting(3)
    items = list(range(10))
    list_shuffler(rng)(items)
    assert calls == [10]
    assert sorted(items) == list(range(10))
