"""RNG-stream exactness: ``propose_vector`` draws what the reference draws.

The vector paths are only byte-compatible with the frozen ``propose``
bodies in :mod:`repro.sim.reference` if they consume the engine RNG
*identically at every step* — same number of draws, same order — not
merely if the schedules agree.  This property is checked directly: a
recording wrapper snapshots ``rng.getstate()`` after every proposal of
the vector path under :class:`repro.sim.Engine` and of the reference
heuristic under the reference loop, and the two state sequences must
match element for element (a schedule comparison alone could mask
compensating divergences).

Covers every heuristic with a ``propose_vector``: the direct-draw
heuristics (local rarest — one shuffle plus per-eligible-supplier
``rng.random()`` calls in in-arc order — and sequential, the same
supplier draws without the shuffle), the random heuristic (real
``rng.sample`` calls from the vector path) and round robin (no draws at
all, so any stray draw shows).  This suite is the enforcement point for
the vector stream-order contract (``docs/MODEL.md`` §8).  Hypothesis
supplies shrinking topologies when a divergence appears; a seeded
>64-token grid covers the multi-plane layout hypothesis would be slow
to reach, and hub instances with more than 64 in-arcs into one vertex
cover supplier bitmasks wider than one word.  The inlined Fisher–Yates
the vector paths shuffle with is pinned to ``random.Random.shuffle``
directly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core.problem import Problem
from repro.heuristics import HEURISTIC_FACTORIES
from repro.heuristics.vector_common import list_shuffler

from tests.conftest import make_random_problem, new_heuristic, problems, recorded_run

STREAM_HEURISTICS = tuple(
    name
    for name in (*HEURISTIC_FACTORIES, "sequential")
    if hasattr(new_heuristic(name), "propose_vector")
)


@given(problems(max_vertices=8, max_tokens=6))
@settings(max_examples=25, deadline=None)
def test_property_streams_identical(problem):
    for name in STREAM_HEURISTICS:
        _, reference = recorded_run(problem, name, 13, reference=True)
        _, vector = recorded_run(problem, name, 13)
        assert reference == vector, name


@pytest.mark.parametrize("name", STREAM_HEURISTICS)
def test_multi_plane_streams_identical(name):
    rng = random.Random(411)
    for i in range(5):
        problem = make_random_problem(rng, max_vertices=9, max_tokens=90)
        _, reference = recorded_run(problem, name, 100 + i, reference=True)
        _, vector = recorded_run(problem, name, 100 + i)
        assert reference == vector, (name, i)


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
    _, reference = recorded_run(problem, name, 5, reference=True)
    _, vector = recorded_run(problem, name, 5)
    assert reference == vector


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
