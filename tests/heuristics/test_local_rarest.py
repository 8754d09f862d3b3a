"""Behavioral tests for the Local (rarest-random) heuristic."""

import random

import pytest

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.heuristics import LocalRarestHeuristic
from repro.obs import RecordingTracer
from repro.sim import StallError, run_heuristic
from repro.topology import star_topology
from repro.workloads import single_file

from tests.conftest import vector_sends


class TestRequestSubdivision:
    def test_no_duplicate_sends_to_one_vertex(self):
        """Two in-neighbors holding the same rare token never both send
        it — requests subdivide the need."""
        p = Problem.build(
            3, 1, [(0, 2, 1), (1, 2, 1)], {0: [0], 1: [0]}, {2: [0]}
        )
        h = LocalRarestHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        total = sum(len(tokens) for tokens in proposal.values())
        assert total == 1  # exactly one copy requested

    def test_requests_split_across_suppliers(self):
        """With two suppliers of capacity 1 and two needed tokens, one
        request goes to each."""
        p = Problem.build(
            3, 2, [(0, 2, 1), (1, 2, 1)], {0: [0, 1], 1: [0, 1]}, {2: [0, 1]}
        )
        h = LocalRarestHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert len(proposal) == 2
        received = TokenSet(0)
        for tokens in proposal.values():
            assert len(tokens) == 1
            received = received | tokens
        assert sorted(received) == [0, 1]

    def test_respects_capacity_budget(self):
        p = Problem.build(
            2, 5, [(0, 1, 2)], {0: list(range(5))}, {1: list(range(5))}
        )
        h = LocalRarestHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert len(proposal[(0, 1)]) == 2


class TestRarestFirst:
    def test_prefers_rarest_token(self):
        # Token 1 is held by 3 vertices, token 0 only by vertex 0: with
        # capacity 1, the rare token 0 is requested first.
        p = Problem.build(
            4,
            2,
            [(0, 3, 1), (1, 3, 1), (2, 3, 1)],
            {0: [0, 1], 1: [1], 2: [1]},
            {3: [0, 1]},
        )
        h = LocalRarestHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert proposal[(0, 3)] == TokenSet.of(0)

    def test_floods_beyond_wants(self):
        """Local is a flooding heuristic: non-wanting vertices still pull
        tokens so they can relay (Figure 4's constant bandwidth)."""
        p = Problem.build(
            3, 1, [(0, 1, 1), (1, 2, 1)], {0: [0]}, {2: [0]}
        )
        h = LocalRarestHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        # Vertex 1 wants nothing but still requests the token.
        assert proposal.get((0, 1)) == TokenSet.of(0)


class TestDiversity:
    def test_spreads_distinct_tokens_from_hub(self):
        """The hub's leaves request different rare tokens when possible,
        diversifying possession (the rarest-random goal)."""
        problem = single_file(star_topology(5, capacity=1), file_tokens=4)
        h = LocalRarestHeuristic()
        h.reset(problem, random.Random(3))
        proposal = vector_sends(h, problem)
        sent = [list(tokens)[0] for tokens in proposal.values()]
        # 4 leaves, 4 tokens: at least 3 distinct tokens in flight.
        assert len(set(sent)) >= 3

    def test_beats_round_robin_makespan_on_star(self):
        from repro.heuristics import RoundRobinHeuristic

        problem = single_file(star_topology(6, capacity=1), file_tokens=8)
        local = run_heuristic(problem, LocalRarestHeuristic(), seed=1)
        rr = run_heuristic(problem, RoundRobinHeuristic(), seed=1)
        assert local.success and rr.success
        assert local.bandwidth <= rr.bandwidth


class TestEmptyStep:
    def test_traced_empty_step_on_two_planes(self):
        """A step with no candidate proposes no sends in the two-plane
        mask shape, so the traced run reaches the stall test."""
        p = Problem.build(2, 65, [(0, 1, 1), (1, 0, 1)], {0: [1]}, {1: [0]})
        tracer = RecordingTracer()
        with pytest.raises(StallError, match="no arc carries a useful token"):
            run_heuristic(p, LocalRarestHeuristic(), seed=1, tracer=tracer)
        steps = tracer.of_kind("step")
        assert [e["moves"] for e in steps] == [1, 0]
