"""Behavioral tests for the Round-Robin heuristic."""

import random

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.heuristics import RandomHeuristic, RoundRobinHeuristic
from repro.sim import run_heuristic
from repro.topology import star_topology
from repro.workloads import single_file

from tests.conftest import vector_sends


class TestQueueBehavior:
    def test_sends_in_circular_order(self):
        p = Problem.build(2, 4, [(0, 1, 1)], {0: [0, 1, 2, 3]}, {1: [0, 1, 2, 3]})
        h = RoundRobinHeuristic()
        h.reset(p, random.Random(0))
        sent = []
        for _ in range(5):
            proposal = vector_sends(h, p)
            sent.append(list(proposal[(0, 1)])[0])
        assert sent == [0, 1, 2, 3, 0]  # wraps around

    def test_skips_unowned_tokens(self):
        p = Problem.build(2, 4, [(0, 1, 1)], {0: [1, 3]}, {1: [1, 3]})
        h = RoundRobinHeuristic()
        h.reset(p, random.Random(0))
        sent = [list(vector_sends(h, p)[(0, 1)])[0] for _ in range(3)]
        assert sent == [1, 3, 1]

    def test_fills_capacity(self):
        p = Problem.build(2, 5, [(0, 1, 3)], {0: [0, 1, 2, 3, 4]}, {1: [0]})
        h = RoundRobinHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert sorted(proposal[(0, 1)]) == [0, 1, 2]

    def test_fewer_tokens_than_capacity(self):
        p = Problem.build(2, 3, [(0, 1, 5)], {0: [1]}, {1: [1]})
        h = RoundRobinHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert sorted(proposal[(0, 1)]) == [1]

    def test_independent_cursor_per_arc(self):
        p = Problem.build(
            3, 2, [(0, 1, 1), (0, 2, 1)], {0: [0, 1]}, {1: [0, 1], 2: [0, 1]}
        )
        h = RoundRobinHeuristic()
        h.reset(p, random.Random(0))
        first = vector_sends(h, p)
        # Both arcs start at token 0 independently.
        assert first[(0, 1)] == TokenSet.of(0)
        assert first[(0, 2)] == TokenSet.of(0)

    def test_empty_sender_sends_nothing(self):
        p = Problem.build(2, 2, [(1, 0, 1), (0, 1, 1)], {0: [0, 1]}, {1: [0, 1]})
        h = RoundRobinHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert (1, 0) not in proposal

    def test_zero_tokens(self):
        p = Problem.build(2, 0, [(0, 1, 1)], {}, {})
        h = RoundRobinHeuristic()
        h.reset(p, random.Random(0))
        assert vector_sends(h, p) == {}


class TestPaperCharacteristics:
    def test_ignores_peer_state_and_wastes_bandwidth(self):
        """RR resends tokens the peer already has — the paper's stated
        weakness — so its bandwidth exceeds the demand-aware Random's."""
        problem = single_file(star_topology(8, capacity=2), file_tokens=12)
        rr = run_heuristic(problem, RoundRobinHeuristic(), seed=0)
        rnd = run_heuristic(problem, RandomHeuristic(), seed=0)
        assert rr.success and rnd.success
        assert rr.bandwidth > rnd.bandwidth

    def test_uses_only_local_information(self):
        """RR's proposal is a function of the sender's own tokens only:
        hiding everyone else's possession does not change it."""
        p = Problem.build(
            3, 3, [(0, 1, 2), (1, 2, 2)], {0: [0, 1, 2], 2: [0, 1]}, {1: [0, 1, 2]}
        )
        h = RoundRobinHeuristic()
        h.reset(p, random.Random(0))
        real = vector_sends(h, p)
        h.reset(p, random.Random(0))
        blinded = [TokenSet() for _ in range(3)]
        blinded[0] = p.have[0]
        fake = vector_sends(h, p, possession=blinded)
        assert real[(0, 1)] == fake[(0, 1)]
