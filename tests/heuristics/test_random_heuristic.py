"""Behavioral tests for the Random heuristic."""

import random

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.heuristics import RandomHeuristic

from tests.conftest import vector_sends


class TestUsefulnessFilter:
    def test_only_sends_tokens_peer_lacks(self):
        p = Problem.build(2, 3, [(0, 1, 3)], {0: [0, 1, 2], 1: [0, 2]}, {1: [1]})
        h = RandomHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert proposal[(0, 1)] == TokenSet.of(1)

    def test_silent_when_peer_has_everything(self):
        p = Problem.build(2, 2, [(0, 1, 2)], {0: [0, 1], 1: [0, 1]}, {})
        h = RandomHeuristic()
        h.reset(p, random.Random(0))
        assert vector_sends(h, p) == {}

    def test_respects_capacity(self):
        p = Problem.build(2, 6, [(0, 1, 2)], {0: list(range(6))}, {1: list(range(6))})
        h = RandomHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert len(proposal[(0, 1)]) == 2

    def test_takes_all_when_under_capacity(self):
        p = Problem.build(2, 2, [(0, 1, 5)], {0: [0, 1]}, {1: [0, 1]})
        h = RandomHeuristic()
        h.reset(p, random.Random(0))
        assert sorted(vector_sends(h, p)[(0, 1)]) == [0, 1]


class TestRandomness:
    def test_selection_varies_with_rng(self):
        p = Problem.build(2, 10, [(0, 1, 2)], {0: list(range(10))}, {1: list(range(10))})
        h = RandomHeuristic()
        picks = set()
        for s in range(20):
            h.reset(p, random.Random(s))
            picks.add(tuple(sorted(vector_sends(h, p)[(0, 1)])))
        assert len(picks) > 1  # genuinely random subsets

    def test_uncoordinated_senders_can_duplicate(self):
        """Two in-neighbors may push the same token at one vertex in one
        step — the duplication weakness the paper attributes to Random."""
        p = Problem.build(
            3, 1, [(0, 2, 1), (1, 2, 1)], {0: [0], 1: [0]}, {2: [0]}
        )
        h = RandomHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert proposal[(0, 2)] == TokenSet.of(0)
        assert proposal[(1, 2)] == TokenSet.of(0)
