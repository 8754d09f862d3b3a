"""Tests for the locality-enforcing LOCD engine."""

import random
from typing import Dict, Tuple

import pytest

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.locd.knowledge import Knowledge
from repro.locd.runner import LocalEngine, run_local
from repro.locd.algorithms import LocalRoundRobin
from repro.sim.engine import HeuristicViolation


class _Misbehaving:
    """Configurable rule-breaking algorithm for enforcement tests."""

    name = "misbehaving"

    def __init__(self, mode: str):
        self.mode = mode

    def reset(self, num_vertices, rng):
        pass

    def decide(self, step, knowledge: Knowledge, rng):
        v = knowledge.owner
        if self.mode == "foreign_send" and v == 0:
            return {(1, 2): TokenSet.of(0)}
        if self.mode == "missing_arc" and v == 0:
            return {(0, 2): TokenSet.of(0)}
        if self.mode == "over_capacity" and v == 0:
            return {(0, 1): TokenSet.of(0, 1)}
        if self.mode == "unpossessed" and v == 1:
            return {(1, 2): TokenSet.of(0)}
        return {}


@pytest.fixture
def path3():
    return Problem.build(
        3,
        2,
        [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)],
        {0: [0, 1]},
        {2: [0, 1]},
    )


class TestEnforcement:
    def test_foreign_send_rejected(self, path3):
        with pytest.raises(HeuristicViolation, match="out of vertex"):
            run_local(path3, _Misbehaving("foreign_send"))

    def test_missing_arc_rejected(self, path3):
        with pytest.raises(HeuristicViolation, match="no arc"):
            run_local(path3, _Misbehaving("missing_arc"))

    def test_over_capacity_rejected(self, path3):
        with pytest.raises(HeuristicViolation, match="capacity"):
            run_local(path3, _Misbehaving("over_capacity"))

    def test_unpossessed_send_rejected(self, path3):
        with pytest.raises(HeuristicViolation, match="does not possess"):
            run_local(path3, _Misbehaving("unpossessed"))


class TestKnowledgeFlow:
    def test_knowledge_only_travels_one_hop_per_step(self, path3):
        """Vertex 2 cannot know vertex 0's tokens before two gossip
        rounds: a decision at step 1 still sees nothing from vertex 0."""
        observed = {}

        class Observer:
            name = "observer"

            def reset(self, n, rng):
                pass

            def decide(self, step, knowledge, rng):
                if knowledge.owner == 2 and step <= 2:
                    observed[step] = knowledge.known_have(0)
                return {}

        engine = LocalEngine(path3, Observer(), max_steps=3)
        result = engine.run()
        assert not result.success  # observer never sends
        assert observed[0] == TokenSet()
        assert observed[1] == TokenSet()
        assert observed[2] == TokenSet.of(0, 1)  # arrived after 2 rounds

    def test_want_information_travels_backward(self):
        """Knowledge crosses arcs against their direction (Section 4.1):
        on a one-way path the receiver's want still reaches the sender."""
        p = Problem.build(2, 2, [(0, 1, 1)], {0: [0, 1]}, {1: [1]})
        seen = {}

        class WantObserver:
            name = "want_observer"

            def reset(self, n, rng):
                pass

            def decide(self, step, knowledge, rng):
                if knowledge.owner == 0 and step <= 1:
                    seen[step] = knowledge.known_want(1)
                return {}

        LocalEngine(p, WantObserver(), max_steps=2).run()
        assert seen[0] == TokenSet()
        assert seen[1] == TokenSet.of(1)


class TestEndToEnd:
    def test_local_round_robin_completes(self, path3):
        result = run_local(path3, LocalRoundRobin(), seed=0)
        assert result.success
        assert result.schedule.is_valid(path3)

    def test_trivial_success_immediately(self):
        p = Problem.build(2, 1, [(0, 1, 1)], {0: [0], 1: [0]}, {1: [0]})
        result = run_local(p, LocalRoundRobin(), seed=0)
        assert result.success
        assert result.makespan == 0

    def test_max_steps_failure(self, path3):
        class Silent:
            name = "silent"

            def reset(self, n, rng):
                pass

            def decide(self, step, knowledge, rng):
                return {}

        result = LocalEngine(path3, Silent(), max_steps=4).run()
        assert not result.success
        assert result.makespan == 4
