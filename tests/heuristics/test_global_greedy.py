"""Behavioral tests for the Global (coordinated greedy) heuristic."""

import random

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.heuristics import GlobalGreedyHeuristic, RandomHeuristic
from repro.sim import StepContext, run_heuristic
from repro.topology import star_topology
from repro.workloads import single_file


def _context(problem, possession=None, seed=0):
    possession = tuple(possession if possession is not None else problem.have)
    counts = [0] * problem.num_tokens
    for tokens in possession:
        for t in tokens:
            counts[t] += 1
    return StepContext(problem, 0, possession, tuple(counts), random.Random(seed))


class TestCoordination:
    def test_never_duplicates_delivery_within_step(self):
        """Coordination guarantees a vertex is scheduled to receive each
        token at most once per step — unlike Random."""
        p = Problem.build(
            3, 1, [(0, 2, 1), (1, 2, 1)], {0: [0], 1: [0]}, {2: [0]}
        )
        h = GlobalGreedyHeuristic()
        h.reset(p, random.Random(0))
        proposal = h.propose(_context(p))
        assert sum(len(t) for t in proposal.values()) == 1

    def test_uses_full_capacity_when_useful(self):
        p = Problem.build(2, 4, [(0, 1, 3)], {0: list(range(4))}, {1: list(range(4))})
        h = GlobalGreedyHeuristic()
        h.reset(p, random.Random(0))
        proposal = h.propose(_context(p))
        assert len(proposal[(0, 1)]) == 3

    def test_diversifies_across_receivers(self):
        """Tentative holder counts steer different tokens to different
        leaves of a star."""
        problem = single_file(star_topology(5, capacity=1), file_tokens=4)
        h = GlobalGreedyHeuristic()
        h.reset(problem, random.Random(0))
        proposal = h.propose(_context(problem, seed=1))
        sent = [list(t)[0] for t in proposal.values()]
        assert len(set(sent)) == 4  # all four leaves get distinct tokens

    def test_floods_relays(self):
        """Global is a flooding heuristic: it pushes tokens to vertices
        that merely can relay them."""
        p = Problem.build(3, 1, [(0, 1, 1), (1, 2, 1)], {0: [0]}, {2: [0]})
        h = GlobalGreedyHeuristic()
        h.reset(p, random.Random(0))
        proposal = h.propose(_context(p))
        assert proposal[(0, 1)] == TokenSet.of(0)


class TestEndToEnd:
    def test_no_same_step_duplicates_entire_run(self):
        problem = single_file(star_topology(6, capacity=2), file_tokens=6)
        result = run_heuristic(problem, GlobalGreedyHeuristic(), seed=4)
        assert result.success
        history = result.schedule.validate(problem)
        for i, step in enumerate(result.schedule.steps):
            arrivals = {}
            for (src, dst), tokens in step.sends.items():
                for t in tokens:
                    key = (dst, t)
                    assert key not in arrivals, f"duplicate {key} at step {i}"
                    arrivals[key] = src

    def test_cheaper_than_uncoordinated_random(self):
        problem = single_file(star_topology(8, capacity=2), file_tokens=10)
        coordinated = run_heuristic(problem, GlobalGreedyHeuristic(), seed=0)
        uncoordinated = run_heuristic(problem, RandomHeuristic(), seed=0)
        assert coordinated.success and uncoordinated.success
        assert coordinated.bandwidth <= uncoordinated.bandwidth
