"""Tests for gossip knowledge-cost accounting."""

import random

from repro.core.problem import Problem
from repro.locd import LocalRarest, LocalRoundRobin, run_local
from repro.sim.reference import initial_knowledge
from repro.topology import random_graph
from repro.workloads import single_file


class TestSizeFacts:
    def test_initial_size(self):
        p = Problem.build(
            2, 2, [(0, 1, 1), (1, 0, 1)], {0: [0, 1]}, {1: [0, 1]}
        )
        k = initial_knowledge(p, 0)
        # 2 have facts + 0 want facts + 2 arcs + 1 complete vertex.
        assert k.size_facts() == 2 + 0 + 2 + 1

    def test_merge_grows_size(self):
        p = Problem.build(
            2, 2, [(0, 1, 1), (1, 0, 1)], {0: [0, 1]}, {1: [0, 1]}
        )
        a = initial_knowledge(p, 0)
        before = a.size_facts()
        a.merge_from(initial_knowledge(p, 1))
        assert a.size_facts() > before

    def test_merge_idempotent_size(self):
        p = Problem.build(2, 1, [(0, 1, 1), (1, 0, 1)], {0: [0]}, {1: [0]})
        a = initial_knowledge(p, 0)
        b = initial_knowledge(p, 1)
        a.merge_from(b)
        size = a.size_facts()
        a.merge_from(b)  # re-gossiping known facts costs nothing
        assert a.size_facts() == size


class TestRunCost:
    def test_cost_positive_for_locd_runs(self):
        problem = single_file(random_graph(10, random.Random(2)), file_tokens=4)
        result = run_local(problem, LocalRarest(), seed=1)
        assert result.success
        assert result.knowledge_cost > 0

    def test_cost_zero_for_global_engine(self):
        from repro.heuristics import LocalRarestHeuristic
        from repro.sim import run_heuristic

        problem = single_file(random_graph(10, random.Random(2)), file_tokens=4)
        result = run_heuristic(problem, LocalRarestHeuristic(), seed=1)
        assert result.knowledge_cost == 0

    def test_cost_bounded_by_total_facts(self):
        """Knowledge is monotone, so the total gossip cost cannot exceed
        n times the global fact count (everyone learning everything)."""
        problem = single_file(random_graph(8, random.Random(3)), file_tokens=3)
        result = run_local(problem, LocalRoundRobin(), seed=1)
        assert result.success
        n, m = problem.num_vertices, problem.num_tokens
        global_facts = (
            n * m  # possession pairs (upper bound: everyone holds all)
            + sum(len(problem.want[v]) for v in range(n))
            + len(problem.arcs)
            + n  # complete-vertex markers
        )
        assert result.knowledge_cost <= n * global_facts

    def test_longer_paths_cost_more_gossip(self):
        """Knowledge has farther to travel on a longer path."""
        def cost(length):
            arcs = []
            for v in range(length):
                arcs.append((v, v + 1, 1))
                arcs.append((v + 1, v, 1))
            p = Problem.build(
                length + 1, 1, arcs, {0: [0]}, {length: [0]}
            )
            return run_local(p, LocalRarest(), seed=0).knowledge_cost

        assert cost(6) > cost(2)
