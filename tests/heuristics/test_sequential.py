"""Behavioral tests for the Sequential (in-order) heuristic."""

import random

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.heuristics import SequentialHeuristic
from repro.sim import Engine, SimState, run_heuristic
from repro.topology import path_topology, random_graph, star_topology
from repro.workloads import single_file

from tests.conftest import vector_sends


class TestOrdering:
    def test_lowest_index_first(self):
        p = Problem.build(
            2, 5, [(0, 1, 2)], {0: [0, 1, 2, 3, 4]}, {1: [0, 1, 2, 3, 4]}
        )
        h = SequentialHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert sorted(proposal[(0, 1)]) == [0, 1]

    def test_continues_from_missing_prefix(self):
        p = Problem.build(2, 5, [(0, 1, 2)], {0: [0, 1, 2, 3, 4], 1: [0, 1]}, {1: [2, 3, 4]})
        h = SequentialHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert sorted(proposal[(0, 1)]) == [2, 3]

    def test_no_duplicate_pulls(self):
        p = Problem.build(
            3, 2, [(0, 2, 2), (1, 2, 2)], {0: [0, 1], 1: [0, 1]}, {2: [0, 1]}
        )
        h = SequentialHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        total = sum(len(t) for t in proposal.values())
        assert total == 2  # one copy of each token, subdivided

    def test_floods_relays(self):
        p = Problem.build(3, 1, [(0, 1, 1), (1, 2, 1)], {0: [0]}, {2: [0]})
        h = SequentialHeuristic()
        h.reset(p, random.Random(0))
        proposal = vector_sends(h, p)
        assert proposal[(0, 1)] == TokenSet.of(0)


class TestEndToEnd:
    def test_succeeds_on_standard_workloads(self):
        for topo in (path_topology(5, capacity=2), star_topology(6, capacity=2)):
            problem = single_file(topo, file_tokens=6)
            result = run_heuristic(problem, SequentialHeuristic(), seed=0)
            assert result.success

    def test_in_order_arrivals_on_a_path(self):
        """Over a single pipe, tokens arrive exactly in index order."""
        from repro.analysis.streaming import arrival_times

        problem = single_file(path_topology(3, capacity=1), file_tokens=5)
        result = run_heuristic(problem, SequentialHeuristic(), seed=0)
        assert result.success
        arrivals = arrival_times(problem, result.schedule)
        times = [arrivals[2][t] for t in range(5)]
        assert times == sorted(times)

    def test_startup_beats_rarest_on_shared_swarm(self):
        from repro.analysis.streaming import streaming_report
        from repro.heuristics import LocalRarestHeuristic

        problem = single_file(random_graph(20, random.Random(9)), file_tokens=16)
        seq = run_heuristic(problem, SequentialHeuristic(), seed=4)
        rarest = run_heuristic(problem, LocalRarestHeuristic(), seed=4)
        assert seq.success and rarest.success
        assert (
            streaming_report(problem, seq.schedule).mean_startup_delay
            <= streaming_report(problem, rarest.schedule).mean_startup_delay
        )

    def test_never_reads_the_need_vector(self):
        """Sequential ranks nothing, so it never asks the kernel for the
        per-token demand that Local's rarest-first sort reads."""

        class NoDemand(SimState):
            def token_demand(self):
                raise AssertionError("token_demand read")

        problem = single_file(random_graph(20, random.Random(9)), file_tokens=16)
        result = Engine(
            problem, SequentialHeuristic(), rng=random.Random(4), kernel=NoDemand
        ).run()
        assert result.success
