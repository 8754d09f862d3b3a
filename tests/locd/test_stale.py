"""Tests for the gossip-stale Bandwidth/Global LOCD variants."""

import random

import pytest

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet
from repro.locd import StaleBandwidth, StaleGreedy, run_local, view_problem
from repro.sim.reference import initial_knowledge
from repro.topology import random_graph
from repro.workloads import receiver_density, single_file

from tests.conftest import make_random_problem


class TestViewProblem:
    def test_initial_view_is_one_hop(self):
        p = Problem.build(
            3,
            2,
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)],
            {0: [0, 1]},
            {2: [0, 1]},
        )
        view = view_problem(initial_knowledge(p, 1))
        assert view.num_vertices == 3  # heard of 0 and 2 as neighbors
        assert set(view.arcs) == set(p.arcs)  # all incident arcs known
        assert view.have[0] == TokenSet()  # but not their contents
        assert view.want[2] == TokenSet()

    def test_view_grows_with_gossip(self):
        p = Problem.build(
            3,
            1,
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)],
            {0: [0]},
            {2: [0]},
        )
        ks = [initial_knowledge(p, v) for v in range(3)]
        snaps = [k.snapshot() for k in ks]
        for v in range(3):
            for u in p.neighbors(v):
                ks[v].merge_from(snaps[u])
        view = view_problem(ks[1])
        assert view.have[0] == TokenSet.of(0)
        assert view.want[2] == TokenSet.of(0)


@pytest.mark.parametrize("algo_cls", [StaleBandwidth, StaleGreedy])
class TestStaleAlgorithms:
    def test_completes_random_instances(self, algo_cls):
        rng = random.Random(41)
        for _ in range(5):
            problem = make_random_problem(rng)
            result = run_local(problem, algo_cls(), seed=2)
            assert result.success, problem

    def test_completes_broadcast(self, algo_cls):
        problem = single_file(random_graph(12, random.Random(3)), file_tokens=5)
        result = run_local(problem, algo_cls(), seed=1)
        assert result.success
        assert result.schedule.is_valid(problem)

    def test_deterministic(self, algo_cls):
        problem = single_file(random_graph(10, random.Random(5)), file_tokens=4)
        a = run_local(problem, algo_cls(), seed=7)
        b = run_local(problem, algo_cls(), seed=7)
        assert a.schedule == b.schedule


class TestStalenessCosts:
    def test_stale_bandwidth_still_frugal_on_sparse_demand(self):
        """Even with gossip-delayed knowledge, the cautious pull logic
        beats stale flooding on bandwidth when few vertices want."""
        from repro.locd import LocalRarest

        rng = random.Random(12)
        topo = random_graph(25, rng)
        problem = receiver_density(topo, 0.25, rng, file_tokens=12)
        stale_bw = run_local(problem, StaleBandwidth(), seed=1)
        stale_flood = run_local(problem, LocalRarest(), seed=1)
        assert stale_bw.success and stale_flood.success
        assert stale_bw.bandwidth < stale_flood.bandwidth

    def test_stale_never_faster_than_idealized(self):
        """The oracle-view versions dominate their gossip-fed twins on
        makespan (staleness only delays)."""
        from repro.heuristics import BandwidthHeuristic, GlobalGreedyHeuristic
        from repro.sim import run_heuristic

        problem = single_file(random_graph(15, random.Random(8)), file_tokens=6)
        pairs = [
            (StaleBandwidth(), BandwidthHeuristic()),
            (StaleGreedy(), GlobalGreedyHeuristic()),
        ]
        for stale, ideal in pairs:
            stale_run = run_local(problem, stale, seed=3)
            ideal_run = run_heuristic(problem, ideal, seed=3)
            assert stale_run.success and ideal_run.success
            assert stale_run.makespan >= ideal_run.makespan

    def test_stale_bandwidth_waits_for_want_knowledge(self):
        """On a path where the want is far away, the stale bandwidth
        variant cannot move the token until gossip brings the need."""
        p = Problem.build(
            4,
            1,
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1)],
            {0: [0]},
            {3: [0]},
        )
        result = run_local(p, StaleBandwidth(), seed=0)
        assert result.success
        # Want is 3 gossip hops from the source: nothing moves at step 0.
        assert result.schedule.steps[0].num_moves() == 0
