"""Tests for the random-instance generator families."""

import random

import pytest

from repro.topology.generators import (
    adversarial_spread_instance,
    bottleneck_instance,
    dag_instance,
    random_instance,
)


class TestRandomInstance:
    def test_always_satisfiable(self):
        rng = random.Random(1)
        for _ in range(25):
            assert random_instance(rng).is_satisfiable()

    def test_symmetric_arcs(self):
        p = random_instance(random.Random(2))
        for arc in p.arcs:
            assert p.has_arc(arc.dst, arc.src)

    def test_respects_limits(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_instance(rng, max_vertices=4, max_tokens=2, max_capacity=1)
            assert p.num_vertices <= 4
            assert p.num_tokens <= 2
            assert all(a.capacity == 1 for a in p.arcs)


class TestBottleneck:
    def test_structure(self):
        p = bottleneck_instance(random.Random(0), cluster_size=3, num_tokens=2)
        assert p.num_vertices == 6
        # Exactly one inter-cluster arc pair.
        cross = [
            a for a in p.arcs if (a.src < 3) != (a.dst < 3)
        ]
        assert len(cross) == 2

    def test_cut_capacity_applies(self):
        p = bottleneck_instance(random.Random(1), cut_capacity=1, cluster_capacity=4)
        cross = [a for a in p.arcs if (a.src < 4) != (a.dst < 4)]
        assert all(a.capacity == 1 for a in cross)

    def test_satisfiable_and_cut_limits_makespan(self):
        from repro.heuristics import GlobalGreedyHeuristic
        from repro.sim import run_heuristic

        p = bottleneck_instance(
            random.Random(2), cluster_size=3, num_tokens=4, cut_capacity=1
        )
        assert p.is_satisfiable()
        # All 4 distinct tokens must cross the capacity-1 cut, one per
        # step, so every successful schedule takes >= 4 steps.  (The
        # per-vertex radius bound cannot see this cut constraint — it
        # only knows each receiver's own in-capacity.)
        result = run_heuristic(p, GlobalGreedyHeuristic(), seed=0)
        assert result.success
        assert result.makespan >= 4

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            bottleneck_instance(random.Random(0), cluster_size=0)


class TestDag:
    def test_acyclic(self):
        p = dag_instance(random.Random(4))
        assert all(a.src < a.dst for a in p.arcs)

    def test_satisfiable_downstream(self):
        rng = random.Random(5)
        for _ in range(10):
            assert dag_instance(rng).is_satisfiable()

    def test_asymmetric_reachability(self):
        p = dag_instance(random.Random(6), num_vertices=5)
        assert p.distance(0, 4) > 0
        assert p.distance(4, 0) == -1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            dag_instance(random.Random(0), num_vertices=1)


class TestAdversarialSpread:
    def test_only_farthest_want(self):
        p = adversarial_spread_instance(random.Random(7), num_vertices=8)
        dist = p.distances_from(0)
        farthest = max(dist)
        for v in range(p.num_vertices):
            if p.want[v]:
                assert dist[v] == farthest

    def test_distance_bound_binding(self):
        from repro.core.bounds import remaining_timesteps

        p = adversarial_spread_instance(random.Random(8), num_vertices=10)
        dist = p.distances_from(0)
        assert remaining_timesteps(p) >= max(dist)

    def test_satisfiable(self):
        rng = random.Random(9)
        for _ in range(10):
            assert adversarial_spread_instance(rng).is_satisfiable()

    def test_heuristics_solve_all_families(self):
        from repro.heuristics import standard_heuristics
        from repro.sim import run_heuristic

        rng = random.Random(10)
        instances = [
            random_instance(rng),
            bottleneck_instance(rng),
            dag_instance(rng),
            adversarial_spread_instance(rng),
        ]
        for problem in instances:
            for heuristic in standard_heuristics():
                assert run_heuristic(problem, heuristic, seed=1).success, (
                    problem.name,
                    heuristic.name,
                )
