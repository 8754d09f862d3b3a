"""End-to-end integration tests across subsystems.

Each test exercises a realistic pipeline spanning several packages:
generate topology -> attach workload -> simulate -> prune -> bound ->
verify, or reduce -> solve exactly -> extract witnesses.
"""

import random

import pytest

import repro
from repro import (
    evaluate_schedule,
    prune_schedule,
    remaining_bandwidth,
    remaining_timesteps,
    run_heuristic,
    standard_heuristics,
)
from repro.exact import (
    fractional_makespan_bound,
    min_bandwidth_exact,
    solve_focd_bnb,
)
from repro.locd import FloodThenOptimal, run_local
from repro.reductions import cleanup_schedule, polynomial_verifier
from repro.sim import possession_timeline, schedule_to_text
from repro.topology import random_graph, transit_stub_graph, params_for_size
from repro.workloads import file_subdivision, receiver_density, single_file


class TestPublicApi:
    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestBroadcastPipeline:
    """Figure-2-shaped pipeline on a random overlay."""

    @pytest.fixture(scope="class")
    def problem(self):
        return single_file(random_graph(30, random.Random(1)), file_tokens=12)

    def test_full_pipeline_every_heuristic(self, problem):
        bound_bw = remaining_bandwidth(problem)
        bound_ts = remaining_timesteps(problem)
        for heuristic in standard_heuristics():
            result = run_heuristic(problem, heuristic, seed=11)
            assert result.success
            metrics = evaluate_schedule(problem, result.schedule)
            assert metrics.successful
            assert metrics.makespan >= bound_ts
            pruned, stats = prune_schedule(problem, result.schedule)
            assert pruned.is_successful(problem)
            assert pruned.bandwidth >= bound_bw
            assert stats.total_removed >= 0
            assert polynomial_verifier(problem, pruned)

    def test_cleanup_then_encode_roundtrip(self, problem):
        from repro.reductions import decode_schedule, encode_schedule

        result = run_heuristic(problem, standard_heuristics()[0], seed=2)
        cleaned = cleanup_schedule(problem, result.schedule)
        payload, bits = encode_schedule(problem, cleaned)
        assert decode_schedule(problem, payload, bits) == cleaned
        assert polynomial_verifier(problem, cleaned)

    def test_render_pipeline(self, problem):
        result = run_heuristic(problem, standard_heuristics()[2], seed=3)
        pruned, _ = prune_schedule(problem, result.schedule)
        text = schedule_to_text(problem, pruned)
        assert f"{pruned.makespan} timesteps" in text
        grid = possession_timeline(problem, pruned, vertices=[0, 1])
        assert grid.count("\n") == 3


class TestTransitStubPipeline:
    def test_cdn_scenario(self):
        rng = random.Random(5)
        topo = transit_stub_graph(params_for_size(50), rng)
        problem = file_subdivision(topo, 4, rng=rng, total_tokens=16)
        result = run_heuristic(problem, standard_heuristics()[3], seed=1)
        assert result.success
        pruned, _ = prune_schedule(problem, result.schedule)
        assert pruned.bandwidth >= remaining_bandwidth(problem)


class TestExactPipeline:
    def test_small_instance_full_stack(self):
        rng = random.Random(9)
        topo = random_graph(5, rng)
        problem = receiver_density(topo, 0.7, rng, file_tokens=2)
        if problem.total_demand() == 0:
            pytest.skip("no demand drawn")
        optimum, witness = solve_focd_bnb(problem)
        assert polynomial_verifier(problem, witness)
        assert fractional_makespan_bound(problem) <= optimum
        min_bw = min_bandwidth_exact(problem)
        for heuristic in standard_heuristics():
            run = run_heuristic(problem, heuristic, seed=0)
            assert run.makespan >= optimum
            pruned, _ = prune_schedule(problem, run.schedule)
            assert pruned.bandwidth >= min_bw


class TestLocdPipeline:
    def test_local_vs_global_knowledge_same_instance(self):
        problem = single_file(random_graph(10, random.Random(3)), file_tokens=4)
        global_run = run_heuristic(problem, standard_heuristics()[4], seed=1)
        local_run = run_local(problem, FloodThenOptimal(planner="greedy"), seed=1)
        assert global_run.success and local_run.success
        # Locality costs time (knowledge must flood first), never
        # correctness.
        assert local_run.makespan >= global_run.makespan
