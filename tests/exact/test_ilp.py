"""Tests for the Section 3.4 time-indexed integer program."""

import random

import pytest

from repro.core.problem import Problem
from repro.exact.ilp import min_makespan_ilp, solve_eocd_ilp, solve_hybrid_ilp
from repro.topology import figure1_gadget
from repro.topology.generators import random_instance


class TestEocdAtHorizon:
    def test_path_exact_values(self, path_problem):
        sol = solve_eocd_ilp(path_problem, 3)
        assert sol.feasible
        assert sol.bandwidth == 4
        assert sol.schedule.is_successful(path_problem)
        assert sol.schedule.makespan <= 3

    def test_infeasible_horizon(self, path_problem):
        sol = solve_eocd_ilp(path_problem, 2)
        assert not sol.feasible
        assert sol.schedule.makespan == 0

    def test_horizon_zero_infeasible_with_demand(self, path_problem):
        assert not solve_eocd_ilp(path_problem, 0).feasible

    def test_trivial_problem_feasible_at_zero(self, trivial_problem):
        sol = solve_eocd_ilp(trivial_problem, 0)
        assert sol.feasible
        assert sol.bandwidth == 0

    def test_negative_horizon_rejected(self, path_problem):
        with pytest.raises(ValueError):
            solve_eocd_ilp(path_problem, -1)

    def test_extra_horizon_never_costs_bandwidth(self, diamond_problem):
        tight = solve_eocd_ilp(diamond_problem, 2)
        loose = solve_eocd_ilp(diamond_problem, 5)
        assert tight.feasible and loose.feasible
        assert loose.bandwidth <= tight.bandwidth

    def test_inactive_tokens_never_move(self):
        # Token 1 is wanted by nobody: the IP must not route it.
        p = Problem.build(3, 2, [(0, 1, 5), (1, 2, 5)], {0: [0, 1]}, {2: [0]})
        sol = solve_eocd_ilp(p, 3)
        assert sol.feasible
        for step in sol.schedule.steps:
            for tokens in step.sends.values():
                assert 1 not in tokens

    def test_storage_is_free(self):
        # Waiting costs nothing: min bandwidth at a huge horizon is still
        # the Steiner cost, with idle steps.
        p = Problem.build(2, 1, [(0, 1, 1)], {0: [0]}, {1: [0]})
        sol = solve_eocd_ilp(p, 4)
        assert sol.feasible
        assert sol.bandwidth == 1


class TestMinMakespan:
    def test_path(self, path_problem):
        assert min_makespan_ilp(path_problem) == 3

    def test_diamond(self, diamond_problem):
        assert min_makespan_ilp(diamond_problem) == 2

    def test_trivial_is_zero(self, trivial_problem):
        assert min_makespan_ilp(trivial_problem) == 0

    def test_unsatisfiable_is_none(self):
        p = Problem.build(2, 1, [(1, 0, 1)], {0: [0]}, {1: [0]})
        assert min_makespan_ilp(p) is None

    def test_max_horizon_exhaustion(self, path_problem):
        assert min_makespan_ilp(path_problem, max_horizon=2) is None

    def test_figure1_gadget(self):
        assert min_makespan_ilp(figure1_gadget()) == 2

    def test_hit_time_limit_is_never_infeasible(self):
        # A solve the limit cuts short proves nothing: the scan must not
        # step past the optimum (2) or report "unsatisfiable" (None).
        p = random_instance(random.Random(12), max_vertices=12, max_tokens=6)
        assert min_makespan_ilp(p) == 2
        with pytest.raises(RuntimeError, match="horizon 2 .*Time limit"):
            min_makespan_ilp(p, time_limit=0.0)


class TestHybrid:
    def test_hybrid_is_min_bandwidth_among_fastest(self, path_problem):
        sol = solve_hybrid_ilp(path_problem)
        assert sol is not None
        assert sol.horizon == 3
        assert sol.bandwidth == 4

    def test_hybrid_on_figure1(self):
        """The gadget's whole point: the fastest schedules cost 6, two
        more than the global bandwidth optimum of 4."""
        sol = solve_hybrid_ilp(figure1_gadget())
        assert sol is not None
        assert sol.horizon == 2
        assert sol.bandwidth == 6

    def test_hybrid_unsatisfiable(self):
        p = Problem.build(2, 1, [(1, 0, 1)], {0: [0]}, {1: [0]})
        assert solve_hybrid_ilp(p) is None


class TestScheduleExtraction:
    def test_extracted_schedule_respects_model(self, diamond_problem):
        sol = solve_eocd_ilp(diamond_problem, 3)
        history = sol.schedule.validate(diamond_problem)  # raises if not
        assert len(history) == sol.schedule.makespan + 1

    def test_multi_source_token(self):
        # Token held at two vertices: either may serve the wanter.
        p = Problem.build(
            3, 1, [(0, 2, 1), (1, 2, 1)], {0: [0], 1: [0]}, {2: [0]}
        )
        sol = solve_eocd_ilp(p, 1)
        assert sol.feasible
        assert sol.bandwidth == 1

    def test_capacity_respected_in_witness(self):
        p = Problem.build(
            2, 3, [(0, 1, 2)], {0: [0, 1, 2]}, {1: [0, 1, 2]}
        )
        sol = solve_eocd_ilp(p, 2)
        assert sol.feasible
        for step in sol.schedule.steps:
            for (u, v), tokens in step.sends.items():
                assert len(tokens) <= p.capacity(u, v)
