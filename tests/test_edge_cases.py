"""Edge cases cutting across modules that the per-module suites skip."""

import random

import pytest
from hypothesis import given, settings

from repro.core.problem import Problem
from repro.exact import solve_eocd_ilp
from repro.extensions.dynamic import constant_conditions, run_dynamic
from repro.heuristics import make_heuristic, standard_heuristics
from repro.sim import Engine, run_heuristic

from tests.conftest import problems


class TestZeroTokenProblems:
    def test_zero_tokens_everywhere(self):
        p = Problem.build(3, 0, [(0, 1, 1), (1, 2, 1)], {}, {})
        assert p.is_trivially_satisfied()
        for heuristic in standard_heuristics():
            result = run_heuristic(p, heuristic, seed=0)
            assert result.success
            assert result.makespan == 0

    def test_zero_tokens_exact(self):
        p = Problem.build(2, 0, [(0, 1, 1)], {}, {})
        sol = solve_eocd_ilp(p, 0)
        assert sol.feasible and sol.bandwidth == 0


class TestSingleVertex:
    def test_single_vertex_self_satisfied(self):
        p = Problem.build(1, 2, [], {0: [0, 1]}, {0: [0]})
        assert p.is_trivially_satisfied()
        result = run_heuristic(p, make_heuristic("local"), seed=0)
        assert result.success and result.makespan == 0

    def test_single_vertex_unsatisfiable(self):
        p = Problem.build(1, 1, [], {}, {0: [0]})
        assert not p.is_satisfiable()


class TestLargeCapacities:
    def test_capacity_exceeding_tokens(self):
        p = Problem.build(2, 3, [(0, 1, 100)], {0: [0, 1, 2]}, {1: [0, 1, 2]})
        for heuristic in standard_heuristics():
            result = run_heuristic(p, heuristic, seed=0)
            assert result.success
            assert result.makespan == 1


class TestWantedButAlreadyHad:
    def test_partially_satisfied_wants(self):
        p = Problem.build(
            2, 3, [(0, 1, 1)], {0: [0, 1, 2], 1: [0]}, {1: [0, 1, 2]}
        )
        result = run_heuristic(p, make_heuristic("bandwidth"), seed=0)
        assert result.success
        assert result.makespan == 2  # only tokens 1, 2 move


class TestIlpOptions:
    def test_time_limit_accepted(self, path_problem):
        sol = solve_eocd_ilp(path_problem, 3, time_limit=30.0)
        assert sol.feasible and sol.bandwidth == 4


class TestEngineSuccessPredicate:
    def test_custom_predicate_stops_early(self, path_problem):
        """Stop once vertex 2 holds any single token."""

        def halfway(possession):
            return len(possession[2]) >= 1

        engine = Engine(
            path_problem,
            make_heuristic("local"),
            rng=random.Random(0),
            success_predicate=halfway,
        )
        result = engine.run()
        assert result.success
        assert result.makespan == 2  # one token over two hops

    def test_never_satisfied_predicate_hits_cap(self, trivial_problem):
        engine = Engine(
            trivial_problem,
            make_heuristic("local"),
            rng=random.Random(0),
            max_steps=3,
            success_predicate=lambda possession: False,
        )
        from repro.sim import StallError

        with pytest.raises(StallError):
            engine.run()  # no useful arc while "demand" persists


class TestAntiparallelCapacities:
    def test_direction_specific_capacity(self):
        """Asymmetric arc pair: 3 tokens forward in one step, return
        path throttled to 1."""
        p = Problem.build(
            2, 3, [(0, 1, 3), (1, 0, 1)], {0: [0, 1, 2]}, {1: [0, 1, 2]}
        )
        result = run_heuristic(p, make_heuristic("global"), seed=0)
        assert result.success and result.makespan == 1
        q = Problem.build(
            2, 3, [(0, 1, 3), (1, 0, 1)], {1: [0, 1, 2]}, {0: [0, 1, 2]}
        )
        result = run_heuristic(q, make_heuristic("global"), seed=0)
        assert result.success and result.makespan == 3


@settings(max_examples=15, deadline=None)
@given(problems())
def test_dynamic_constant_equals_static(problem):
    """Differential: the dynamic engine under constant conditions must
    reproduce the static engine's schedule exactly (same heuristic, same
    seed)."""
    static = run_heuristic(problem, make_heuristic("local"), seed=9)
    dynamic = run_dynamic(
        constant_conditions(problem), make_heuristic("local"), seed=9
    )
    assert dynamic.success == static.success
    assert dynamic.schedule == static.schedule
