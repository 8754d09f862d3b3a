"""Tests for the LP-relaxation bounds: validity (never above the
integral optimum), dominance over the counting bounds, and the Figure 1
certification."""

import pytest
from hypothesis import given, settings

from repro.core.bounds import remaining_bandwidth, remaining_timesteps
from repro.core.problem import Problem
from repro.exact import (
    fractional_bandwidth_bound,
    fractional_makespan_bound,
    min_makespan_ilp,
    solve_eocd_ilp,
)
from repro.topology import figure1_gadget

from tests.conftest import problems


class TestFractionalBandwidth:
    def test_path_lower_bound(self, path_problem):
        bound = fractional_bandwidth_bound(path_problem, 3)
        assert bound is not None
        assert bound <= solve_eocd_ilp(path_problem, 3).bandwidth
        assert bound >= remaining_bandwidth(path_problem)

    def test_infeasible_horizon_none(self, path_problem):
        assert fractional_bandwidth_bound(path_problem, 1) is None

    def test_trivial_zero(self, trivial_problem):
        assert fractional_bandwidth_bound(trivial_problem, 0) == 0

    def test_negative_horizon_rejected(self, path_problem):
        with pytest.raises(ValueError):
            fractional_bandwidth_bound(path_problem, -1)

    def test_figure1_relay_cost_certified(self):
        """The relaxation proves *fractionally* that 2-step schedules on
        the gadget cost 6 — the full caption number, in polynomial time."""
        g = figure1_gadget()
        assert fractional_bandwidth_bound(g, 2) == 6
        assert fractional_bandwidth_bound(g, 3) == 4
        assert fractional_bandwidth_bound(g, 1) is None

    def test_monotone_in_horizon(self, diamond_problem):
        loose = fractional_bandwidth_bound(diamond_problem, 6)
        tight = fractional_bandwidth_bound(diamond_problem, 2)
        assert loose is not None and tight is not None
        assert loose <= tight


class TestFractionalMakespan:
    def test_path(self, path_problem):
        assert fractional_makespan_bound(path_problem) == 3

    def test_diamond(self, diamond_problem):
        assert fractional_makespan_bound(diamond_problem) == 2

    def test_trivial(self, trivial_problem):
        assert fractional_makespan_bound(trivial_problem) == 0

    def test_unsatisfiable(self):
        p = Problem.build(2, 1, [(1, 0, 1)], {0: [0]}, {1: [0]})
        assert fractional_makespan_bound(p) is None

    def test_figure1(self):
        assert fractional_makespan_bound(figure1_gadget()) == 2


@settings(max_examples=15, deadline=None)
@given(problems(max_vertices=5, max_tokens=2))
def test_fractional_makespan_sandwiched(problem):
    """counting bound <= LP bound <= integral optimum."""
    lp = fractional_makespan_bound(problem, max_horizon=12)
    integral = min_makespan_ilp(problem, max_horizon=12)
    assert lp is not None and integral is not None
    assert remaining_timesteps(problem) <= lp <= integral


@settings(max_examples=10, deadline=None)
@given(problems(max_vertices=4, max_tokens=2))
def test_fractional_bandwidth_sandwiched(problem):
    horizon = min_makespan_ilp(problem, max_horizon=12)
    assert horizon is not None
    if horizon == 0:
        return
    lp = fractional_bandwidth_bound(problem, horizon)
    integral = solve_eocd_ilp(problem, horizon)
    assert lp is not None and integral.feasible
    assert remaining_bandwidth(problem) <= lp <= integral.bandwidth
