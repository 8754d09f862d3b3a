"""Tests for the branch-and-bound FOCD solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import remaining_timesteps
from repro.core.problem import Problem
from repro.exact.branch_and_bound import (
    SearchBudget,
    SearchExhausted,
    _Searcher,
    decide_dfocd,
    solve_focd_bnb,
)
from repro.topology import figure1_gadget
from repro.topology.generators import random_instance


class TestDecideDfocd:
    def test_accepts_feasible_horizon(self, path_problem):
        schedule = decide_dfocd(path_problem, 3)
        assert schedule is not None
        assert schedule.is_successful(path_problem)
        assert schedule.makespan <= 3

    def test_rejects_infeasible_horizon(self, path_problem):
        assert decide_dfocd(path_problem, 2) is None

    def test_generous_horizon_still_succeeds(self, path_problem):
        schedule = decide_dfocd(path_problem, 6)
        assert schedule is not None
        assert schedule.is_successful(path_problem)

    def test_trivial_zero_horizon(self, trivial_problem):
        schedule = decide_dfocd(trivial_problem, 0)
        assert schedule is not None
        assert schedule.makespan == 0

    def test_unsatisfiable_any_horizon(self):
        p = Problem.build(2, 1, [(1, 0, 1)], {0: [0]}, {1: [0]})
        assert decide_dfocd(p, 5) is None


class TestSolveFocd:
    def test_path_optimum(self, path_problem):
        optimum, witness = solve_focd_bnb(path_problem)
        assert optimum == 3
        assert witness.is_successful(path_problem)

    def test_diamond_optimum(self, diamond_problem):
        optimum, witness = solve_focd_bnb(diamond_problem)
        assert optimum == 2
        assert witness.makespan == 2

    def test_trivial(self, trivial_problem):
        optimum, witness = solve_focd_bnb(trivial_problem)
        assert optimum == 0
        assert witness.makespan == 0

    def test_unsatisfiable_returns_none(self):
        p = Problem.build(2, 1, [(1, 0, 1)], {0: [0]}, {1: [0]})
        assert solve_focd_bnb(p) is None

    def test_figure1_gadget(self):
        optimum, witness = solve_focd_bnb(figure1_gadget())
        assert optimum == 2
        assert witness.is_successful(figure1_gadget())

    def test_max_horizon_cutoff(self, path_problem):
        assert solve_focd_bnb(path_problem, max_horizon=2) is None

    def test_capacity_bound_respected(self):
        # 4 tokens through a capacity-2 edge: exactly 2 steps.
        p = Problem.build(2, 4, [(0, 1, 2)], {0: [0, 1, 2, 3]}, {1: [0, 1, 2, 3]})
        optimum, _ = solve_focd_bnb(p)
        assert optimum == 2


class TestBudget:
    def test_budget_exhaustion_raises(self):
        # A wide instance with a tiny budget.
        p = Problem.build(
            4,
            3,
            [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1)],
            {0: [0, 1, 2]},
            {1: [0, 1, 2], 2: [0, 1, 2], 3: [0, 1, 2]},
        )
        with pytest.raises(SearchExhausted):
            solve_focd_bnb(p, budget=SearchBudget(max_nodes=2))

    def test_combination_cap_raises(self, path_problem):
        big = Problem.build(
            2, 8, [(0, 1, 4)], {0: list(range(8))}, {1: list(range(8))}
        )
        with pytest.raises(SearchExhausted, match="combinations"):
            decide_dfocd(big, 2, max_combinations=3)

    def test_budget_counts_nodes(self, path_problem):
        budget = SearchBudget()
        solve_focd_bnb(path_problem, budget=budget)
        assert budget.nodes > 0


class TestWitnessProperties:
    def test_witness_uses_full_loads(self, diamond_problem):
        """The searched space restricts arcs to full useful loads; the
        witness therefore floods — pruning tidies it without losing
        success."""
        from repro.core.pruning import prune_schedule

        _optimum, witness = solve_focd_bnb(diamond_problem)
        pruned, _ = prune_schedule(diamond_problem, witness)
        assert pruned.is_successful(diamond_problem)
        assert pruned.bandwidth <= witness.bandwidth


class TestLowerBound:
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_vertices=st.integers(2, 9),
        max_tokens=st.integers(1, 6),
        max_capacity=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_initial_bound_is_the_radius_bound(
        self, seed, max_vertices, max_tokens, max_capacity
    ):
        """The searcher's admissible bound is the paper's radius bound:
        on the initial state it equals ``remaining_timesteps``."""
        problem = random_instance(
            random.Random(seed),
            max_vertices=max_vertices,
            max_tokens=max_tokens,
            max_capacity=max_capacity,
        )
        searcher = _Searcher(problem, SearchBudget())
        state = tuple(h.mask for h in problem.have)
        assert searcher.lower_bound(state) == remaining_timesteps(problem)
