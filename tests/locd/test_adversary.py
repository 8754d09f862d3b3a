"""Tests for the Theorem 4 adversarial family and measurement harness."""

import pytest

from repro.exact import solve_focd_bnb
from repro.locd import (
    FloodThenOptimal,
    LocalRoundRobin,
    adversarial_ratio,
    deterministic_lower_bound,
    guessing_instance,
    optimal_path_makespan,
)


class TestGuessingInstance:
    def test_structure(self):
        p = guessing_instance(3, 5, [2])
        assert p.num_vertices == 4
        assert p.num_tokens == 5
        assert sorted(p.have[0]) == [0, 1, 2, 3, 4]
        assert sorted(p.want[3]) == [2]
        # Bidirectional path arcs.
        assert p.has_arc(0, 1) and p.has_arc(1, 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            guessing_instance(0, 5, [0])
        with pytest.raises(ValueError):
            guessing_instance(3, 0, [])
        with pytest.raises(ValueError):
            guessing_instance(3, 5, [9])

    def test_capacity_parameter(self):
        p = guessing_instance(2, 4, [0], capacity=3)
        assert p.capacity(0, 1) == 3


class TestOptimalFormula:
    @pytest.mark.parametrize(
        "separation,wanted,capacity,expected",
        [
            (3, 1, 1, 3),   # one token: distance
            (3, 4, 1, 6),   # pipeline: 3 + 4 - 1
            (3, 4, 2, 4),   # capacity 2: 3 + 2 - 1
            (1, 1, 1, 1),
            (2, 0, 1, 0),   # nothing wanted
        ],
    )
    def test_closed_form(self, separation, wanted, capacity, expected):
        assert optimal_path_makespan(separation, wanted, capacity) == expected

    @pytest.mark.parametrize("separation,num_wanted", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_formula_matches_exact_solver(self, separation, num_wanted):
        wanted = list(range(num_wanted))
        p = guessing_instance(separation, max(3, num_wanted), wanted)
        solved = solve_focd_bnb(p, max_combinations=500_000)
        assert solved is not None
        assert solved[0] == optimal_path_makespan(separation, num_wanted)


class TestDeterministicLowerBound:
    def test_two_when_decoys_exceed_blind_budget(self):
        assert deterministic_lower_bound(3, 100) == pytest.approx(2.0)

    def test_one_when_blind_flooding_could_cover(self):
        assert deterministic_lower_bound(3, 2) == 1.0

    def test_capacity_raises_the_threshold(self):
        assert deterministic_lower_bound(3, 8, capacity=4) == 1.0
        assert deterministic_lower_bound(3, 13, capacity=4) == pytest.approx(2.0)


class TestAdversary:
    def test_flooding_ratio_grows_with_decoys(self):
        small = adversarial_ratio(LocalRoundRobin, separation=3, num_decoys=4)
        large = adversarial_ratio(LocalRoundRobin, separation=3, num_decoys=16)
        assert large.ratio > small.ratio
        assert large.ratio > 4.0

    def test_flood_then_optimal_meets_lower_bound(self):
        outcome = adversarial_ratio(
            lambda: FloodThenOptimal(planner="exact"), separation=3, num_decoys=16
        )
        assert outcome.ratio == pytest.approx(deterministic_lower_bound(3, 16))

    def test_outcome_fields(self):
        outcome = adversarial_ratio(LocalRoundRobin, separation=2, num_decoys=4)
        assert outcome.algorithm == "locd_round_robin"
        assert outcome.optimum == 2
        assert 0 <= outcome.worst_token < 4
        assert outcome.worst_makespan >= outcome.optimum

    def test_candidate_restriction(self):
        outcome = adversarial_ratio(
            LocalRoundRobin, separation=2, num_decoys=8, candidates=[7]
        )
        assert outcome.worst_token == 7

    def test_finished_runs_are_not_censored(self):
        outcome = adversarial_ratio(LocalRoundRobin, separation=2, num_decoys=4)
        assert not outcome.censored
        assert (outcome.worst_token, outcome.worst_makespan) == (3, 6)

    def test_run_hitting_max_steps_is_censored(self):
        """Under a two-step cap only token 0 arrives in time; an unfinished
        run of the same length is the worse case, and only a lower bound."""
        outcome = adversarial_ratio(
            LocalRoundRobin, separation=2, num_decoys=4, candidates=[0, 3], max_steps=2
        )
        assert outcome.censored
        assert (outcome.worst_token, outcome.worst_makespan) == (3, 2)
        finished = adversarial_ratio(
            LocalRoundRobin, separation=2, num_decoys=4, candidates=[0], max_steps=2
        )
        assert not finished.censored

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            adversarial_ratio(LocalRoundRobin, separation=2, num_decoys=4, candidates=[])
