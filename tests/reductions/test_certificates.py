"""Tests for the Theorem 1-3 certificates: cleanup bound, bit encoding,
polynomial verifier."""

import random

import pytest
from hypothesis import given, settings

from repro.core.problem import Problem
from repro.core.schedule import Move, Schedule
from repro.heuristics import RoundRobinHeuristic, standard_heuristics
from repro.reductions.certificates import (
    cleanup_schedule,
    decode_schedule,
    encode_schedule,
    polynomial_verifier,
    theorem1_bound,
    theorem2_bit_bound,
)
from repro.sim import run_heuristic

from tests.conftest import make_random_problem, problems_with_schedules


class TestTheorem1:
    def test_cleanup_respects_move_bound(self):
        """Even Round-Robin's floods, cleaned up, fit in m(n-1) moves."""
        rng = random.Random(21)
        for _ in range(6):
            problem = make_random_problem(rng)
            result = run_heuristic(problem, RoundRobinHeuristic(), seed=1)
            assert result.success
            cleaned = cleanup_schedule(problem, result.schedule)
            assert cleaned.bandwidth <= theorem1_bound(problem)

    def test_cleanup_preserves_success(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 0)], [Move(0, 1, 1)],
             [Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        cleaned = cleanup_schedule(path_problem, sched)
        assert cleaned.is_successful(path_problem)
        assert cleaned.bandwidth == 4

    def test_bound_formula(self, path_problem):
        assert theorem1_bound(path_problem) == 2 * 2


class TestTheorem2Encoding:
    def test_roundtrip_simple(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        payload, bits = encode_schedule(path_problem, sched)
        assert decode_schedule(path_problem, payload, bits) == sched

    def test_empty_schedule_roundtrip(self, path_problem):
        payload, bits = encode_schedule(path_problem, Schedule())
        decoded = decode_schedule(path_problem, payload, bits)
        assert decoded == Schedule()

    @settings(max_examples=30, deadline=None)
    @given(problems_with_schedules())
    def test_roundtrip_random(self, problem_and_schedule):
        """Encoding is defined for cleaned schedules; cleaning then
        round-tripping is lossless."""
        problem, schedule = problem_and_schedule
        cleaned = cleanup_schedule(problem, schedule)
        payload, bits = encode_schedule(problem, cleaned)
        assert decode_schedule(problem, payload, bits) == cleaned

    def test_uncleaned_flood_rejected(self):
        """A raw flooding step on a dense graph exceeds the per-step move
        budget (> nm moves); cleanup makes it encodable."""
        n, m = 6, 2
        arcs = [(u, v, m) for u in range(n) for v in range(n) if u != v]
        p = Problem.build(
            n, m, arcs, {v: [0, 1] for v in range(n)}, {v: [0, 1] for v in range(n)}
        )
        flood = Schedule.from_move_lists(
            [[Move(u, v, t) for u in range(n) for v in range(n) if u != v
              for t in range(m)]]
        )
        assert flood.is_valid(p)
        with pytest.raises(Exception, match="cleanup_schedule"):
            encode_schedule(p, flood)
        cleaned = cleanup_schedule(p, flood)  # everything was redundant
        payload, bits = encode_schedule(p, cleaned)
        assert decode_schedule(p, payload, bits) == cleaned
        assert cleaned.bandwidth == 0

    def test_cleaned_schedules_fit_the_bit_bound(self):
        """The concrete encoding of any cleaned-up successful schedule
        fits in the Theorem 2 budget."""
        rng = random.Random(5)
        for _ in range(5):
            problem = make_random_problem(rng)
            for heuristic in standard_heuristics():
                result = run_heuristic(problem, heuristic, seed=2)
                if not result.success:
                    continue
                cleaned = cleanup_schedule(problem, result.schedule)
                _payload, bits = encode_schedule(problem, cleaned)
                assert bits <= theorem2_bit_bound(problem), (
                    heuristic.name,
                    bits,
                    theorem2_bit_bound(problem),
                )

    def test_encoding_is_compact(self, path_problem):
        """Bits scale with moves, not with makespan padding."""
        dense = Schedule.from_move_lists([[Move(0, 1, 0)]])
        padded = Schedule.from_move_lists([[Move(0, 1, 0)], [], [], []])
        _p1, bits_dense = encode_schedule(path_problem, dense)
        _p2, bits_padded = encode_schedule(path_problem, padded)
        # Padding costs only the per-step counters.
        assert bits_padded - bits_dense < 4 * 8

    def test_truncated_stream_rejected(self, path_problem):
        sched = Schedule.from_move_lists([[Move(0, 1, 0)]])
        payload, bits = encode_schedule(path_problem, sched)
        with pytest.raises(ValueError, match="exhausted"):
            decode_schedule(path_problem, payload, bits - 1)


class TestTheorem3Verifier:
    def test_accepts_valid_successful(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        assert polynomial_verifier(path_problem, sched)

    def test_rejects_invalid(self, path_problem):
        assert not polynomial_verifier(
            path_problem, Schedule.from_move_lists([[Move(1, 2, 0)]])
        )

    def test_rejects_valid_but_unsuccessful(self, path_problem):
        assert not polynomial_verifier(
            path_problem, Schedule.from_move_lists([[Move(0, 1, 0)]])
        )

    def test_verifier_agrees_with_exact_solver(self):
        """Every witness the exact solvers emit passes the verifier."""
        from repro.exact import solve_focd_bnb

        rng = random.Random(77)
        for _ in range(5):
            problem = make_random_problem(rng, max_vertices=4, max_tokens=2)
            solved = solve_focd_bnb(problem, max_combinations=500_000)
            assert solved is not None
            assert polynomial_verifier(problem, solved[1])
