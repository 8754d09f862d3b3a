"""Tests for the simulation engine: constraint enforcement, stall
detection, determinism, termination."""

import random

import pytest

from repro.core.problem import Problem
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet
from repro.heuristics import RoundRobinHeuristic, standard_heuristics
from repro.heuristics.base import Heuristic
from repro.sim.engine import (
    Engine,
    HeuristicViolation,
    StallError,
    StepContext,
    run_heuristic,
)


class _ScriptedHeuristic(Heuristic):
    """Plays back a fixed proposal every step (for violation tests)."""

    name = "scripted"

    def __init__(self, proposal):
        super().__init__()
        self._proposal = proposal

    def propose(self, ctx):
        return self._proposal


class _SilentHeuristic(Heuristic):
    name = "silent"

    def propose(self, ctx):
        return {}


class TestStepContext:
    def test_useful(self, path_problem):
        ctx = StepContext(
            path_problem,
            0,
            tuple(path_problem.have),
            (1, 1),
            random.Random(0),
        )
        assert ctx.useful(0, 1) == TokenSet.of(0, 1)
        assert ctx.useful(1, 2) == EMPTY_TOKENSET

    def test_outstanding(self, path_problem):
        ctx = StepContext(
            path_problem, 0, tuple(path_problem.have), (1, 1), random.Random(0)
        )
        assert ctx.outstanding(2) == TokenSet.of(0, 1)
        assert ctx.total_outstanding() == 2


class TestConstraintEnforcement:
    def test_missing_arc_rejected(self, path_problem):
        engine = Engine(path_problem, _ScriptedHeuristic({(2, 0): TokenSet.of(0)}))
        with pytest.raises(HeuristicViolation, match="no arc"):
            engine.run()

    def test_capacity_violation_rejected(self, path_problem):
        engine = Engine(
            path_problem, _ScriptedHeuristic({(0, 1): TokenSet.of(0, 1)})
        )
        with pytest.raises(HeuristicViolation, match="capacity"):
            engine.run()

    def test_unpossessed_send_rejected(self, path_problem):
        engine = Engine(path_problem, _ScriptedHeuristic({(1, 2): TokenSet.of(0)}))
        with pytest.raises(HeuristicViolation, match="does not possess"):
            engine.run()

    def test_empty_tokensets_ignored(self, trivial_problem):
        engine = Engine(trivial_problem, _ScriptedHeuristic({(0, 1): EMPTY_TOKENSET}))
        result = engine.run()
        assert result.success
        assert result.makespan == 0


class TestStallDetection:
    def test_silent_heuristic_stalls(self, path_problem):
        engine = Engine(path_problem, _SilentHeuristic(), stall_limit=3)
        with pytest.raises(StallError, match="proposed nothing"):
            engine.run()

    def test_unsatisfiable_detected_when_flooding_saturates(self):
        # Token 0 can reach vertex 1 but vertex 2 is unreachable: after
        # flooding saturates, no useful arc remains and demand persists.
        p = Problem.build(
            3, 1, [(0, 1, 1), (2, 1, 1)], {0: [0]}, {2: [0]}
        )
        engine = Engine(p, RoundRobinHeuristic())
        with pytest.raises(StallError, match="unsatisfiable"):
            engine.run()

    def test_trivial_success_no_stall(self, trivial_problem):
        result = Engine(trivial_problem, _SilentHeuristic()).run()
        assert result.success
        assert result.makespan == 0


class TestTermination:
    def test_max_steps_returns_failure(self, path_problem):
        class OneTokenForever(Heuristic):
            name = "one_token"

            def propose(self, ctx):
                # Legal but useless after the first delivery.
                return {(0, 1): TokenSet.of(0)}

        result = Engine(path_problem, OneTokenForever(), max_steps=5).run()
        assert not result.success
        assert result.makespan == 5

    def test_default_max_steps_generous(self, path_problem):
        engine = Engine(path_problem, RoundRobinHeuristic())
        assert engine.max_steps >= path_problem.move_bound()


class TestDeterminism:
    @pytest.mark.parametrize("name", ["round_robin", "random", "local", "bandwidth", "global"])
    def test_same_seed_same_schedule(self, name, random_problems):
        from repro.heuristics import make_heuristic

        problem = random_problems[0]
        a = run_heuristic(problem, make_heuristic(name), seed=99)
        b = run_heuristic(problem, make_heuristic(name), seed=99)
        assert a.schedule == b.schedule

    def test_different_seeds_may_differ(self, random_problems):
        from repro.heuristics import RandomHeuristic

        problem = random_problems[1]
        a = run_heuristic(problem, RandomHeuristic(), seed=1)
        b = run_heuristic(problem, RandomHeuristic(), seed=2)
        # Both succeed regardless of the draw.
        assert a.success and b.success


class TestRunResult:
    def test_metrics_accessor(self, path_problem):
        result = run_heuristic(path_problem, RoundRobinHeuristic(), seed=0)
        metrics = result.metrics()
        assert metrics.successful == result.success
        assert metrics.makespan == result.makespan
        assert result.bandwidth == result.schedule.bandwidth

    def test_schedules_always_valid(self, random_problems):
        for problem in random_problems[:5]:
            for heuristic in standard_heuristics():
                result = run_heuristic(problem, heuristic, seed=3)
                assert result.schedule.is_valid(problem)
