"""Cross-heuristic invariant suite over the shared instance family.

Every heuristic, on every instance of the shared ~30-instance batch,
must produce a schedule that survives the Theorem 3 verifier
(:meth:`Schedule.validate` — arc existence, capacity, possession) and
satisfies every vertex's final demand, with metrics that agree between
the engine's run result and :func:`evaluate_schedule`.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import evaluate_schedule
from repro.core.pruning import prune_schedule
from repro.heuristics import HEURISTIC_FACTORIES
from repro.sim import run_heuristic


@pytest.mark.parametrize("name", sorted(HEURISTIC_FACTORIES))
def test_schedules_satisfy_model_invariants(name, instance_family):
    for index, problem in enumerate(instance_family):
        result = run_heuristic(
            problem, HEURISTIC_FACTORIES[name](), seed=4242 + index
        )
        assert result.success, f"{name} failed on instance {index}"

        # Theorem 3 verifier: raises ScheduleError on any capacity or
        # possession violation; returns the possession history.
        history = result.schedule.validate(problem)
        final = history[-1]
        for v in range(problem.num_vertices):
            assert problem.want[v] <= final[v], (
                f"{name}: vertex {v} unsatisfied on instance {index}"
            )

        metrics = evaluate_schedule(problem, result.schedule)
        assert metrics.successful
        assert metrics.unsatisfied_vertices == 0
        assert metrics.makespan == result.makespan == len(result.schedule)
        assert metrics.bandwidth == result.bandwidth
        assert metrics.max_completion <= metrics.makespan


@pytest.mark.parametrize("name", sorted(HEURISTIC_FACTORIES))
def test_pruned_schedules_stay_valid_and_successful(name, instance_family):
    for index, problem in enumerate(instance_family):
        result = run_heuristic(
            problem, HEURISTIC_FACTORIES[name](), seed=4242 + index
        )
        assert result.success
        pruned, stats = prune_schedule(problem, result.schedule)
        # Pruning may only remove moves — never break validity/success.
        assert pruned.is_successful(problem)
        assert pruned.bandwidth <= result.bandwidth
        assert pruned.makespan <= result.makespan


def test_possession_is_monotone_under_every_heuristic(instance_family):
    """Replay: a vertex never loses a token it once held."""
    for name in sorted(HEURISTIC_FACTORIES):
        for index, problem in enumerate(instance_family[:10]):
            result = run_heuristic(
                problem, HEURISTIC_FACTORIES[name](), seed=4242 + index
            )
            history = result.schedule.validate(problem)
            for before, after in zip(history, history[1:]):
                for v in range(problem.num_vertices):
                    assert before[v] <= after[v]
