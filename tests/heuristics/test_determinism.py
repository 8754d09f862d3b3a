"""Determinism regression: same (instance, seed) → byte-identical schedule.

Within one process: two fresh runs, and a reused heuristic instance,
must agree for every heuristic, including the streaming
SequentialHeuristic not in ``HEURISTIC_FACTORIES``.  Agreement across
processes (hash seed, clocks, listing order) is
``tests/test_determinism_env.py``.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.heuristics import HEURISTIC_FACTORIES, SequentialHeuristic
from repro.heuristics.base import Heuristic
from repro.sim import run_heuristic
from tests.conftest import make_random_problem

ALL_FACTORIES = dict(HEURISTIC_FACTORIES)
ALL_FACTORIES["sequential"] = SequentialHeuristic


def _schedule_bytes(problem, heuristic, seed: int) -> bytes:
    result = run_heuristic(problem, heuristic, seed=seed)
    payload = {
        "schedule": result.schedule.to_dict(),
        "makespan": result.schedule.makespan,
        "success": result.success,
    }
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
@pytest.mark.parametrize("seed", [0, 7])
def test_same_seed_same_schedule(name: str, seed: int) -> None:
    """Two runs of a fresh heuristic on the same instance+seed agree byte-for-byte."""
    for instance_seed in range(4):
        problem = make_random_problem(random.Random(instance_seed))
        first = _schedule_bytes(problem, ALL_FACTORIES[name](), seed)
        second = _schedule_bytes(problem, ALL_FACTORIES[name](), seed)
        assert first == second, f"{name} nondeterministic on instance {instance_seed}"


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_reused_instance_matches_fresh(name: str) -> None:
    """reset() fully clears per-run state: a reused instance replays exactly."""
    problem = make_random_problem(random.Random(99))
    reused = ALL_FACTORIES[name]()
    baseline = _schedule_bytes(problem, reused, seed=3)
    # Run it somewhere else, then back on the original instance.
    other = make_random_problem(random.Random(100))
    _schedule_bytes(other, reused, seed=5)
    assert _schedule_bytes(problem, reused, seed=3) == baseline


def test_base_rng_seeded_before_reset() -> None:
    """Satellite fix: a heuristic's default RNG is Random(0), not entropy."""
    a, b = Heuristic(), Heuristic()
    assert a.rng.random() == b.rng.random()


def test_problem_access_before_reset_raises() -> None:
    with pytest.raises(RuntimeError, match="before reset"):
        Heuristic().problem
