"""Old-vs-new equivalence: the incremental kernel changes *nothing*.

The :class:`repro.sim.SimState` rewrite of the engine, the LOCD runner,
the dynamic-conditions engine, and the heuristic hot loops is a
representation change only.  For every driver and every heuristic, the
schedule produced from a given ``(problem, seed)`` must be byte-identical
to the one the frozen pre-kernel implementation in
:mod:`repro.sim.reference` produces — same timesteps, same arcs, same
token sets, same success flag.

These tests are the contract that lets the optimized loops replace
``max(key=...)`` scans with explicit loops, snapshot tuples with live
views, and full diffs with journal folds: any divergence in RNG
consumption or iteration order shows up here as a schedule mismatch.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core.problem import Problem

from repro.extensions.dynamic import (
    DynamicEngine,
    periodic_outages,
    random_fluctuations,
)
from repro.heuristics import HEURISTIC_FACTORIES
from repro.heuristics.sequential import SequentialHeuristic
from repro.locd import (
    FloodThenOptimal,
    LocalRandom,
    LocalRarest,
    LocalRoundRobin,
    StaleBandwidth,
    StaleGreedy,
    guessing_instance,
    run_local,
)
from repro.sim import run_heuristic
from repro.sim.reference import (
    REFERENCE_HEURISTIC_FACTORIES,
    make_reference_heuristic,
    reference_run_dynamic,
    reference_run_heuristic,
    reference_run_local,
)

from tests.conftest import make_random_problem, problems

LOCD_ALGORITHMS = {
    "locd_round_robin": LocalRoundRobin,
    "locd_random": LocalRandom,
    "locd_rarest": LocalRarest,
    "locd_bandwidth": StaleBandwidth,
    "locd_global": StaleGreedy,
    "locd_flood_then_greedy": FloodThenOptimal,
}


def new_heuristic(name: str):
    if name == "sequential":
        return SequentialHeuristic()
    return HEURISTIC_FACTORIES[name]()


def signature(schedule):
    """A canonical, comparison-friendly form of a schedule."""
    return [
        sorted((key, ts.sends[key].mask) for key in ts.sends)
        for ts in schedule.steps
    ]


def assert_identical_engine_run(problem, name: str, seed: int) -> None:
    old = reference_run_heuristic(
        problem, make_reference_heuristic(name), seed=seed
    )
    new = run_heuristic(problem, new_heuristic(name), seed=seed)
    assert old.success == new.success
    assert signature(old.schedule) == signature(new.schedule)


# ----------------------------------------------------------------------
# Engine: every heuristic, instance families + hypothesis search
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    def test_instance_family_all_heuristics(self):
        rng = random.Random(7)
        for i in range(25):
            problem = make_random_problem(rng, max_vertices=14, max_tokens=10)
            for name in REFERENCE_HEURISTIC_FACTORIES:
                assert_identical_engine_run(problem, name, seed=1000 + i)

    @given(problems(max_vertices=8, max_tokens=6))
    @settings(max_examples=25, deadline=None)
    def test_property_schedules_identical(self, problem):
        for name in REFERENCE_HEURISTIC_FACTORIES:
            assert_identical_engine_run(problem, name, seed=17)


# ----------------------------------------------------------------------
# LOCD runner: locality enforcement and knowledge cost preserved
# ----------------------------------------------------------------------
def assert_identical_local_runs(problem, seed: int, max_steps=None) -> None:
    for name, factory in LOCD_ALGORITHMS.items():
        old = reference_run_local(problem, factory(), seed=seed, max_steps=max_steps)
        new = run_local(problem, factory(), seed=seed, max_steps=max_steps)
        assert old.success == new.success, name
        assert old.knowledge_cost == new.knowledge_cost, name
        assert signature(old.schedule) == signature(new.schedule), name


class TestLocdEquivalence:
    def test_instance_family_all_algorithms(self):
        rng = random.Random(11)
        for i in range(8):
            problem = make_random_problem(rng, max_vertices=10, max_tokens=8)
            assert_identical_local_runs(problem, seed=500 + i)

    @pytest.mark.parametrize("separation", range(1, 7))
    def test_guessing_family(self, separation):
        """The Theorem 4 paths: the receiver's want reaches the sender
        with lag ``separation``."""
        decoys = 2 * separation + 1
        problem = guessing_instance(separation, decoys, [decoys - 1])
        assert_identical_local_runs(problem, seed=separation)

    def test_one_way_arcs(self):
        """Tokens follow arcs; knowledge runs against them too."""
        problem = Problem.build(
            6,
            3,
            [(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 1), (5, 0, 1), (0, 3, 1)],
            {0: [0, 1, 2]},
            {v: [0, 1, 2] for v in range(1, 6)},
        )
        assert_identical_local_runs(problem, seed=3)

    def test_disconnected_capped(self):
        """Vertex 4's want is unreachable: every run stops at max_steps,
        and no vertex ever hears of the other component."""
        problem = Problem.build(
            5,
            2,
            [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1)],
            {0: [0, 1], 3: [1]},
            {2: [0, 1], 4: [0]},
        )
        assert_identical_local_runs(problem, seed=4, max_steps=12)


# ----------------------------------------------------------------------
# Dynamic engine: per-turn graphs over a shared kernel
# ----------------------------------------------------------------------
class TestDynamicEquivalence:
    @staticmethod
    def condition_families(problem, seed):
        return {
            "fluctuations": lambda: random_fluctuations(problem, seed=seed),
            "outages": lambda: periodic_outages(problem, 3, 1, seed=seed),
        }

    def test_instance_family_all_heuristics(self):
        rng = random.Random(13)
        for i in range(6):
            problem = make_random_problem(rng, max_vertices=10, max_tokens=8)
            seed = 900 + i
            for fam in self.condition_families(problem, seed).values():
                for name in HEURISTIC_FACTORIES:
                    old = reference_run_dynamic(
                        fam(), make_reference_heuristic(name), seed=seed
                    )
                    new = DynamicEngine(
                        fam(),
                        HEURISTIC_FACTORIES[name](),
                        rng=random.Random(seed),
                    ).run()
                    assert old.success == new.success, name
                    assert signature(old.schedule) == signature(
                        new.schedule
                    ), name
