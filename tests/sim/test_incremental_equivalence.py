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
    churn_schedule,
    periodic_outages,
    random_fluctuations,
)
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

from tests.conftest import make_random_problem, new_heuristic, problems
from tests.sim.test_batch_equivalence import (
    ALL_HEURISTICS,
    ARC_ORDER_HEURISTICS,
    send_order,
    supplier_slot_order,
)

LOCD_ALGORITHMS = {
    "locd_round_robin": LocalRoundRobin,
    "locd_random": LocalRandom,
    "locd_rarest": LocalRarest,
    "locd_bandwidth": StaleBandwidth,
    "locd_global": StaleGreedy,
    "locd_flood_then_greedy": FloodThenOptimal,
}


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
        # Churn: a third of the vertices leave once, for 1-3 turns
        # starting in the first 4.
        draw = random.Random(seed)
        away = {}
        for v in draw.sample(range(problem.num_vertices), problem.num_vertices // 3):
            start = draw.randrange(4)
            away[v] = [(start, start + draw.randint(1, 3))]
        return {
            "fluctuations": lambda: random_fluctuations(problem, seed=seed),
            "outages": lambda: periodic_outages(problem, 3, 1, seed=seed),
            "churn": lambda: churn_schedule(problem, away),
        }

    @staticmethod
    def instances():
        """Six single-plane instances of up to 8 tokens, then three of
        65-70 tokens, whose vector paths run on two bitplanes, with
        their step cap.  Fluctuations take capacity-1 arcs down for
        good, so some runs never succeed; the two-plane runs stop at
        200 steps instead of thousands."""
        rng = random.Random(13)
        for i in range(6):
            yield i, make_random_problem(rng, max_vertices=10, max_tokens=8), None
        for i in range(6, 9):
            problem = make_random_problem(rng, max_vertices=10, max_tokens=70)
            while problem.num_tokens <= 64:
                problem = make_random_problem(rng, max_vertices=10, max_tokens=70)
            yield i, problem, 200

    def test_instance_family_all_heuristics(self):
        """Schedule, success, send order and the final RNG state of
        every heuristic on every condition family, against the frozen
        dynamic loop."""
        for i, problem, max_steps in self.instances():
            seed = 900 + i
            for family, fam in self.condition_families(problem, seed).items():
                for name in ALL_HEURISTICS:
                    where = (i, family, name)
                    frozen = make_reference_heuristic(name)
                    old = reference_run_dynamic(
                        fam(), frozen, seed=seed, max_steps=max_steps
                    )
                    # The frozen loop draws from the RNG it resets the
                    # heuristic with, at its first step.
                    old_rng = frozen.rng if old.makespan else random.Random(seed)
                    rng = random.Random(seed)
                    new = DynamicEngine(
                        fam(), new_heuristic(name), rng=rng, max_steps=max_steps
                    ).run()
                    assert old.success == new.success, where
                    assert signature(old.schedule) == signature(new.schedule), where
                    assert old_rng.getstate() == rng.getstate(), where
                    if name in ARC_ORDER_HEURISTICS:
                        assert send_order(old.schedule) == send_order(new.schedule), where
                    elif name in ("local", "sequential"):
                        assert supplier_slot_order(problem, new.schedule), where
