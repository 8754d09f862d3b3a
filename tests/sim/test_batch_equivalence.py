"""Differential harness: the vector proposal path changes *nothing* observable.

The one step kernel, :class:`repro.sim.SimState`, takes a heuristic's
sends by two paths: the scalar ``propose`` dict (validated by
``check_sends`` and folded gain by gain) and the ``propose_vector``
arrays (validated and folded as bitplane array ops).  :class:`Engine`
takes the vector path whenever the heuristic has one; the tests force
the scalar path by hiding ``propose_vector`` (``scalar_only``).  For
every heuristic and every supported configuration, a ``(problem,
seed)`` run must be *byte-identical* on both paths and against the
frozen pre-kernel oracle in :mod:`repro.sim.reference`:

* identical schedules (same timesteps, arcs, token sets, success flag),
* byte-identical JSONL traces between the two paths,
* trace-equivalent (modulo the ``engine`` label) against the oracle.

In the test names, ``batch`` is the vector path and ``state`` the scalar
path.  The seeded grid sweeps topology families x token-universe sizes
— including >64-token universes that spill into a second bitplane and
exercise the multi-plane vector proposal path — for well over 100
instances, and a hypothesis property supplies shrinking when a
divergence appears.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings

from repro.heuristics import HEURISTIC_FACTORIES
from repro.heuristics.sequential import SequentialHeuristic
from repro.obs import JsonlTracer
from repro.obs.analyze import diff_traces
from repro.sim import Engine, run_heuristic
from repro.sim.engine import resolve_state_factory
from repro.sim.reference import (
    make_reference_heuristic,
    reference_run_heuristic,
)
from repro.sim.state import SimState

from tests.conftest import make_random_problem, problems, scalar_only

ALL_HEURISTICS = tuple(HEURISTIC_FACTORIES) + ("sequential",)

#: (max_vertices, max_tokens, instances) tiers; the 70-token tier spills
#: into a second bitplane, so the vector paths run on (rows, planes)
#: mask matrices instead of flat mask vectors.
GRID = (
    (8, 3, 40),
    (10, 12, 30),
    (12, 40, 20),
    (10, 70, 15),
)

#: Heuristics with a ``propose_vector`` fast path.
VECTOR_HEURISTICS = ("round_robin", "random", "local", "sequential")


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


def send_order(schedule):
    """Each step's sends in insertion order."""
    return [list(ts.sends) for ts in schedule.steps]


def grid_instances():
    """The seeded topology x token-count grid (>100 instances)."""
    for tier, (max_v, max_t, count) in enumerate(GRID):
        rng = random.Random(4200 + tier)
        for i in range(count):
            yield tier, i, make_random_problem(
                rng, max_vertices=max_v, max_tokens=max_t
            )


# ----------------------------------------------------------------------
# Engine: vector vs scalar path vs reference oracle across the full grid
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    def test_grid_batch_vs_state_vs_reference(self):
        checked = 0
        for tier, i, problem in grid_instances():
            seed = 31_000 + tier * 1000 + i
            # Rotate heuristics across the grid so every (tier, heuristic)
            # pair is exercised without running all 7 on all instances.
            names = (
                ALL_HEURISTICS
                if i < 4
                else (ALL_HEURISTICS[i % len(ALL_HEURISTICS)],)
            )
            for name in names:
                scalar_run = run_heuristic(
                    problem, scalar_only(new_heuristic(name)), seed=seed
                )
                vector_run = run_heuristic(problem, new_heuristic(name), seed=seed)
                assert scalar_run.success == vector_run.success, (name, seed)
                assert signature(scalar_run.schedule) == signature(
                    vector_run.schedule
                ), (name, seed)
                # ``VectorProposal.arc_indices`` keeps the scalar dict's
                # insertion order, which ``signature`` sorts away.
                assert send_order(scalar_run.schedule) == send_order(
                    vector_run.schedule
                ), (name, seed)
                assert json.dumps(scalar_run.schedule.to_dict()) == json.dumps(
                    vector_run.schedule.to_dict()
                ), (name, seed)
                oracle = reference_run_heuristic(
                    problem, make_reference_heuristic(name), seed=seed
                )
                assert oracle.success == vector_run.success, (name, seed)
                assert signature(oracle.schedule) == signature(
                    vector_run.schedule
                ), (name, seed)
            checked += 1
        assert checked >= 100  # the grid is the >=100-instance contract

    @pytest.mark.parametrize("name", VECTOR_HEURISTICS)
    def test_vector_path_actually_engages(self, name):
        """Guard against silently falling back to the dict path."""
        calls = []

        base = new_heuristic(name)

        class Counting(type(base)):
            def propose_vector(self, state):
                vec = super().propose_vector(state)
                calls.append(vec is not None)
                return vec

        rng = random.Random(5)
        problem = make_random_problem(rng, max_vertices=10, max_tokens=10)
        result = run_heuristic(problem, Counting(), seed=9)
        assert calls and all(calls), name
        assert len(calls) == result.makespan

    @pytest.mark.parametrize("name", VECTOR_HEURISTICS)
    def test_vector_path_engages_beyond_one_plane(self, name):
        """>64-token universes ride the vector path on mask matrices."""
        calls = []

        base = new_heuristic(name)

        class Counting(type(base)):
            def propose_vector(self, state):
                vec = super().propose_vector(state)
                calls.append(vec is not None)
                return vec

        rng = random.Random(6)
        problem = make_random_problem(rng, max_vertices=6, max_tokens=70)
        while problem.num_tokens <= 63:  # the grid draw must really spill
            problem = make_random_problem(rng, max_vertices=6, max_tokens=70)
        seed = 2
        ra = random.Random(seed)
        rb = random.Random(seed)
        scalar_run = Engine(problem, scalar_only(new_heuristic(name)), rng=ra).run()
        vector_run = Engine(problem, Counting(), rng=rb).run()
        assert calls and all(calls), name
        assert signature(scalar_run.schedule) == signature(vector_run.schedule)
        # RNG-stream exactness: the vector path consumed the exact same
        # draws the scalar path did, so the engine RNGs land in the same
        # final state even on multi-plane universes.
        assert ra.getstate() == rb.getstate(), name

    @given(problems(max_vertices=8, max_tokens=6))
    @settings(max_examples=30, deadline=None)
    def test_property_schedules_identical(self, problem):
        for name in ALL_HEURISTICS:
            scalar_run = run_heuristic(
                problem, scalar_only(new_heuristic(name)), seed=17
            )
            vector_run = run_heuristic(problem, new_heuristic(name), seed=17)
            assert scalar_run.success == vector_run.success, name
            assert signature(scalar_run.schedule) == signature(
                vector_run.schedule
            ), name


# ----------------------------------------------------------------------
# Traces: byte-identical JSONL between paths, label-equivalent vs oracle
# ----------------------------------------------------------------------
class TestTraceEquivalence:
    def test_traces_byte_identical_vs_state(self, tmp_path):
        rng = random.Random(21)
        for i in range(12):
            # Every third instance spills past 64 tokens so the
            # multi-plane vector paths are trace-checked too.
            problem = make_random_problem(
                rng, max_vertices=10, max_tokens=70 if i % 3 == 0 else 10
            )
            for name in ALL_HEURISTICS:
                traces = {}
                for path_name, hide in (("scalar", scalar_only), ("vector", None)):
                    path = str(tmp_path / f"{i}-{name}-{path_name}.jsonl")
                    heuristic = new_heuristic(name)
                    with JsonlTracer(path=path) as tracer:
                        run_heuristic(
                            problem,
                            hide(heuristic) if hide else heuristic,
                            seed=700 + i,
                            tracer=tracer,
                        )
                    traces[path_name] = open(path, "rb").read()
                assert traces["scalar"] == traces["vector"], (i, name)

    def test_trace_diff_vs_reference_oracle(self, tmp_path):
        from repro.obs.analyze import retrace_run

        rng = random.Random(23)
        for i in range(6):
            problem = make_random_problem(rng, max_vertices=8, max_tokens=6)
            seed = 800 + i
            vector_path = str(tmp_path / f"{i}-vector.jsonl")
            with JsonlTracer(path=vector_path) as tracer:
                run_heuristic(
                    problem,
                    new_heuristic("round_robin"),
                    seed=seed,
                    tracer=tracer,
                )
            oracle = reference_run_heuristic(
                problem, make_reference_heuristic("round_robin"), seed=seed
            )
            oracle_path = str(tmp_path / f"{i}-oracle.jsonl")
            with JsonlTracer(path=oracle_path) as tracer:
                retrace_run(
                    tracer,
                    problem,
                    oracle.schedule,
                    heuristic_name="round_robin",
                    engine="reference",
                )
            diff = diff_traces(
                vector_path, oracle_path, ignore_fields=("engine",)
            )
            assert diff.identical, (i, diff.divergence)


# ----------------------------------------------------------------------
# Lazy vector timesteps: dict order pinned to the eager fold
# ----------------------------------------------------------------------
class TestLazyTimestepOrder:
    def test_lazy_order_matches_eager_fold(self):
        """The lazy timestep's sends/arrivals reproduce eager dict order.

        The arrivals fold groups by destination with ``reduceat`` and
        must hand back destinations in *first-encounter* order — the
        order the eager per-send fold would insert them — and
        ``iter_sends_masks`` must stream sends in the proposal's dict
        insertion order, chunk boundaries notwithstanding.
        """
        records = []

        class Recording(SimState):
            def validate_vector(self, vec):
                timestep, arrivals = super().validate_vector(vec)
                # Stream before materialization, tiny chunks on purpose.
                lazy = list(timestep.iter_sends_masks(chunk=3))
                eager = {}
                for (src, dst), tokens in timestep.sends.items():
                    prev = eager.get(dst)
                    eager[dst] = (
                        tokens.mask if prev is None else prev | tokens.mask
                    )
                sends = [
                    (key, tokens.mask)
                    for key, tokens in timestep.sends.items()
                ]
                # After materialization the stream reads the dict.
                assert list(timestep.iter_sends_masks()) == sends
                records.append(
                    (list(arrivals.items()), list(eager.items()), lazy, sends)
                )
                return timestep, arrivals

        rng = random.Random(97)
        for max_tokens in (10, 70):
            for i in range(3):
                problem = make_random_problem(
                    rng, max_vertices=10, max_tokens=max_tokens
                )
                for name in VECTOR_HEURISTICS:
                    Engine(
                        problem,
                        new_heuristic(name),
                        rng=random.Random(50 + i),
                        kernel=Recording,
                    ).run()
        assert records
        for arrivals, eager, lazy, sends in records:
            assert arrivals == eager  # same pairs, same insertion order
            assert lazy == sends


# ----------------------------------------------------------------------
# Kernel resolution: an injection hook, not a choice
# ----------------------------------------------------------------------
class TestKernelResolution:
    def test_kernel_names_resolve(self, path_problem):
        assert resolve_state_factory(None) is SimState
        # The benchmark suite's name for the kernel SimState absorbed.
        assert resolve_state_factory("batch") is SimState
        result = Engine(
            path_problem, new_heuristic("round_robin"), kernel="batch"
        ).run()
        assert result.success

    def test_unknown_kernel_rejected(self):
        for kernel in ("state", "bogus", "auto"):
            with pytest.raises(ValueError, match="unknown kernel"):
                resolve_state_factory(kernel)

    def test_callable_passthrough(self, path_problem):
        made = []

        def factory(problem):
            state = SimState(problem)
            made.append(state)
            return state

        assert resolve_state_factory(factory) is factory
        result = Engine(
            path_problem, new_heuristic("round_robin"), kernel=factory
        ).run()
        assert result.success
        assert len(made) == 1
