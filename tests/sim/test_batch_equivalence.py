"""Differential harness: the live proposal paths against the frozen oracle.

:class:`Engine` runs each heuristic on its one proposal path: the
``propose_vector`` arrays (validated and folded as bitplane array ops)
for Round-Robin, Random, Local and Sequential, the ``propose`` dict for
Bandwidth and Global.  For every heuristic and every supported
configuration, a ``(problem, seed)`` run must match the frozen
pre-kernel loop and ``propose`` bodies in :mod:`repro.sim.reference`:

* identical schedules (same timesteps, arcs, token sets, success flag),
* identical ``rng.getstate()`` after every proposal and at the end,
* a send order fixed by rule: for Round-Robin and Random each step's
  sends come in the reference's order (ascending arc index); for Local
  and Sequential in supplier-slot order (receivers ascending, in-arc
  order within each), where the reference inserts in grant order,
* JSONL traces byte-identical to a re-trace of the reference schedule.

The seeded grid sweeps topology families x token-universe sizes —
including >64-token universes that spill into a second bitplane and
exercise the multi-plane vector proposal path — for well over 100
instances, and a hypothesis property supplies shrinking when a
divergence appears.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.heuristics import HEURISTIC_FACTORIES
from repro.obs import JsonlTracer
from repro.obs.analyze import diff_traces, retrace_run
from repro.sim import Engine, run_heuristic
from repro.sim.engine import resolve_state_factory
from repro.sim.reference import make_reference_heuristic, reference_run_heuristic
from repro.sim.state import SimState

from tests.conftest import make_random_problem, new_heuristic, problems, recorded_run

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

#: Heuristics with a ``propose_vector`` path.
VECTOR_HEURISTICS = ("round_robin", "random", "local", "sequential")

#: Vector heuristics that send in the reference's order (ascending arc
#: index); the request-subdividing ones send in supplier-slot order.
ARC_ORDER_HEURISTICS = ("round_robin", "random")


def signature(schedule):
    """A canonical, comparison-friendly form of a schedule."""
    return [
        sorted((key, ts.sends[key].mask) for key in ts.sends)
        for ts in schedule.steps
    ]


def send_order(schedule):
    """Each step's sends in insertion order."""
    return [list(ts.sends) for ts in schedule.steps]


def supplier_slot_order(problem, schedule):
    """Whether every step sends in supplier-slot order: receivers
    ascending, and each receiver's suppliers in ``in_arcs`` order."""
    slot = {
        (arc.src, arc.dst): (v, i)
        for v in range(problem.num_vertices)
        for i, arc in enumerate(problem.in_arcs(v))
    }
    for keys in send_order(schedule):
        ranks = [slot[key] for key in keys]
        if ranks != sorted(ranks):
            return False
    return True


def assert_matches_reference(problem, name, seed):
    """The live run of ``name`` against the reference run: success,
    schedule, the RNG stream, and the send order rule."""
    run, states = recorded_run(problem, name, seed)
    oracle, oracle_states = recorded_run(problem, name, seed, reference=True)
    assert oracle.success == run.success, (name, seed)
    assert signature(oracle.schedule) == signature(run.schedule), (name, seed)
    assert oracle_states == states, (name, seed)
    if name in ARC_ORDER_HEURISTICS:
        assert send_order(oracle.schedule) == send_order(run.schedule), (name, seed)
    elif name in VECTOR_HEURISTICS:
        assert supplier_slot_order(problem, run.schedule), (name, seed)


def grid_instances():
    """The seeded topology x token-count grid (>100 instances)."""
    for tier, (max_v, max_t, count) in enumerate(GRID):
        rng = random.Random(4200 + tier)
        for i in range(count):
            yield tier, i, make_random_problem(
                rng, max_vertices=max_v, max_tokens=max_t
            )


# ----------------------------------------------------------------------
# Engine: every heuristic's path vs the reference oracle across the grid
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    def test_grid_vector_vs_reference(self):
        checked = 0
        for tier, i, problem in grid_instances():
            seed = 31_000 + tier * 1000 + i
            # Rotate heuristics across the grid so every (tier, heuristic)
            # pair is exercised without running all 6 on all instances.
            names = (
                ALL_HEURISTICS
                if i < 4
                else (ALL_HEURISTICS[i % len(ALL_HEURISTICS)],)
            )
            for name in names:
                assert_matches_reference(problem, name, seed)
            checked += 1
        assert checked >= 100  # the grid is the >=100-instance contract

    @pytest.mark.parametrize("name", VECTOR_HEURISTICS)
    def test_vector_path_actually_engages(self, name):
        """Every step of the run is a vector proposal."""
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
        rng = random.Random(6)
        problem = make_random_problem(rng, max_vertices=6, max_tokens=70)
        while problem.num_tokens <= 63:  # the grid draw must really spill
            problem = make_random_problem(rng, max_vertices=6, max_tokens=70)
        run, states = recorded_run(problem, name, seed=2)
        # One recorded state per vector proposal, plus the final one.
        assert len(states) == run.makespan + 1 > 1, name
        # RNG-stream exactness: the vector path consumed the exact draws
        # the reference did, so the engine RNGs land in the same states
        # even on multi-plane universes.
        oracle, oracle_states = recorded_run(problem, name, seed=2, reference=True)
        assert signature(oracle.schedule) == signature(run.schedule)
        assert oracle_states == states, name

    @given(problems(max_vertices=8, max_tokens=6))
    @settings(max_examples=30, deadline=None)
    def test_property_schedules_identical(self, problem):
        for name in ALL_HEURISTICS:
            assert_matches_reference(problem, name, seed=17)


# ----------------------------------------------------------------------
# Traces: byte-identical to a re-trace of the reference schedule
# ----------------------------------------------------------------------
class TestTraceEquivalence:
    def test_traces_byte_identical_vs_reference_retrace(self, tmp_path):
        rng = random.Random(21)
        for i in range(12):
            # Every third instance spills past 64 tokens so the
            # multi-plane vector paths are trace-checked too.
            problem = make_random_problem(
                rng, max_vertices=10, max_tokens=70 if i % 3 == 0 else 10
            )
            for name in ALL_HEURISTICS:
                live = tmp_path / f"{i}-{name}-live.jsonl"
                with JsonlTracer(path=str(live)) as tracer:
                    run_heuristic(
                        problem, new_heuristic(name), seed=700 + i, tracer=tracer
                    )
                oracle = reference_run_heuristic(
                    problem, make_reference_heuristic(name), seed=700 + i
                )
                retraced = tmp_path / f"{i}-{name}-reference.jsonl"
                with JsonlTracer(path=str(retraced)) as tracer:
                    retrace_run(tracer, problem, oracle.schedule, heuristic_name=name)
                assert live.read_bytes() == retraced.read_bytes(), (i, name)

    def test_trace_diff_vs_reference_oracle(self, tmp_path):
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
            def validate_vector(self, problem, vec):
                timestep, arrivals = super().validate_vector(problem, vec)
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
