"""Tracers: zero-overhead null default, determinism, ambient resolution.

The tentpole's two behavioural contracts live here:

* **NullTracer no-op equivalence** — running any engine with tracing
  disabled (the default) or with an explicit ``NullTracer`` produces
  the *identical* schedule to a fully traced run: instrumentation may
  observe a run but never perturb it.  And disabled tracing is free:
  no driver hands a disabled tracer an event, and an unprofiled run
  reads no clock.
* **Trace determinism** — identical seeds produce byte-identical JSONL
  trace files, because events carry no wall-clock or process identity
  and serialization is canonical.
"""

from __future__ import annotations

import random

import repro.obs.metrics
from repro.core.problem import Problem
from repro.experiments.sweep import Executor, PointSpec
from repro.extensions.dynamic import constant_conditions, run_dynamic
from repro.heuristics import (
    HEURISTIC_FACTORIES,
    SequentialHeuristic,
    standard_heuristics,
)
from repro.locd.algorithms import LocalRarest
from repro.locd.runner import run_local
from repro.obs import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    activated,
    current_tracer,
)
from repro.sim.engine import Engine, run_heuristic
from repro.topology import random_graph
from repro.workloads import single_file


def _problem(seed: int = 3, n: int = 10, tokens: int = 6) -> Problem:
    return single_file(random_graph(n, random.Random(seed)), file_tokens=tokens)


class _EmitFails(NullTracer):
    """Disabled like :data:`NULL_TRACER`, but not it: a guard keyed on
    identity instead of ``enabled`` lets events through, and any event
    that reaches it fails the run."""

    def emit(self, kind, fields):
        raise AssertionError(f"a disabled tracer was handed a {kind!r} event")


class _NoClock:
    """Stands in for the ``time`` module :mod:`repro.obs.metrics` reads."""

    @staticmethod
    def perf_counter():
        raise AssertionError("an unprofiled run read the clock")


class TestNullTracer:
    def test_disabled_and_silent(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.emit("step", {"step": 0})  # must not raise, records nothing

    def test_is_the_ambient_default(self):
        assert current_tracer() is NULL_TRACER


class TestNoOpEquivalence:
    def test_engine_schedule_identical_traced_or_not(self):
        problem = _problem()
        for heuristic_factory in standard_heuristics():
            name = heuristic_factory.name
            base = run_heuristic(problem, heuristic_factory, seed=7)
            for tracer in (NullTracer(), RecordingTracer()):
                fresh = next(
                    h for h in standard_heuristics() if h.name == name
                )
                again = run_heuristic(problem, fresh, seed=7, tracer=tracer)
                assert again.schedule == base.schedule, name
                assert again.success == base.success

    def test_local_engine_schedule_identical_traced_or_not(self):
        problem = _problem(n=8, tokens=4)
        base = run_local(problem, LocalRarest(), seed=5)
        traced = run_local(
            problem, LocalRarest(), seed=5, tracer=RecordingTracer()
        )
        assert traced.schedule == base.schedule
        assert traced.knowledge_cost == base.knowledge_cost

    def test_dynamic_engine_schedule_identical_traced_or_not(self):
        """Round-Robin on the vector path, Bandwidth on the dict path."""
        problem = _problem(n=8, tokens=4)
        conditions = constant_conditions(problem)
        for name in ("round_robin", "bandwidth"):
            factory = HEURISTIC_FACTORIES[name]
            base = run_dynamic(conditions, factory(), seed=5)
            traced = run_dynamic(
                conditions, factory(), seed=5, tracer=RecordingTracer()
            )
            assert traced.schedule == base.schedule, name

    def test_disabled_tracing_emits_nothing_and_reads_no_clock(self, monkeypatch):
        """Every driver, with a disabled tracer both passed and ambient,
        builds no event and times nothing: :class:`Engine` on the vector
        path (Round-Robin, Random, Local, Sequential) and the dict path
        (Bandwidth, Global), and :class:`DynamicEngine` on both.  The
        80-token universe puts the vector paths on two bitplanes."""
        monkeypatch.setattr(repro.obs.metrics, "time", _NoClock)
        problem = _problem(n=12, tokens=80)
        tracer = _EmitFails()
        point = PointSpec.make(
            "fig5",
            "fig5",
            0,
            params={
                "n": 12,
                "num_files": 2,
                "total_tokens": 80,
                "multi_sender": False,
                "trial": 0,
            },
            seed=5,
        )
        with activated(tracer):
            factories = {**HEURISTIC_FACTORIES, "sequential": SequentialHeuristic}
            for name, factory in factories.items():
                result = run_heuristic(problem, factory(), seed=5, tracer=tracer)
                assert result.success, name
            local = run_local(problem, LocalRarest(), seed=5, tracer=tracer)
            dynamic = [
                run_dynamic(
                    constant_conditions(problem),
                    HEURISTIC_FACTORIES[name](),
                    seed=5,
                    tracer=tracer,
                )
                for name in ("round_robin", "bandwidth")
            ]
            (outcome,) = Executor().run([point])
        assert local.success and all(run.success for run in dynamic)
        assert outcome["stats"]["moves"] > 0


class TestRecordingTracer:
    def test_run_stamping_and_event_stream(self):
        problem = _problem()
        tracer = RecordingTracer()
        for heuristic in standard_heuristics()[:2]:
            run_heuristic(problem, heuristic, seed=7, tracer=tracer)
        starts = tracer.of_kind("run_start")
        assert [e["run"] for e in starts] == [0, 1]
        assert {e["event"] for e in tracer.events} >= {
            "run_start",
            "step",
            "run_end",
        }
        # Steps of the second run carry its index.
        second_steps = [
            e for e in tracer.of_kind("step") if e["run"] == 1
        ]
        assert second_steps and all(
            e["step"] == i for i, e in enumerate(second_steps)
        )

    def test_step_events_carry_the_kernel_dynamics(self):
        problem = _problem()
        tracer = RecordingTracer()
        result = run_heuristic(
            problem, standard_heuristics()[0], seed=7, tracer=tracer
        )
        steps = tracer.of_kind("step")
        assert len(steps) == result.makespan
        for event in steps:
            assert event["moves"] >= event["gained"] >= 0
            assert len(event["deficit_by_vertex"]) == problem.num_vertices
            assert sum(event["deficit_by_vertex"]) == event["deficit"]
            hist_total = sum(freq for _count, freq in event["holder_hist"])
            assert hist_total == problem.num_tokens
            assert 0.0 <= event["arc_util"] <= 1.0
        assert steps[-1]["deficit"] == 0
        (end,) = tracer.of_kind("run_end")
        assert end["success"] is True
        assert end["makespan"] == result.makespan
        assert end["bandwidth"] == result.bandwidth

    def test_no_wall_clock_or_pid_in_trace_events(self):
        tracer = RecordingTracer()
        run_heuristic(_problem(), standard_heuristics()[0], seed=7, tracer=tracer)
        forbidden = {"time", "timestamp", "wall_s", "pid", "worker"}
        for event in tracer.events:
            assert not (set(event) & forbidden), event


class TestJsonlTracer:
    def test_same_seed_byte_identical(self, tmp_path):
        problem = _problem()
        paths = []
        for i in range(2):
            path = tmp_path / f"trace{i}.jsonl"
            with JsonlTracer(path=str(path)) as tracer:
                for heuristic in standard_heuristics():
                    run_heuristic(problem, heuristic, seed=7, tracer=tracer)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0

    def test_different_scenario_differs(self, tmp_path):
        blobs = []
        for problem_seed in (3, 4):
            path = tmp_path / f"p{problem_seed}.jsonl"
            with JsonlTracer(path=str(path)) as tracer:
                run_heuristic(
                    _problem(seed=problem_seed),
                    standard_heuristics()[1],
                    seed=7,
                    tracer=tracer,
                )
            blobs.append(path.read_bytes())
        assert blobs[0] != blobs[1]


class TestAmbientTracer:
    def test_engine_resolves_ambient_at_construction(self):
        problem = _problem()
        tracer = RecordingTracer()
        with activated(tracer):
            engine = Engine(problem, standard_heuristics()[0])
            assert engine.tracer is tracer
            engine.run()
        assert tracer.of_kind("run_start")
        assert current_tracer() is NULL_TRACER

    def test_activation_nests_and_restores(self):
        outer, inner = RecordingTracer(), RecordingTracer()
        with activated(outer):
            with activated(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_explicit_tracer_beats_ambient(self):
        explicit = RecordingTracer()
        with activated(RecordingTracer()):
            engine = Engine(_problem(), standard_heuristics()[0], tracer=explicit)
        assert engine.tracer is explicit
