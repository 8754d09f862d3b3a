"""Metrics registry: instruments, phase timers, engine profiling."""

from __future__ import annotations

import random

import pytest

from repro.core.problem import Problem
from repro.extensions.dynamic import periodic_outages, run_dynamic
from repro.heuristics import standard_heuristics
from repro.locd.algorithms import LocalRarest
from repro.locd.runner import run_local
from repro.obs import MetricsRegistry, current_metrics, metrics_active
from repro.sim.engine import run_heuristic
from repro.topology import random_graph
from repro.workloads import single_file


def _problem(seed: int = 3, n: int = 10, tokens: int = 6) -> Problem:
    return single_file(random_graph(n, random.Random(seed)), file_tokens=tokens)


class TestInstruments:
    def test_counter_monotone(self):
        metrics = MetricsRegistry()
        counter = metrics.counter("steps")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_is_stable(self):
        metrics = MetricsRegistry()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.gauge("g") is metrics.gauge("g")
        assert metrics.phase("p") is metrics.phase("p")

    def test_timer_accumulates(self):
        metrics = MetricsRegistry()
        with metrics.timer("phase_a"):
            pass
        with metrics.timer("phase_a"):
            pass
        phase = metrics.phase("phase_a")
        assert phase.calls == 2
        assert phase.seconds >= 0.0

    def test_snapshot_is_jsonable(self):
        import json

        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        metrics.gauge("g").set(2.5)
        with metrics.timer("t"):
            pass
        snap = metrics.snapshot()
        json.dumps(snap)
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["phases"]["t"]["calls"] == 1


class TestMergeAndSnapshot:
    def _registry(self) -> MetricsRegistry:
        metrics = MetricsRegistry()
        metrics.counter("steps").inc(3)
        metrics.gauge("deficit").set(7.0)
        metrics.phase("kernel_apply").add(0.25)
        metrics.phase("kernel_apply").add(0.25)
        return metrics

    def test_merge_combines_every_instrument_kind(self):
        a, b = self._registry(), self._registry()
        b.gauge("deficit").set(2.0)
        assert a.merge(b) is a  # chains
        snap = a.snapshot()
        assert snap["counters"]["steps"] == 6  # counters add
        assert snap["gauges"]["deficit"] == 2.0  # gauges last-write-wins
        assert snap["phases"]["kernel_apply"]["calls"] == 4
        assert snap["phases"]["kernel_apply"]["seconds"] == 1.0

    def test_merge_into_empty_is_identity(self):
        source = self._registry()
        merged = MetricsRegistry().merge(source)
        assert merged.snapshot() == source.snapshot()

    def test_from_snapshot_round_trip_is_exact(self):
        snap = self._registry().snapshot()
        assert MetricsRegistry.from_snapshot(snap).snapshot() == snap

    def test_empty_snapshot_round_trips(self):
        snap = MetricsRegistry().snapshot()
        assert MetricsRegistry.from_snapshot(snap).snapshot() == snap

    def test_worker_snapshots_merge_like_registries(self):
        # The executor's aggregation path: workers snapshot (JSON), the
        # parent rebuilds and merges — equal to merging the registries.
        import json

        a, b = self._registry(), self._registry()
        via_json = MetricsRegistry()
        for worker in (a, b):
            shipped = json.loads(json.dumps(worker.snapshot()))
            via_json.merge(MetricsRegistry.from_snapshot(shipped))
        direct = MetricsRegistry().merge(a).merge(b)
        assert via_json.snapshot() == direct.snapshot()


class TestAmbientMetrics:
    def test_default_is_none(self):
        assert current_metrics() is None

    def test_metrics_active_scopes_and_restores(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with metrics_active(outer):
            assert current_metrics() is outer
            with metrics_active(inner):
                assert current_metrics() is inner
            assert current_metrics() is outer
        assert current_metrics() is None

    def test_engine_records_into_ambient_registry(self):
        metrics = MetricsRegistry()
        with metrics_active(metrics):
            result = run_heuristic(_problem(), standard_heuristics()[0], seed=7)
        snap = metrics.snapshot()
        assert snap["counters"]["steps"] == result.makespan
        assert snap["phases"]["kernel_apply"]["calls"] == result.makespan

    def test_explicit_registry_beats_ambient(self):
        ambient, explicit = MetricsRegistry(), MetricsRegistry()
        with metrics_active(ambient):
            run_heuristic(
                _problem(), standard_heuristics()[0], seed=7, metrics=explicit
            )
        assert ambient.snapshot() == MetricsRegistry().snapshot()
        assert explicit.snapshot()["counters"]["steps"] > 0


class TestEngineProfiling:
    def test_engine_phase_timers_and_counters(self):
        metrics = MetricsRegistry()
        result = run_heuristic(
            _problem(), standard_heuristics()[0], seed=7, metrics=metrics
        )
        snap = metrics.snapshot()
        assert snap["phases"]["heuristic_select"]["calls"] == result.makespan
        assert snap["phases"]["kernel_apply"]["calls"] == result.makespan
        assert snap["counters"]["steps"] == result.makespan
        assert snap["gauges"]["deficit"] == 0

    def test_locd_engine_adds_knowledge_flood_phase(self):
        metrics = MetricsRegistry()
        result = run_local(_problem(n=8, tokens=4), LocalRarest(), seed=5, metrics=metrics)
        snap = metrics.snapshot()
        assert set(snap["phases"]) == {
            "heuristic_select",
            "kernel_apply",
            "knowledge_flood",
        }
        assert snap["counters"]["facts_learned"] == result.knowledge_cost

    def test_unprofiled_run_records_nothing(self):
        result = run_heuristic(_problem(), standard_heuristics()[0], seed=7)
        assert result.success  # and no registry anywhere to pollute

    def test_dynamic_engine_phase_timers_and_counters(self):
        metrics = MetricsRegistry()
        conditions = periodic_outages(_problem(), period=3, down_for=1, seed=2)
        result = run_dynamic(
            conditions, standard_heuristics()[0], seed=7, metrics=metrics
        )
        snap = metrics.snapshot()
        assert result.success
        assert snap["phases"]["heuristic_select"]["calls"] == result.makespan
        assert snap["phases"]["kernel_apply"]["calls"] == result.makespan
        assert snap["counters"]["steps"] == result.makespan
        assert snap["gauges"]["deficit"] == 0

    @pytest.mark.parametrize("driver", ["engine", "locd", "dynamic"])
    def test_unprofiled_runs_never_read_the_clock(self, monkeypatch, driver):
        import repro.obs.metrics as metrics_module

        def no_clock() -> float:
            raise AssertionError("an unprofiled run read the clock")

        monkeypatch.setattr(metrics_module.time, "perf_counter", no_clock)
        assert current_metrics() is None
        problem = _problem()
        if driver == "engine":
            result = run_heuristic(problem, standard_heuristics()[0], seed=7)
        elif driver == "locd":
            result = run_local(problem, LocalRarest(), seed=5)
        else:
            conditions = periodic_outages(problem, period=3, down_for=1, seed=2)
            result = run_dynamic(conditions, standard_heuristics()[0], seed=7)
        assert result.success and result.makespan > 0

    def test_render_mentions_phases_and_shares(self):
        metrics = MetricsRegistry()
        run_heuristic(_problem(), standard_heuristics()[0], seed=7, metrics=metrics)
        text = metrics.render()
        assert "heuristic_select" in text
        assert "kernel_apply" in text
        assert "%" in text
        assert "counter steps" in text

    def test_render_without_data(self):
        assert MetricsRegistry().render() == "(no metrics recorded)"
