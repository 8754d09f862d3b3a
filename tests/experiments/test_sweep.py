"""Sweep executor: specs, caching, retries, the run ledger, determinism.

Includes the tentpole's determinism regression: a serial and a 4-worker
sweep of a small fig2 grid must produce byte-identical JSON, and a warm
cache run must perform zero point-function calls.
"""

from __future__ import annotations

import json
import os
import random
import threading

import pytest

from repro.experiments import ALL_EXPERIMENTS, Scale
from repro.experiments.sweep import (
    CACHE_VERSION,
    RETRIES,
    Executor,
    ExecutorConfig,
    PointSpec,
    SweepError,
    point_function,
    resolve_point_function,
)

TINY = Scale(
    name="quick",
    graph_sizes=(10, 16),
    file_tokens=6,
    density_thresholds=(0.0, 0.5, 1.0),
    medium_n=14,
    subdivision_tokens=8,
    file_counts=(1, 2, 4),
    trials=1,
)


@point_function("_test_square")
def _square_point(spec: PointSpec):
    value = spec.param("value")
    if spec.param("boom", False):
        raise RuntimeError(f"boom {value}")
    return {"square": value * value, "stats": {"value": value}}


@point_function("_test_exit")
def _exit_point(spec: PointSpec):
    if spec.param("die", False):
        os._exit(3)  # a worker that dies without raising
    return {"index": spec.index}


@point_function("_test_set")
def _set_point(spec: PointSpec):
    return {"v": {1, 2}}  # a dict, but not JSON


@point_function("_test_threads")
def _threads_point(spec: PointSpec):
    return {"threads": threading.active_count()}


@point_function("_test_interrupt")
def _interrupt_point(spec: PointSpec):
    if spec.param("interrupt", False):
        raise KeyboardInterrupt  # as a Ctrl-C would, mid-point
    return {"index": spec.index}


def _specs(values, **extra):
    return [
        PointSpec.make(
            "testfig",
            "_test_square",
            i,
            params={"value": v, **extra},
            seed=100 + i,
        )
        for i, v in enumerate(values)
    ]


class TestPointSpec:
    def test_params_round_trip_scalars_lists_dicts(self):
        spec = PointSpec.make(
            "f",
            "k",
            0,
            params={
                "n": 5,
                "ratio": 0.5,
                "label": "x",
                "flag": True,
                "nothing": None,
                "edges": [[0, 1], [1, 2]],
                "nested": {"a": 1, "b": [2, 3], "c": {"d": 4}},
            },
        )
        assert spec.param("n") == 5
        assert spec.param("edges") == [[0, 1], [1, 2]]
        assert spec.param("nested") == {"a": 1, "b": [2, 3], "c": {"d": 4}}
        assert spec.params_dict()["flag"] is True
        # The whole spec must stay hashable (it is a frozen dataclass).
        hash(spec)

    def test_param_default_and_keyerror(self):
        spec = PointSpec.make("f", "k", 0, params={"a": 1})
        assert spec.param("missing", 7) == 7
        with pytest.raises(KeyError):
            spec.param("missing")

    def test_rejects_non_json_params(self):
        with pytest.raises(TypeError):
            PointSpec.make("f", "k", 0, params={"bad": object()})

    def test_cache_key_depends_on_kind_params_seed_only(self):
        a = PointSpec.make("f", "k", 0, params={"n": 1}, seed=9)
        same = PointSpec.make("other_fig", "k", 3, params={"n": 1}, seed=9)
        assert a.cache_key() == same.cache_key()
        assert a.cache_key() != PointSpec.make("f", "k", 0, {"n": 2}, 9).cache_key()
        assert a.cache_key() != PointSpec.make("f", "k2", 0, {"n": 1}, 9).cache_key()
        assert a.cache_key() != PointSpec.make("f", "k", 0, {"n": 1}, 8).cache_key()

    def test_cache_key_ignores_param_order(self):
        a = PointSpec.make("f", "k", 0, params={"a": 1, "b": 2})
        b = PointSpec.make("f", "k", 0, params={"b": 2, "a": 1})
        assert a.cache_key() == b.cache_key()

    def test_resolve_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            resolve_point_function("_no_such_kind")


class TestExecutorSerial:
    def test_results_in_grid_order(self):
        outputs = Executor().run(_specs([3, 1, 2]))
        assert [o["square"] for o in outputs] == [9, 1, 4]

    def test_outcomes_and_stats_recorded(self):
        executor = Executor()
        executor.run(_specs([4]))
        (outcome,) = executor.outcomes
        assert outcome.ok and not outcome.cache_hit
        assert outcome.stats == {"value": 4}
        assert outcome.worker == os.getpid()

    def test_failure_is_retried_once_then_reported(self):
        calls = []

        @point_function("_test_flaky")
        def _flaky(spec):  # registered once per session; guard via calls
            calls.append(spec.index)
            raise RuntimeError("always down")

        executor = Executor()
        with pytest.raises(SweepError) as info:
            executor.run([PointSpec.make("f", "_test_flaky", 0, {"x": 1})])
        assert len(calls) == 1 + RETRIES == 2  # first attempt + one retry
        (failure,) = info.value.failures
        assert failure.retries == RETRIES
        assert "always down" in failure.error
        assert "always down" in str(info.value)

    def test_partial_failure_reports_only_failures(self):
        executor = Executor()
        with pytest.raises(SweepError) as info:
            executor.run(_specs([1, 2]) + _specs([9], boom=True))
        assert len(info.value.failures) == 1
        # The healthy points still ran and were recorded.
        ok = [o for o in executor.outcomes if o.ok]
        assert len(ok) == 2


class TestCache:
    def test_cache_round_trip_and_layout(self, tmp_path):
        config = ExecutorConfig(use_cache=True, cache_dir=str(tmp_path))
        specs = _specs([5, 6])
        first = Executor(config).run(specs)
        key = specs[0].cache_key()
        path = tmp_path / key[:2] / f"{key}.json"
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert payload["version"] == CACHE_VERSION
        assert payload["kind"] == "_test_square"

        warm = Executor(config)
        assert warm.run(specs) == first
        assert all(o.cache_hit for o in warm.outcomes)

    def test_force_recomputes_despite_cache(self, tmp_path):
        config = ExecutorConfig(use_cache=True, cache_dir=str(tmp_path))
        Executor(config).run(_specs([5]))
        forced = Executor(
            ExecutorConfig(use_cache=True, force=True, cache_dir=str(tmp_path))
        )
        forced.run(_specs([5]))
        assert not any(o.cache_hit for o in forced.outcomes)

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        config = ExecutorConfig(use_cache=True, cache_dir=str(tmp_path))
        (spec,) = _specs([5])
        Executor(config).run([spec])
        key = spec.cache_key()
        (tmp_path / key[:2] / f"{key}.json").write_text("{not json")
        again = Executor(config)
        assert again.run([spec]) == [{"square": 25, "stats": {"value": 5}}]
        assert not again.outcomes[0].cache_hit

    @pytest.mark.parametrize("payload", ["[1, 2]", "7", "null", '"text"'])
    def test_non_object_cache_entry_is_recomputed(self, tmp_path, payload):
        config = ExecutorConfig(use_cache=True, cache_dir=str(tmp_path))
        (spec,) = _specs([5])
        Executor(config).run([spec])
        key = spec.cache_key()
        (tmp_path / key[:2] / f"{key}.json").write_text(payload)
        again = Executor(config)
        assert again.run([spec]) == [{"square": 25, "stats": {"value": 5}}]
        assert not again.outcomes[0].cache_hit

    def test_telemetry_jsonl_schema(self, tmp_path):
        # The run ledger is the per-point JSONL record: every point_end
        # carries the cache key and the point's stats, on a hit as on a
        # miss.
        from repro.obs import read_events

        path = tmp_path / "ledger.jsonl"
        config = ExecutorConfig(
            use_cache=True, cache_dir=str(tmp_path), ledger_path=str(path)
        )
        Executor(config).run(_specs([2]))
        Executor(config).run(_specs([2]))
        rows = read_events(str(path), kind="point_end")
        assert [row["cache"] for row in rows] == ["miss", "hit"]
        for row in rows:
            assert row["figure"] == "testfig"
            assert row["kind"] == "_test_square"
            assert row["ok"] is True
            assert row["attempt"] == 0
            assert isinstance(row["wall_s"], float)
            assert isinstance(row["worker"], int)
            assert row["key"] == _specs([2])[0].cache_key()
            assert row["stats"] == {"value": 2}
            assert "traceback" not in row


class TestDeterminismRegression:
    """The tentpole's acceptance checks, on a TINY fig2 grid."""

    def test_parallel_output_is_byte_identical_to_serial(self):
        serial = ALL_EXPERIMENTS["fig2"](TINY, executor=Executor())
        parallel = ALL_EXPERIMENTS["fig2"](
            TINY, executor=Executor(ExecutorConfig(workers=4))
        )
        assert json.dumps(serial.rows, sort_keys=True) == json.dumps(
            parallel.rows, sort_keys=True
        )
        assert serial.notes == parallel.notes

    def test_default_executor_matches_legacy_serial_loop(self):
        # Calling the driver with no executor must reproduce the
        # pre-executor behaviour (serial, cache off) exactly.
        plain = ALL_EXPERIMENTS["fig2"](TINY)
        explicit = ALL_EXPERIMENTS["fig2"](TINY, executor=Executor())
        assert plain.rows == explicit.rows

    def test_warm_cache_run_performs_zero_point_calls(self, tmp_path, monkeypatch):
        config = ExecutorConfig(use_cache=True, cache_dir=str(tmp_path))
        cold = ALL_EXPERIMENTS["fig2"](TINY, executor=Executor(config))

        from repro.experiments import sweep as sweep_module

        def _explode(spec):
            raise AssertionError("warm cache run must not compute points")

        monkeypatch.setitem(sweep_module._POINT_FUNCTIONS, "fig2", _explode)
        warm_executor = Executor(config)
        warm = ALL_EXPERIMENTS["fig2"](TINY, executor=warm_executor)
        assert json.dumps(cold.rows) == json.dumps(warm.rows)
        assert all(o.cache_hit for o in warm_executor.outcomes)

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_every_driver_is_worker_count_invariant(self, name, tmp_path):
        # Serial and 2-worker sweeps give the same rows, notes and
        # per-point trace bytes: the direct check that worker code is
        # process-safe (picklable, no worker-side module state).
        seen = []
        for workers in (1, 2):
            trace_dir = tmp_path / f"workers{workers}"
            config = ExecutorConfig(workers=workers, trace_dir=str(trace_dir))
            result = ALL_EXPERIMENTS[name](TINY, executor=Executor(config))
            traces = (
                {p.name: p.read_bytes() for p in sorted(trace_dir.iterdir())}
                if trace_dir.exists()
                else {}
            )
            seen.append((json.dumps(result.rows, sort_keys=True), result.notes, traces))
        assert seen[0] == seen[1]

    def test_pareto_is_worker_count_invariant(self):
        # pareto derives every attempt's instance from its own seed, so
        # batching across workers must not change the reported numbers.
        serial = ALL_EXPERIMENTS["pareto"](TINY, executor=Executor())
        parallel = ALL_EXPERIMENTS["pareto"](
            TINY, executor=Executor(ExecutorConfig(workers=2))
        )
        assert serial.rows == parallel.rows


class TestConfig:
    def test_default_ledger_under_cache_dir(self):
        # ``ocd-repro run`` builds its config from its flags alone: the
        # ledger sits under the cache dir while caching, and an explicit
        # --ledger always wins.
        from repro.cli import _build_parser, _executor_config

        def config(*flags):
            return _executor_config(_build_parser().parse_args(["run", "fig1", *flags]))

        default = config()
        assert default.workers == 1
        assert default.use_cache and not default.force
        assert default.ledger_path == os.path.join("results", "cache", "ledger.jsonl")
        assert config("--cache-dir", "c").ledger_path == os.path.join("c", "ledger.jsonl")
        assert config("--no-cache").ledger_path is None
        assert config("--no-cache", "--ledger", "l.jsonl").ledger_path == "l.jsonl"
        assert config("--cache-dir", "c", "--ledger", "l.jsonl").ledger_path == "l.jsonl"

    def test_specs_survive_pickling(self):
        # Parallel fan-out pickles specs (including nested dict params).
        import pickle

        spec = PointSpec.make(
            "f", "k", 0, params={"nested": {"a": [1, 2]}, "n": 3}, seed=5
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.param("nested") == {"a": [1, 2]}
        assert clone.cache_key() == spec.cache_key()


def test_seed_derivation_is_per_point_not_worker_state():
    """Two executors computing the same spec agree exactly (no hidden
    global RNG involvement)."""
    (spec,) = _specs([7])
    del spec  # the real check uses fig2's registered function
    point = resolve_point_function("fig2")
    spec = PointSpec.make(
        "fig2",
        "fig2",
        0,
        params={"n": 10, "file_tokens": 4, "config": 0, "trial": 0},
        seed=123,
    )
    random.seed(999)  # pollute the global RNG; points must not care
    first = point(spec)
    random.seed(1)
    second = point(spec)
    assert first == second


class TestFailureTracebacks:
    """Satellite: SweepError keeps the worker-side traceback."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_attaches_worker_traceback(self, tmp_path, workers):
        from repro.obs import read_events

        path = tmp_path / "ledger.jsonl"
        executor = Executor(ExecutorConfig(workers=workers, ledger_path=str(path)))
        with pytest.raises(SweepError) as info:
            executor.run(_specs([9], boom=True))
        (failure,) = info.value.failures
        # One outcome path for both pools: format_exception follows the
        # __cause__ chain, so a worker-side stack survives the pool.
        assert "RuntimeError: boom 9" in failure.traceback
        assert "_square_point" in failure.traceback  # the actual frame
        assert "RuntimeError: boom 9" in str(info.value)
        assert failure.retries == RETRIES
        # The parent writes every point_end from the attempt's own
        # record: error, worker-side traceback, wall time, the pid that
        # ran it (as its point_start says) and its resource peaks.
        starts = read_events(str(path), kind="point_start")
        rows = read_events(str(path), kind="point_end")
        assert [row["attempt"] for row in rows] == [0, 1]
        for start, row in zip(starts, rows):
            assert row["error"] == "RuntimeError: boom 9"
            assert "_square_point" in row["traceback"]
            assert "RuntimeError: boom 9" in row["traceback"]
            assert row["wall_s"] > 0
            assert row["worker"] == start["worker"] != 0
            assert row["maxrss_kb"] > 0
        if workers == 1:
            assert rows[-1]["worker"] == os.getpid()
        # The outcome carries the last attempt's real worker and time.
        assert failure.worker == rows[-1]["worker"]
        assert failure.wall_s > 0
        assert row["wall_s"] == round(failure.wall_s, 6)

    def test_success_has_no_traceback_field(self, tmp_path):
        from repro.obs import read_events

        path = tmp_path / "ledger.jsonl"
        executor = Executor(ExecutorConfig(ledger_path=str(path)))
        executor.run(_specs([2]))
        (row,) = read_events(str(path), kind="point_end")
        assert "traceback" not in row
        assert "error" not in row
        assert not executor.outcomes[0].traceback


class TestRunLedger:
    """Tentpole: the executor streams sweep status into the run ledger."""

    def _fig2_spec(self):
        return PointSpec.make(
            "fig2",
            "fig2",
            0,
            params={"n": 10, "file_tokens": 8, "trial": 0},
            seed=1,
        )

    def test_serial_sweep_writes_full_lifecycle(self, tmp_path):
        from repro.obs import read_events
        from repro.obs.live import LedgerState

        path = tmp_path / "ledger.jsonl"
        Executor(ExecutorConfig(ledger_path=str(path))).run(_specs([1, 2]))
        kinds = [e["event"] for e in read_events(str(path))]
        assert kinds == [
            "sweep_start",
            "point_start",
            "point_end",
            "point_start",
            "point_end",
            "sweep_end",
        ]
        state = LedgerState.from_ledger(str(path))
        assert state.start["figure"] == "testfig"
        assert state.expected_points == 2
        assert state.counts() == {"done": 2, "failed": 0, "running": 0}
        assert state.end["ok"] is True
        assert state.end["cached"] == 0
        for point in state.points.values():
            assert point.cache == "miss"
            assert point.worker == os.getpid()
            assert point.wall_s is not None

    def test_traces_byte_identical_with_monitoring_on_and_off(self, tmp_path):
        # The contract: wall-clock and resource fields live ONLY in the
        # ledger; the trace files must not change by a single byte when
        # monitoring (ledger + profile) is switched on.
        spec = self._fig2_spec()
        plain_dir = tmp_path / "plain"
        monitored_dir = tmp_path / "monitored"
        plain = Executor(ExecutorConfig(trace_dir=str(plain_dir)))
        monitored = Executor(
            ExecutorConfig(
                trace_dir=str(monitored_dir),
                ledger_path=str(tmp_path / "ledger.jsonl"),
                profile=True,
            )
        )
        assert plain.run([spec]) == monitored.run([spec])
        (plain_file,) = sorted(plain_dir.iterdir())
        (monitored_file,) = sorted(monitored_dir.iterdir())
        assert plain_file.read_bytes() == monitored_file.read_bytes()

    def test_disabled_monitoring_leaves_no_ledger(self, tmp_path):
        Executor(ExecutorConfig()).run(_specs([3]))
        assert list(tmp_path.iterdir()) == []

    def test_cache_hits_closed_by_parent(self, tmp_path):
        from repro.obs.live import LedgerState

        cache_config = ExecutorConfig(use_cache=True, cache_dir=str(tmp_path))
        Executor(cache_config).run(_specs([5]))
        path = tmp_path / "ledger.jsonl"
        warm = Executor(
            ExecutorConfig(
                use_cache=True, cache_dir=str(tmp_path), ledger_path=str(path)
            )
        )
        warm.run(_specs([5]))
        state = LedgerState.from_ledger(str(path))
        (point,) = state.points.values()
        assert point.status == "done"
        assert point.cache == "hit"
        assert point.wall_s == 0.0
        assert state.end["cached"] == 1

    def test_failing_sweep_ledger_matches_outcomes(self, tmp_path):
        # In a seeded failing sweep, the ledger's final state (after
        # attempt supersession) and the executor's outcomes tell the
        # same story — same verdicts, same error, attempts == retries.
        from repro.obs import read_events
        from repro.obs.live import LedgerState

        ledger_path = tmp_path / "ledger.jsonl"
        executor = Executor(ExecutorConfig(ledger_path=str(ledger_path)))
        boom = PointSpec.make(
            "testfig",
            "_test_square",
            1,
            params={"value": 9, "boom": True},
            seed=101,
        )
        with pytest.raises(SweepError):
            executor.run(_specs([1]) + [boom])

        # Both attempts of the failing point hit the ledger; the reducer
        # keeps only the last one.
        starts = read_events(str(ledger_path), kind="point_start")
        assert [e["attempt"] for e in starts if e["index"] == 1] == [0, 1]
        state = LedgerState.from_ledger(str(ledger_path))
        assert state.end["ok"] is False

        outcomes = {o.spec.index: o for o in executor.outcomes}
        for point in state.points.values():
            outcome = outcomes[point.index]
            assert (point.status == "done") == outcome.ok
            assert point.seed == outcome.spec.seed
            if point.status == "failed":
                assert point.attempt == outcome.retries == 1
                assert point.error == outcome.error
                assert "boom 9" in point.error
            else:
                assert point.wall_s == round(outcome.wall_s, 6)

    def test_monitored_serial_sweep_starts_no_thread(self, tmp_path):
        before = threading.active_count()
        config = ExecutorConfig(ledger_path=str(tmp_path / "ledger.jsonl"), profile=True)
        (result,) = Executor(config).run([PointSpec.make("f", "_test_threads", 0, {})])
        assert result["threads"] == before

    def test_interrupted_sweep_is_closed_by_parent(self, tmp_path):
        # An exception escaping run() (here a KeyboardInterrupt in the
        # second of three serial points) still fails the open point,
        # ends the sweep with ok: false and closes the ledger, so watch
        # stops at once instead of polling forever.
        from repro.obs import read_events
        from repro.obs.live import LedgerState, watch

        path = tmp_path / "ledger.jsonl"
        specs = [
            PointSpec.make("testfig", "_test_interrupt", i, {"interrupt": i == 1}, seed=i)
            for i in range(3)
        ]
        executor = Executor(ExecutorConfig(ledger_path=str(path)))
        with pytest.raises(KeyboardInterrupt):
            executor.run(specs)
        events = read_events(str(path))
        assert events[-1]["event"] == "sweep_end"
        assert events[-1]["ok"] is False
        assert events[-1]["done"] == 1 and events[-1]["failed"] == 1
        # The third point was never submitted, so it was never started.
        assert [e["index"] for e in events if e["event"] == "point_start"] == [0, 1]
        state = LedgerState.from_ledger(str(path))
        assert state.counts() == {"done": 1, "failed": 1, "running": 0}
        (failed,) = state.by_status("failed")
        assert failed.index == 1
        assert failed.error.startswith("KeyboardInterrupt")
        assert [(o.spec.index, o.ok) for o in executor.outcomes] == [(0, True), (1, False)]

        polls = []

        def sleep(_interval):
            polls.append(_interval)
            if len(polls) > 3:
                raise AssertionError("watch kept polling an ended sweep")

        result = watch(str(path), sleep=sleep)
        assert result.finished
        assert result.exit_code == 1
        assert polls == []

    def test_parallel_sweep_ledger_is_complete(self, tmp_path):
        from repro.obs.live import LedgerState

        path = tmp_path / "ledger.jsonl"
        Executor(
            ExecutorConfig(workers=2, ledger_path=str(path))
        ).run(_specs([1, 2, 3]))
        state = LedgerState.from_ledger(str(path))
        assert state.counts() == {"done": 3, "failed": 0, "running": 0}
        assert state.start["workers"] == 2
        assert state.end["ok"] is True

    def test_profile_merges_workers_and_rides_sweep_end(self, tmp_path):
        from repro.obs import read_events

        path = tmp_path / "ledger.jsonl"
        executor = Executor(
            ExecutorConfig(ledger_path=str(path), profile=True)
        )
        executor.run([self._fig2_spec()])
        snap = executor.profile.snapshot()
        # The fig2 point runs real engines; their ambient phase timers
        # must surface in the merged sweep profile.
        assert snap["phases"]["kernel_apply"]["calls"] > 0
        (end,) = read_events(str(path), kind="sweep_end")
        assert end["profile"] == snap

    def test_each_sweep_end_profiles_only_its_own_sweep(self, tmp_path):
        from repro.obs import read_events

        def profiles(path):
            return [e["profile"] for e in read_events(str(path), kind="sweep_end")]

        sweeps = ([self._fig2_spec()], _specs([4]))
        shared_path = tmp_path / "shared.jsonl"
        shared = Executor(ExecutorConfig(ledger_path=str(shared_path), profile=True))
        alone = []
        for i, specs in enumerate(sweeps):
            shared.run(specs)
            path = tmp_path / f"alone-{i}.jsonl"
            Executor(ExecutorConfig(ledger_path=str(path), profile=True)).run(specs)
            alone.extend(profiles(path))
        together = profiles(shared_path)
        assert len(together) == len(alone) == 2
        for mixed, single in zip(together, alone):
            assert mixed["counters"] == single["counters"]
            assert {k: v["calls"] for k, v in mixed["phases"].items()} == {
                k: v["calls"] for k, v in single["phases"].items()
            }
        # The second sweep computes no engine steps of its own.
        assert together[0]["counters"]["steps"] > 0
        assert "steps" not in together[1]["counters"]
        # Executor.profile still folds every sweep.
        assert shared.profile.snapshot()["counters"] == together[0]["counters"]

    def test_two_sweeps_into_one_ledger_fold_to_the_latest(self, tmp_path):
        from repro.obs import read_events
        from repro.obs.live import LedgerState

        path = tmp_path / "ledger.jsonl"
        executor = Executor(ExecutorConfig(ledger_path=str(path)))
        executor.run(_specs([1]))
        executor.run(_specs([2, 3, 4, 5]))
        events = read_events(str(path))
        state = LedgerState()
        state.apply_all(events)
        assert state.expected_points == 4
        assert state.counts() == {"done": 4, "failed": 0, "running": 0}
        assert state.end["points"] == 4
        # Mid-way through the second sweep: one of four points done, and
        # the first sweep's end and point (same key) are not carried over.
        second_start = [e["event"] for e in events].index("sweep_start", 1)
        state = LedgerState()
        state.apply_all(events[: second_start + 3])
        assert state.end is None
        assert state.counts() == {"done": 1, "failed": 0, "running": 0}
        summary = state.summary(now=state.start["started_unix"] + 1.0)
        assert summary["finished"] is False
        assert summary["eta_s"] > 0.0

    def test_unprofiled_sweep_keeps_profile_empty(self, tmp_path):
        executor = Executor(
            ExecutorConfig(ledger_path=str(tmp_path / "l.jsonl"))
        )
        executor.run([self._fig2_spec()])
        assert executor.profile.snapshot()["phases"] == {}

    def test_dead_worker_fails_unfinished_points_and_ends_sweep(self, tmp_path):
        # A worker that exits without raising breaks the whole pool: no
        # retry can run, so every unfinished point fails with the pool's
        # error, run() raises SweepError, and the ledger still ends.
        from repro.obs import read_events
        from repro.obs.live import LedgerState

        path = tmp_path / "ledger.jsonl"
        specs = [
            PointSpec.make("testfig", "_test_exit", i, {"die": i == 1}, seed=i)
            for i in range(3)
        ]
        executor = Executor(ExecutorConfig(workers=2, ledger_path=str(path)))
        with pytest.raises(SweepError) as info:
            executor.run(specs)
        failed = {o.spec.index for o in info.value.failures}
        assert 1 in failed
        for outcome in info.value.failures:
            assert outcome.error.startswith("BrokenProcessPool")
            assert outcome.worker == 0
        assert sorted(o.spec.index for o in executor.outcomes) == [0, 1, 2]
        (end,) = read_events(str(path), kind="sweep_end")
        assert end["ok"] is False
        assert end["failed"] == len(failed)
        # The parent closes the points the dead pool left open.
        counts = LedgerState.from_ledger(str(path)).counts()
        assert counts["running"] == 0
        assert counts["done"] + counts["failed"] == 3

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_result_that_is_not_json_fails_the_point(self, tmp_path, use_cache):
        from repro.obs import read_events

        path = tmp_path / "ledger.jsonl"
        cache = tmp_path / "cache"
        config = ExecutorConfig(
            use_cache=use_cache, cache_dir=str(cache), ledger_path=str(path)
        )
        spec = PointSpec.make("testfig", "_test_set", 0, {}, seed=0)
        with pytest.raises(SweepError) as info:
            Executor(config).run([spec])
        (failure,) = info.value.failures
        assert failure.retries == RETRIES
        assert failure.error.startswith("TypeError: point function '_test_set'")
        assert "not JSON" in failure.error
        assert not cache.exists() or list(cache.rglob("*")) == []
        ends = read_events(str(path), kind="point_end")
        assert [end["ok"] for end in ends] == [False] * (RETRIES + 1)
        (end,) = read_events(str(path), kind="sweep_end")
        assert end["ok"] is False and end["failed"] == 1

    def test_pool_broken_between_submissions_fails_the_rest(self, tmp_path, monkeypatch):
        # A (re)submission can find the pool already broken by another
        # point's worker; that point fails with the pool's error too.
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        from repro.obs import read_events

        real_submit = concurrent.futures.ProcessPoolExecutor.submit
        submitted = []

        def submit_then_break(pool, *args, **kwargs):
            submitted.append(args[1].index)
            if len(submitted) > 1:
                raise BrokenProcessPool("pool broke")
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "submit", submit_then_break
        )
        path = tmp_path / "ledger.jsonl"
        executor = Executor(ExecutorConfig(workers=2, ledger_path=str(path)))
        with pytest.raises(SweepError) as info:
            executor.run(_specs([1, 2, 3]))
        assert [o.spec.index for o in info.value.failures] == [1, 2]
        assert all(o.error == "BrokenProcessPool: pool broke" for o in info.value.failures)
        assert [o.ok for o in sorted(executor.outcomes, key=lambda o: o.spec.index)] == [
            True,
            False,
            False,
        ]
        (end,) = read_events(str(path), kind="sweep_end")
        assert end["ok"] is False and end["failed"] == 2


class TestPerPointTraces:
    """Satellite: trace_dir writes one deterministic trace per point."""

    def test_fig2_point_traces_serial_vs_parallel_byte_identical(self, tmp_path):
        fig2 = [
            PointSpec.make(
                "fig2",
                "fig2",
                0,
                params={"n": 10, "file_tokens": 8, "trial": 0},
                seed=1,
            )
        ]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        Executor(ExecutorConfig(trace_dir=str(serial_dir))).run(fig2)
        Executor(ExecutorConfig(workers=2, trace_dir=str(parallel_dir))).run(fig2)
        (serial_file,) = sorted(serial_dir.iterdir())
        (parallel_file,) = sorted(parallel_dir.iterdir())
        assert serial_file.name == parallel_file.name == "fig2-fig2-0000.jsonl"
        assert serial_file.read_bytes() == parallel_file.read_bytes()

    def test_point_trace_contains_traced_runs(self, tmp_path):
        from repro.obs import read_events

        fig2 = [
            PointSpec.make(
                "fig2",
                "fig2",
                0,
                params={"n": 10, "file_tokens": 8, "trial": 0},
                seed=1,
            )
        ]
        Executor(ExecutorConfig(trace_dir=str(tmp_path))).run(fig2)
        events = read_events(str(tmp_path / "fig2-fig2-0000.jsonl"))
        kinds = {e["event"] for e in events}
        assert events[0]["event"] == "trace_header"
        assert events[0]["figure"] == "fig2"
        assert {"run_start", "step", "run_end"} <= kinds
        # One run per heuristic of the trial, stamped by the sink.
        starts = [e for e in events if e["event"] == "run_start"]
        assert [e["run"] for e in starts] == list(range(len(starts)))

    def test_no_trace_dir_leaves_no_files(self, tmp_path):
        Executor(ExecutorConfig()).run(_specs([2]))
        assert list(tmp_path.iterdir()) == []
