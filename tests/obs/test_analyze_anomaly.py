"""Sweep-level anomaly scanning over synthetic and real traces."""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Any, Dict, List

from repro.heuristics import HEURISTIC_FACTORIES
from repro.locd.algorithms import FloodThenOptimal
from repro.locd.runner import run_local
from repro.obs import JsonlTracer, RecordingTracer, split_runs
from repro.obs.analyze import (
    BLOCKING_CATEGORIES,
    ScanThresholds,
    blocking_table,
    build_forest,
    scan_events,
    scan_paths,
)
from repro.obs.analyze.causal import dominant_category
from repro.sim import run_heuristic
from repro.topology import random_graph
from repro.topology.named import path_topology
from repro.workloads import single_file


def _run(
    deficits: List[int],
    gains: List[int],
    utils: List[float],
    success: bool = True,
    with_end: bool = True,
) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = [
        {
            "event": "run_start",
            "run": 0,
            "engine": "sim",
            "heuristic": "synthetic",
            "total_deficit": deficits[0] + gains[0],
        }
    ]
    for i, (deficit, gained, util) in enumerate(zip(deficits, gains, utils)):
        events.append(
            {
                "event": "step",
                "run": 0,
                "step": i,
                "gained": gained,
                "deficit": deficit,
                "arc_util": util,
            }
        )
    if with_end:
        events.append(
            {
                "event": "run_end",
                "run": 0,
                "success": success,
                "makespan": len(deficits),
                "bandwidth": sum(gains),
            }
        )
    return events


def _kinds(anomalies) -> List[str]:
    return sorted({a.kind for a in anomalies})


class TestScanEvents:
    def test_clean_run_has_no_anomalies(self):
        events = _run([3, 2, 1, 0], [1, 1, 1, 1], [0.5, 0.5, 0.5, 0.5])
        assert scan_events(events) == []

    def test_long_stall_span_flagged(self):
        events = _run(
            [4, 3, 3, 3, 3, 0],
            [1, 0, 0, 0, 0, 3],
            [0.5, 0.4, 0.4, 0.4, 0.4, 0.5],
        )
        anomalies = scan_events(events)
        stalls = [a for a in anomalies if a.kind == "stall-span"]
        assert len(stalls) == 1
        assert stalls[0].step == 1
        assert "4 consecutive zero-gain steps" in stalls[0].detail

    def test_short_stall_below_threshold_not_flagged(self):
        events = _run([4, 3, 3, 0], [1, 0, 0, 3], [0.5, 0.4, 0.4, 0.5])
        assert [a for a in scan_events(events) if a.kind == "stall-span"] == []

    def test_deficit_plateau_flagged(self):
        # Tokens circulate (gained > 0) but the deficit never moves: the
        # plateau scan catches what the stall scan cannot.
        events = _run(
            [5, 5, 5, 5, 0],
            [1, 1, 1, 1, 5],
            [0.5, 0.5, 0.5, 0.5, 0.5],
        )
        anomalies = scan_events(events)
        plateaus = [a for a in anomalies if a.kind == "deficit-plateau"]
        assert len(plateaus) == 1
        assert plateaus[0].step == 0
        assert "stuck at 5" in plateaus[0].detail

    def test_util_collapse_flagged_only_with_demand(self):
        events = _run(
            [6, 5, 5, 5, 0],
            [1, 0, 0, 0, 5],
            [0.5, 0.0, 0.0, 0.0, 0.5],
        )
        anomalies = scan_events(events)
        collapses = [a for a in anomalies if a.kind == "util-collapse"]
        assert len(collapses) == 1
        assert collapses[0].step == 1
        # Quiet steps after success (deficit 0) are not anomalous.
        done = _run([2, 0, 0, 0], [1, 2, 0, 0], [0.5, 0.5, 0.0, 0.0])
        assert [a for a in scan_events(done) if a.kind == "util-collapse"] == []

    def test_failed_run_flagged(self):
        events = _run([3, 2], [1, 1], [0.5, 0.5], success=False)
        anomalies = scan_events(events)
        assert "failed-run" in _kinds(anomalies)

    def test_truncated_run_flagged(self):
        events = _run([3, 2], [1, 1], [0.5, 0.5], with_end=False)
        anomalies = scan_events(events)
        assert "truncated-run" in _kinds(anomalies)

    def test_thresholds_are_tunable(self):
        events = _run([4, 3, 3, 0], [1, 0, 0, 3], [0.5, 0.4, 0.4, 0.5])
        strict = ScanThresholds(stall_span=2)
        anomalies = scan_events(events, thresholds=strict)
        assert "stall-span" in _kinds(anomalies)

    def test_anomaly_render_names_run_and_step(self):
        events = _run(
            [4, 3, 3, 3, 3, 0],
            [1, 0, 0, 0, 0, 3],
            [0.5, 0.4, 0.4, 0.4, 0.4, 0.5],
        )
        text = scan_events(events, path="x.jsonl")[0].render()
        assert "x.jsonl run 0 (synthetic)" in text
        assert "step 1" in text
        assert "[stall-span]" in text


class TestScanPaths:
    def test_directory_of_traces(self, tmp_path):
        problem = single_file(random_graph(10, random.Random(2)), file_tokens=5)
        for seed in (0, 1):
            with JsonlTracer(path=str(tmp_path / f"s{seed}.jsonl")) as tracer:
                run_heuristic(
                    problem, HEURISTIC_FACTORIES["local"](), seed=seed, tracer=tracer
                )
        # Healthy engine runs on a connected swarm: nothing to flag.
        assert scan_paths([str(tmp_path)]) == []

    def test_mixed_files_and_directories(self, tmp_path):
        bad_dir = tmp_path / "sweep"
        bad_dir.mkdir()
        events = _run([3, 2], [1, 1], [0.5, 0.5], success=False)
        bad = bad_dir / "bad.jsonl"
        bad.write_text(
            "".join(json.dumps({**e, "schema_version": 1}) + "\n" for e in events)
        )
        anomalies = scan_paths([str(bad_dir), str(bad)])
        # Once from the directory walk, once from the explicit file.
        assert [a.kind for a in anomalies] == ["failed-run", "failed-run"]

    def test_non_jsonl_files_ignored_in_directories(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a trace")
        assert scan_paths([str(tmp_path)]) == []


def _locd_stall_events() -> List[Dict[str, Any]]:
    """A LOCD run that stalls: FloodThenOptimal floods knowledge across
    a 6-vertex path before it moves any token."""
    tracer = RecordingTracer()
    problem = single_file(path_topology(6), file_tokens=2)
    run_local(problem, FloodThenOptimal(), tracer=tracer)
    return tracer.events


def _stalls(events) -> List[Any]:
    found = scan_events(events, thresholds=ScanThresholds(stall_span=1))
    return [a for a in found if a.kind == "stall-span"]


class TestAnomalyCauses:
    def test_stall_cause_is_dominant_blocking_category(self):
        events = _locd_stall_events()
        stalls = _stalls(events)
        assert stalls
        _header, (run,) = split_runs(events)
        table = blocking_table(build_forest(run))
        spans = dict(run.stall_spans())
        for anomaly in stalls:
            lo, hi = anomaly.step, spans[anomaly.step]
            counts = Counter(
                category for (_v, step), category in table.items() if lo <= step <= hi
            )
            assert anomaly.cause in BLOCKING_CATEGORIES
            assert anomaly.cause == dominant_category(dict(counts))

    def test_instance_less_trace_has_no_cause(self):
        events = _run(
            [4, 3, 3, 3, 3, 0],
            [1, 0, 0, 0, 0, 3],
            [0.5, 0.4, 0.4, 0.4, 0.4, 0.5],
        )
        stalls = _stalls(events)
        assert stalls
        assert all(a.cause is None for a in stalls)

    def test_dynamic_run_has_no_cause(self):
        events = _locd_stall_events()
        start = next(e for e in events if e["event"] == "run_start")
        start["engine"] = "dynamic"
        stalls = _stalls(events)
        assert stalls
        assert all(a.cause is None for a in stalls)
