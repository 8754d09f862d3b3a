"""Trace reports: run grouping, stall spans, phases, round-trip."""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.core.problem import Problem
from repro.heuristics import standard_heuristics
from repro.obs import (
    JsonlTracer,
    RecordingTracer,
    read_events,
    render_report,
    render_trace_file,
    split_runs,
)
from repro.sim.engine import run_heuristic
from repro.topology import random_graph
from repro.workloads import single_file
from tests.conftest import complete_event


def _problem(seed: int = 3, n: int = 10, tokens: int = 6) -> Problem:
    return single_file(random_graph(n, random.Random(seed)), file_tokens=tokens)


def _steps(gains_and_deficits):
    return [
        complete_event(
            "step", run=0, step=i, gained=g, deficit=d, sends=1, moves=g,
            arc_util=0.1,
        )
        for i, (g, d) in enumerate(gains_and_deficits)
    ]


class TestTimelineAnalysis:
    def test_stall_spans_merge_consecutive_zero_gain_steps(self):
        events = [
            complete_event("run_start", run=0, total_deficit=10),
            *_steps([(4, 6), (0, 6), (0, 6), (2, 4), (0, 4), (4, 0)]),
        ]
        _header, (timeline,) = split_runs(events)
        assert timeline.stall_spans() == [(1, 2), (4, 4)]

    def test_phases_partition_the_run(self):
        events = [
            complete_event("run_start", run=0, total_deficit=100),
            *_steps([(1, 99), (10, 89), (40, 49), (30, 19), (10, 9), (9, 0)]),
        ]
        _header, (timeline,) = split_runs(events)
        phases = timeline.phases()
        names = [name for name, _lo, _hi, _gain in phases]
        assert names == ["ramp-up", "bulk", "tail"]
        # Phases cover every step exactly once, in order.
        covered = []
        for _name, lo, hi, _gain in phases:
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(6))
        assert sum(gain for *_rest, gain in phases) == 100

    def test_multiple_runs_grouped_by_stamp(self):
        tracer = RecordingTracer()
        problem = _problem()
        for heuristic in standard_heuristics()[:2]:
            run_heuristic(problem, heuristic, seed=7, tracer=tracer)
        _header, timelines = split_runs(tracer.events)
        assert [t.run for t in timelines] == [0, 1]
        assert all(t.end is not None for t in timelines)


class TestRendering:
    def test_report_round_trip_from_trace_file(self, tmp_path):
        problem = _problem()
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path=str(path)) as tracer:
            tracer.emit("trace_header", {"scenario": "unit", "seed": 7})
            results = [
                run_heuristic(problem, h, seed=7, tracer=tracer)
                for h in standard_heuristics()
            ]
        text = render_trace_file(str(path))
        assert "scenario=unit" in text
        for result in results:
            assert f"makespan={result.makespan}" in text
        for heuristic in standard_heuristics():
            assert heuristic.name in text
        assert "convergence" in text
        assert "stall spans" in text
        assert "phases:" in text
        assert "arc utilization" in text

    def test_truncated_trace_flagged(self):
        events = [
            complete_event(
                "run_start", run=0, heuristic="x", problem="p", total_deficit=4
            ),
            *_steps([(2, 2)]),
        ]
        text = render_report(events)
        assert "truncated" in text

    def test_empty_trace(self):
        assert "no runs" in render_report([])

    def test_report_ignores_ledger_events(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with JsonlTracer(path=str(path)) as tracer:
            run_heuristic(
                _problem(), standard_heuristics()[0], seed=7, tracer=tracer
            )
        events = read_events(str(path))
        events.append(complete_event("point_end", figure="f", ok=True))
        text = render_report(events)
        assert "run 0" in text


class TestReportCli:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_missing_trace_exits_two(self, tmp_path, capsys, fmt):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["report", missing, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert "report failed:" in captured.err
        assert captured.out == ""
