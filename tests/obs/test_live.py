"""Live monitoring: ledger tail reads, ledger reducer, dashboard, watch."""

from __future__ import annotations

import io
import random
from typing import Any, Dict, List, Optional

from repro.heuristics import HEURISTIC_FACTORIES
from repro.obs import (
    JsonlTracer,
    dump_event,
    make_event,
    read_events,
    read_events_tail,
)
from repro.obs.analyze import scan_paths
from repro.obs.live import LedgerState, LedgerWriter, render_dashboard, watch
from repro.sim import run_heuristic
from repro.topology import random_graph
from repro.workloads import single_file
from tests.conftest import complete_event

import pytest


def _line(kind: str, fields: Dict[str, Any]) -> str:
    return dump_event(complete_event(kind, **fields)) + "\n"


def _ledger_lines(
    *,
    points: int = 2,
    done: int = 2,
    failed: int = 0,
    heartbeat_s: float = 1.0,
    with_end: bool = True,
    started_unix: float = 100.0,
) -> List[str]:
    """A canonical single-worker sweep lifecycle as ledger lines."""
    lines = [
        _line(
            "sweep_start",
            {
                "figure": "f",
                "points": points,
                "workers": 1,
                "started_unix": started_unix,
                "heartbeat_s": heartbeat_s,
            },
        )
    ]
    for i in range(done + failed):
        ok = i < done
        lines.append(
            _line(
                "point_start",
                {
                    "figure": "f",
                    "kind": "k",
                    "index": i,
                    "seed": i,
                    "attempt": 0,
                    "worker": 42,
                    "started_unix": started_unix + i,
                },
            )
        )
        end = {
            "figure": "f",
            "kind": "k",
            "index": i,
            "seed": i,
            "attempt": 0,
            "worker": 42,
            "ok": ok,
            "cache": "miss",
            "wall_s": 0.5 + i,
        }
        if not ok:
            end["error"] = "RuntimeError: boom"
        lines.append(_line("point_end", end))
    if with_end:
        lines.append(
            _line(
                "sweep_end",
                {
                    "figure": "f",
                    "points": points,
                    "done": done,
                    "failed": failed,
                    "cached": 0,
                    "ok": failed == 0,
                    "wall_s": 2.5,
                },
            )
        )
    return lines


class TestReadEventsTail:
    def test_partial_trailing_line_left_for_next_poll(self, tmp_path):
        path = tmp_path / "t.jsonl"
        whole = _line("step", {"step": 0})
        torn = _line("step", {"step": 1})
        path.write_text(whole + torn[:10])
        events, clean = read_events_tail(str(path))
        assert [e["step"] for e in events] == [0]
        assert clean == len(whole.encode())
        # The writer finishes the line; the next poll picks it up alone.
        path.write_text(whole + torn)
        events, clean = read_events_tail(str(path), start=clean)
        assert [e["step"] for e in events] == [1]
        assert clean == len((whole + torn).encode())

    def test_offset_resume_sees_only_new_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_line("run_start", {}))
        _, clean = read_events_tail(str(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(_line("run_end", {"success": True}))
        events, _ = read_events_tail(str(path), start=clean)
        assert [e["event"] for e in events] == ["run_end"]

    def test_file_with_no_newline_yet_returns_nothing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"half')
        assert read_events_tail(str(path)) == ([], 0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"torn\n', "complete line is not JSON"),
            ('{"no": "envelope"}\n', "record lacks the schema envelope"),
        ],
    )
    def test_corrupt_line_error_names_its_own_offset(self, tmp_path, bad, message):
        path = tmp_path / "l.jsonl"
        lines = _ledger_lines(with_end=False)[:3]
        path.write_text("".join(lines) + bad)
        # The broken fourth line starts after the three good ones.
        at = len("".join(lines).encode())
        where = f"l.jsonl@{at}: {message}"
        with pytest.raises(ValueError, match=where):
            read_events_tail(str(path))
        with pytest.raises(ValueError, match=where):
            LedgerState.from_ledger(str(path))
        # Resuming after the first line still names the absolute offset.
        with pytest.raises(ValueError, match=where):
            read_events_tail(str(path), start=len(lines[0].encode()))


class TestLedgerWriter:
    def test_round_trip_through_read_events(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with LedgerWriter(str(path)) as ledger:
            ledger.write(
                make_event(
                    "sweep_start",
                    {"figure": "f", "points": 1, "workers": 1, "started_unix": 1.0},
                )
            )
        (event,) = read_events(str(path))
        assert event["event"] == "sweep_start"
        assert event["points"] == 1

    def test_appends_across_independent_writers(self, tmp_path):
        # Each worker opens its own appending writer; lines interleave whole.
        path = tmp_path / "ledger.jsonl"
        for i in range(2):
            with LedgerWriter(str(path)) as ledger:
                ledger.write(complete_event("point_heartbeat", index=i))
        assert [e["index"] for e in read_events(str(path))] == [0, 1]

    def test_rejects_bare_dicts_and_closed_writer(self, tmp_path):
        ledger = LedgerWriter(str(tmp_path / "ledger.jsonl"))
        with pytest.raises(ValueError, match="schema envelope"):
            ledger.write({"no": "envelope"})
        ledger.close()
        with pytest.raises(ValueError, match="closed"):
            ledger.write(complete_event("sweep_end"))


class TestLedgerState:
    def _fold(self, lines: List[str]) -> LedgerState:
        import json

        state = LedgerState()
        state.apply_all([json.loads(line) for line in lines])
        return state

    def test_lifecycle_counts_and_views(self):
        state = self._fold(_ledger_lines(points=3, done=2, failed=1))
        assert state.expected_points == 3
        assert state.counts() == {"done": 2, "failed": 1, "running": 0}
        (bad,) = state.by_status("failed")
        assert bad.index == 2
        assert bad.error == "RuntimeError: boom"
        # A finished sweep reports its recorded wall time, not the clock.
        assert state.elapsed_s(now=999.0) == 2.5
        assert state.eta_s(now=999.0) == 0.0
        assert state.throughput(now=999.0) == pytest.approx(3 / 2.5)

    def test_running_point_and_eta_from_throughput(self):
        lines = _ledger_lines(points=3, done=1, with_end=False)
        lines.append(
            _line(
                "point_start",
                {
                    "figure": "f",
                    "kind": "k",
                    "index": 2,
                    "seed": 2,
                    "attempt": 0,
                    "worker": 43,
                    "started_unix": 104.0,
                },
            )
        )
        state = self._fold(lines)
        assert state.counts() == {"done": 1, "failed": 0, "running": 1}
        # 1 finished in 5s of sweep time -> 0.2/s; 2 remaining -> 10s.
        assert state.elapsed_s(now=105.0) == 5.0
        assert state.eta_s(now=105.0) == pytest.approx(10.0)
        # The in-flight point ranks in slowest by time since its start.
        (top, *_rest) = state.slowest(now=105.0)
        assert top[1].status == "done" or top[0] >= 1.0

    def test_retry_supersedes_and_stale_events_drop(self):
        base = {"figure": "f", "kind": "k", "index": 0}
        state = LedgerState()
        state.apply(
            make_event(
                "point_start",
                {**base, "seed": 9, "attempt": 0, "worker": 1, "started_unix": 10.0},
            )
        )
        state.apply(
            make_event(
                "point_end",
                {
                    **base,
                    "seed": 9,
                    "attempt": 0,
                    "worker": 1,
                    "ok": False,
                    "cache": "miss",
                    "wall_s": 1.0,
                    "error": "boom",
                },
            )
        )
        # The retry resets the point: running again, no stale error.
        state.apply(
            make_event(
                "point_start",
                {**base, "seed": 9, "attempt": 1, "worker": 2, "started_unix": 12.0},
            )
        )
        (point,) = state.points.values()
        assert point.status == "running"
        assert point.attempt == 1
        assert point.error is None
        # A straggler line from the superseded attempt is ignored.
        state.apply(
            make_event(
                "point_heartbeat",
                {**base, "attempt": 0, "worker": 1, "elapsed_s": 9.9},
            )
        )
        assert point.heartbeat_elapsed_s is None
        assert state.ignored == 1
        state.apply(
            make_event(
                "point_end",
                {
                    **base,
                    "seed": 9,
                    "attempt": 1,
                    "worker": 2,
                    "ok": True,
                    "cache": "miss",
                    "wall_s": 2.0,
                },
            )
        )
        assert point.status == "done"
        assert state.counts() == {"done": 1, "failed": 0, "running": 0}

    def test_stale_needs_declared_cadence_and_quiet_heartbeat(self):
        lines = _ledger_lines(points=2, done=1, heartbeat_s=1.0, with_end=False)
        lines.append(
            _line(
                "point_start",
                {
                    "figure": "f",
                    "kind": "k",
                    "index": 1,
                    "seed": 1,
                    "attempt": 0,
                    "worker": 9,
                    "started_unix": 100.0,
                },
            )
        )
        lines.append(
            _line(
                "point_heartbeat",
                {
                    "figure": "f",
                    "kind": "k",
                    "index": 1,
                    "attempt": 0,
                    "worker": 9,
                    "elapsed_s": 2.0,
                    "maxrss_kb": 5000,
                },
            )
        )
        state = self._fold(lines)
        # Heard at 102.0; quiet for 3 intervals only after 105.0.
        assert state.stale(now=104.0) == []
        (quiet,) = state.stale(now=106.0)
        assert quiet.index == 1
        assert quiet.maxrss_kb == 5000

    def test_second_sweep_start_opens_a_fresh_picture(self):
        # A finished 1-point sweep, then a 4-point sweep in flight that
        # reuses the first sweep's point key (figure, kind, index 0).
        first = _ledger_lines(points=1, done=1)
        second = _ledger_lines(
            points=4, done=2, with_end=False, started_unix=200.0
        )
        state = self._fold(first + second)
        assert state.expected_points == 4
        assert state.end is None
        assert state.counts() == {"done": 2, "failed": 0, "running": 0}
        summary = state.summary(now=205.0)
        assert summary["finished"] is False
        assert summary["ok"] is None
        assert summary["elapsed_s"] == 5.0
        # 2 of 4 done in 5 s -> 2 remaining at 0.4/s.
        assert summary["eta_s"] == pytest.approx(5.0)
        assert [p["started_unix"] for p in summary["slowest"]] == [201.0, 200.0]

    def test_from_ledger_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(_ledger_lines(with_end=False)) + '{"torn')
        state = LedgerState.from_ledger(str(path))
        assert state.end is None
        assert state.counts()["done"] == 2

    def test_non_ledger_kinds_counted_not_applied(self):
        state = LedgerState()
        state.apply(complete_event("step", step=0))
        assert state.points == {}
        assert state.ignored == 1

    def test_summary_is_jsonable(self):
        import json

        state = self._fold(_ledger_lines(points=2, done=1, failed=1))
        summary = state.summary(now=200.0)
        json.dumps(summary)
        assert summary["figure"] == "f"
        assert summary["finished"] is True
        assert summary["ok"] is False
        assert [p["index"] for p in summary["failed_points"]] == [1]


class TestDashboard:
    def test_finished_healthy_sweep(self):
        import json

        state = LedgerState()
        state.apply_all([json.loads(line) for line in _ledger_lines()])
        text = render_dashboard(state, now=200.0)
        assert "sweep f [finished]: 2/2 done, 0 failed, 0 in flight" in text
        assert "elapsed 2.5s" in text
        assert "anomalies: none" in text
        assert "eta" not in text

    def test_running_sweep_shows_in_flight_and_heartbeat(self):
        import json

        lines = _ledger_lines(points=2, done=1, with_end=False)
        lines.append(
            _line(
                "point_start",
                {
                    "figure": "f",
                    "kind": "k",
                    "index": 1,
                    "seed": 1,
                    "attempt": 0,
                    "worker": 7,
                    "started_unix": 103.0,
                },
            )
        )
        lines.append(
            _line(
                "point_heartbeat",
                {
                    "figure": "f",
                    "kind": "k",
                    "index": 1,
                    "attempt": 0,
                    "worker": 7,
                    "elapsed_s": 1.0,
                    "maxrss_kb": 4096,
                },
            )
        )
        state = LedgerState()
        state.apply_all([json.loads(line) for line in lines])
        text = render_dashboard(state, now=105.0)
        assert "[running]" in text
        assert "eta" in text
        assert "f/k[1] on worker 7: 2.0s elapsed" in text
        assert "heartbeat at 1.0s" in text
        assert "rss 4096kB" in text

    def test_failed_points_and_anomalies_sections(self):
        import json

        from repro.obs.analyze.anomaly import Anomaly

        state = LedgerState()
        state.apply_all(
            [json.loads(line) for line in _ledger_lines(done=1, failed=1)]
        )
        anomaly = Anomaly(
            path="t.jsonl",
            run=0,
            heuristic="local",
            kind="failed-run",
            step=None,
            detail="run failed",
        )
        text = render_dashboard(state, anomalies=[anomaly], now=200.0)
        assert "failed:" in text
        assert "f/k[1]: RuntimeError: boom" in text
        assert "anomalies (1):" in text
        assert "[failed-run]" in text


def _real_trace(path: str, max_steps: Optional[int] = None) -> None:
    problem = single_file(random_graph(10, random.Random(2)), file_tokens=5)
    with JsonlTracer(path=path) as tracer:
        run_heuristic(
            problem, HEURISTIC_FACTORIES["local"](), max_steps=max_steps, tracer=tracer
        )


class TestWatch:
    def test_once_snapshot_of_finished_sweep(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(_ledger_lines()))
        out = io.StringIO()
        result = watch(str(path), stream=out, once=True)
        assert result.finished
        assert result.exit_code == 0
        assert "sweep f [finished]: 2/2 done" in out.getvalue()

    def test_failed_sweep_exits_one(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(_ledger_lines(done=1, failed=1)))
        result = watch(str(path), once=True)
        assert result.exit_code == 1

    def test_fail_on_anomaly_exits_two(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("".join(_ledger_lines()))
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            _line("run_start", {"run": 0, "heuristic": "h", "total_deficit": 3})
            + _line("step", {"run": 0, "step": 0, "gained": 1, "deficit": 2})
        )
        result = watch(
            str(ledger),
            trace_paths=[str(torn)],
            once=True,
            fail_on_anomaly=True,
        )
        assert result.finished
        assert [a.kind for a in result.anomalies] == ["truncated-run"]
        assert result.exit_code == 2

    def test_follows_growing_ledger_to_completion(self, tmp_path):
        # The injected sleep doubles as the "other process": each call
        # appends the next chunk, so the loop is fully deterministic.
        path = tmp_path / "ledger.jsonl"
        lines = _ledger_lines()
        path.write_text("".join(lines[:2]))
        chunks = [lines[2:4], lines[4:]]

        def grow(_interval: float) -> None:
            with open(path, "a", encoding="utf-8") as handle:
                handle.writelines(chunks.pop(0))

        out = io.StringIO()
        result = watch(
            str(path),
            stream=out,
            interval=0.0,
            clock=lambda: 200.0,
            sleep=grow,
        )
        assert result.finished
        assert result.polls == 3
        assert not chunks
        # The final frame reflects the completed sweep.
        assert "sweep f [finished]: 2/2 done" in out.getvalue().split("\n\n")[-1]

    def test_once_on_finished_ledger_equals_scan_paths(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("".join(_ledger_lines()))
        traces = tmp_path / "traces"
        traces.mkdir()
        _real_trace(str(traces / "a.jsonl"))
        lines = (traces / "a.jsonl").read_text().splitlines(keepends=True)
        (traces / "b.jsonl").write_text("".join(lines[:-1]))  # no run_end
        failed = tmp_path / "failed.jsonl"
        _real_trace(str(failed), max_steps=1)
        paths = [str(traces), str(failed)]
        out = io.StringIO()
        result = watch(str(ledger), trace_paths=paths, stream=out, once=True)
        posthoc = scan_paths(paths)
        assert {a.kind for a in posthoc} == {"truncated-run", "failed-run"}
        assert [a.as_dict() for a in result.anomalies] == [
            a.as_dict() for a in posthoc
        ]
        for anomaly in posthoc:
            assert anomaly.render() in out.getvalue()

    def test_missing_trace_root_is_not_an_error(self, tmp_path):
        # A sweep served wholly from the cache writes no trace.
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("".join(_ledger_lines()))
        out = io.StringIO()
        result = watch(
            str(ledger),
            trace_paths=[str(tmp_path / "never-written")],
            stream=out,
            once=True,
            fail_on_anomaly=True,
        )
        assert result.anomalies == []
        assert result.exit_code == 0
        assert "anomalies: none" in out.getvalue()

    def test_no_anomalies_before_sweep_end(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("".join(_ledger_lines(with_end=False)))
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            _line("run_start", {"run": 0, "heuristic": "h", "total_deficit": 3})
        )
        result = watch(
            str(ledger), trace_paths=[str(torn)], once=True, fail_on_anomaly=True
        )
        assert not result.finished
        assert result.anomalies == []
        assert result.exit_code == 0

    def test_torn_trace_line_fails_like_trace_scan(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("".join(_ledger_lines()))
        trace = tmp_path / "t.jsonl"
        _real_trace(str(trace))
        lines = trace.read_text().count("\n")
        with open(trace, "a", encoding="utf-8") as handle:
            handle.write('{"half')
        with pytest.raises(ValueError, match=f"t.jsonl:{lines + 1}: not JSON"):
            scan_paths([str(trace)])
        with pytest.raises(ValueError, match=f"t.jsonl:{lines + 1}: not JSON"):
            watch(str(ledger), trace_paths=[str(trace)], once=True)
