"""The ``ocd-repro watch`` dashboard: render a sweep's ledger live.

:func:`render_dashboard` is a pure function from a :class:`LedgerState`
snapshot (plus the sweep's trace anomalies) to the dashboard text, so
tests assert on exact output; :func:`watch` is the polling loop around
it.  All output goes to an injected stream — the CLI passes
``sys.stdout``, tests pass a buffer — and the clock and sleep functions
are injectable for deterministic tests.

Only the ledger is followed while the sweep runs.  Once it shows
``sweep_end``, the traces are scanned once with
:func:`repro.obs.analyze.scan_paths`, so the dashboard's anomaly verdict
is ``trace-scan``'s by construction.  A trace root that does not exist
by then is skipped: a sweep served wholly from the cache writes no
trace.

Exit semantics (surfaced as :attr:`WatchResult.exit_code`):

* ``0`` — sweep healthy (or still running in ``--once`` mode).
* ``1`` — the sweep finished with failed points (or ``sweep_end``
  reports ``ok: false``).
* ``2`` — ``fail_on_anomaly`` was set and the trace scan found at least
  one anomaly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, TextIO

from repro.obs.analyze.anomaly import Anomaly, scan_paths
from repro.obs.events import read_events_tail
from repro.obs.live.ledger import LedgerState, PointState

__all__ = ["WatchResult", "render_dashboard", "watch"]


@dataclass
class WatchResult:
    """What one watch session established by the time it returned."""

    state: LedgerState
    anomalies: List[Anomaly] = field(default_factory=list)
    polls: int = 0
    #: Whether the ledger reached ``sweep_end`` while watching.
    finished: bool = False
    fail_on_anomaly: bool = False

    @property
    def exit_code(self) -> int:
        if self.fail_on_anomaly and self.anomalies:
            return 2
        counts = self.state.counts()
        end = self.state.end
        if counts["failed"] or (end is not None and not end.get("ok")):
            return 1
        return 0


def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _point_label(point: PointState) -> str:
    label = f"{point.figure}/{point.kind}[{point.index}]"
    if point.attempt:
        label += f" attempt {point.attempt}"
    return label


def render_dashboard(
    state: LedgerState,
    anomalies: Sequence[Anomaly] = (),
    now: float = 0.0,
) -> str:
    """The dashboard text for one snapshot (no trailing newline)."""
    lines: List[str] = []
    counts = state.counts()
    figure = state.start["figure"] if state.start else "?"
    expected = state.expected_points
    total = str(expected) if expected is not None else "?"
    status = "finished" if state.end is not None else "running"
    head = (
        f"sweep {figure} [{status}]: {counts['done']}/{total} done, "
        f"{counts['failed']} failed, {counts['running']} in flight"
    )
    rate = state.throughput(now)
    parts = [f"elapsed {_fmt_s(state.elapsed_s(now))}"]
    if rate is not None:
        parts.append(f"{rate:.2f} pt/s")
    if state.end is None:
        parts.append(f"eta {_fmt_s(state.eta_s(now))}")
    lines.append(f"{head}   ({', '.join(parts)})")

    running = state.by_status("running")
    if running:
        lines.append("in flight:")
        for point in running:
            since = (
                _fmt_s(now - point.started_unix)
                if point.started_unix is not None
                else "?"
            )
            beat = (
                f", heartbeat at {_fmt_s(point.heartbeat_elapsed_s)}"
                if point.heartbeat_elapsed_s is not None
                else ""
            )
            rss = f", rss {point.maxrss_kb}kB" if point.maxrss_kb else ""
            lines.append(
                f"  {_point_label(point)} on worker {point.worker}: "
                f"{since} elapsed{beat}{rss}"
            )

    slowest = state.slowest(now)
    if slowest:
        lines.append("slowest:")
        for elapsed, point in slowest:
            tag = point.status if point.status != "running" else "in flight"
            lines.append(f"  {_point_label(point)}: {_fmt_s(elapsed)} ({tag})")

    stale = state.stale(now)
    if stale:
        lines.append("stale (heartbeat overdue):")
        for point in stale:
            lines.append(f"  {_point_label(point)} on worker {point.worker}")

    failed = state.by_status("failed")
    if failed:
        lines.append("failed:")
        for point in failed:
            error = f": {point.error}" if point.error else ""
            lines.append(f"  {_point_label(point)}{error}")

    if anomalies:
        lines.append(f"anomalies ({len(anomalies)}):")
        for anomaly in anomalies:
            lines.append(f"  {anomaly.render()}")
    elif state.end is not None:
        lines.append("anomalies: none")
    return "\n".join(lines)


def watch(
    ledger_path: str,
    trace_paths: Sequence[str] = (),
    stream: Optional[TextIO] = None,
    once: bool = False,
    interval: float = 1.0,
    fail_on_anomaly: bool = False,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
) -> WatchResult:
    """Follow a sweep's ledger to completion, then scan its traces.

    Each poll folds newly appended ledger events into the state and
    renders the dashboard to ``stream``.  The loop ends when the ledger
    shows ``sweep_end`` (the existing ``trace_paths`` are then scanned
    post hoc) or after the first render with ``once=True``.  ``once``
    against an already-finished ledger still scans — that is the CI
    snapshot mode.
    """
    state = LedgerState()
    result = WatchResult(state=state, fail_on_anomaly=fail_on_anomaly)
    offset = 0
    while True:
        events, offset = read_events_tail(ledger_path, start=offset)
        state.apply_all(events)
        result.polls += 1
        if state.end is not None:
            result.finished = True
            result.anomalies = scan_paths(
                [path for path in trace_paths if os.path.exists(path)]
            )
        if stream is not None:
            if not once and result.polls > 1:
                stream.write("\n")
            stream.write(render_dashboard(state, result.anomalies, now=clock()))
            stream.write("\n")
            stream.flush()
        if once or result.finished:
            return result
        sleep(interval)
