"""The run ledger: durable sweep status stream and its state reducer.

The ledger is an append-only JSONL file next to a sweep's outputs.  A
worker process appends ``point_start`` when it begins a point; the
parent executor writes everything else: ``sweep_start``, one
``point_end`` per attempt (computed, cached, failed, or failed with a
broken pool or an interrupted sweep), and ``sweep_end``.  Every record
is one :func:`repro.obs.events.dump_event` line written with a single
``write()`` call on a handle opened in append mode, so POSIX
``O_APPEND`` atomicity keeps concurrent appends from many processes
intact without any locking.

A point with a ``point_start`` but no ``point_end`` is in flight:
:class:`LedgerState` ranks it by the time since its start, so a point
that runs long surfaces in ``ocd-repro watch``'s "slowest" list while
it runs.  A sweep whose parent process is killed writes no more rows:
its open points stay in flight with a growing elapsed time, and nothing
flags them stale.

:class:`LedgerState` is a pure fold over ledger events (no I/O, no
clock) so tests can drive it from literal event lists; the only
wall-clock input is the explicit ``now`` argument of the derived views.
Retried points supersede their stale events by ``attempt`` index: a
``point_start`` with a higher attempt replaces the failed attempt's
state, and events from a lower attempt than the one already seen are
ignored.  One ledger may hold many sweeps (appended across runs, or
several ``Executor.run`` calls of one figure): each ``sweep_start``
opens a fresh picture, so the state always describes the latest sweep.
Rows of a kind the reducer does not know (a trace event, or a kind
only older ledgers hold) are counted in ``ignored``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, TextIO, Tuple

from repro.obs.events import dump_event, is_event, read_events_tail

__all__ = ["LedgerWriter", "LedgerState", "PointState"]

JsonDict = Dict[str, Any]


class LedgerWriter:
    """Append-only ledger handle: one atomic line per event.

    Safe to construct independently in every worker process — append
    mode plus single-``write()`` lines is the whole concurrency story.
    The writer never buffers: each event is flushed immediately so a
    follower sees it on the next poll and a crash loses at most the
    line being written (which :func:`read_events_tail` tolerates).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[TextIO] = open(path, "a", encoding="utf-8")

    def write(self, event: Mapping[str, Any]) -> None:
        """Append one schema-stamped event (build it with ``make_event``)."""
        if not is_event(event):
            raise ValueError(
                "refusing to write a record without the schema envelope; "
                "build it with repro.obs.make_event"
            )
        if self._handle is None:
            raise ValueError(f"ledger {self.path} is closed")
        self._handle.write(dump_event(event) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class PointState:
    """The latest known state of one sweep point in the ledger."""

    figure: str
    kind: str
    index: int
    seed: int = 0
    attempt: int = 0
    worker: int = 0
    status: str = "running"  # running | done | failed
    cache: str = ""
    started_unix: Optional[float] = None
    wall_s: Optional[float] = None
    error: Optional[str] = None
    maxrss_kb: Optional[int] = None
    cpu_s: Optional[float] = None

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.figure, self.kind, self.index)

    def as_dict(self) -> JsonDict:
        """JSON-able view (``None`` fields omitted, keys stable)."""
        out: JsonDict = {
            "figure": self.figure,
            "kind": self.kind,
            "index": self.index,
            "seed": self.seed,
            "attempt": self.attempt,
            "worker": self.worker,
            "status": self.status,
        }
        for name in (
            "cache",
            "started_unix",
            "wall_s",
            "error",
            "maxrss_kb",
            "cpu_s",
        ):
            value = getattr(self, name)
            if value not in (None, ""):
                out[name] = value
        return out


@dataclass
class LedgerState:
    """Pure reducer from ledger events to the current sweep picture."""

    #: The ``sweep_start`` event, once seen.
    start: Optional[JsonDict] = None
    #: The ``sweep_end`` event, once seen.
    end: Optional[JsonDict] = None
    points: Dict[Tuple[str, str, int], PointState] = field(default_factory=dict)
    #: Events whose kind the reducer does not fold, and stale events of
    #: a superseded attempt (tolerated, counted).
    ignored: int = 0

    # -- folding --------------------------------------------------------
    def apply(self, event: Mapping[str, Any]) -> None:
        """Fold one ledger event into the state."""
        kind = event.get("event")
        if kind == "sweep_start":
            self.start = dict(event)
            self.end = None
            self.points = {}
        elif kind == "sweep_end":
            self.end = dict(event)
        elif kind == "point_start":
            point = self._point(event)
            if point is not None:
                point.seed = int(event.get("seed", point.seed))
                point.worker = int(event.get("worker", point.worker))
                point.started_unix = float(event["started_unix"])
                point.status = "running"
        elif kind == "point_end":
            point = self._point(event)
            if point is not None:
                point.seed = int(event.get("seed", point.seed))
                point.worker = int(event.get("worker", point.worker))
                point.status = "done" if event.get("ok") else "failed"
                point.cache = str(event.get("cache", ""))
                point.wall_s = float(event["wall_s"])
                error = event.get("error")
                point.error = str(error) if error is not None else None
                rss = event.get("maxrss_kb")
                if rss is not None:
                    point.maxrss_kb = int(rss)
                cpu = event.get("cpu_s")
                if cpu is not None:
                    point.cpu_s = float(cpu)
        else:
            self.ignored += 1

    def apply_all(self, events: List[JsonDict]) -> None:
        for event in events:
            self.apply(event)

    def _point(self, event: Mapping[str, Any]) -> Optional[PointState]:
        """The point a per-point event belongs to, honoring attempts.

        A higher ``attempt`` resets the point (the retry supersedes the
        failed attempt's end state); a lower attempt's event is stale —
        a straggler line from a superseded worker — and is dropped.
        """
        key = (str(event["figure"]), str(event["kind"]), int(event["index"]))
        attempt = int(event.get("attempt", 0))
        point = self.points.get(key)
        if point is None or attempt > point.attempt:
            point = PointState(
                figure=key[0], kind=key[1], index=key[2], attempt=attempt
            )
            self.points[key] = point
            return point
        if attempt < point.attempt:
            self.ignored += 1
            return None
        return point

    # -- loading --------------------------------------------------------
    @classmethod
    def from_ledger(cls, path: str) -> "LedgerState":
        """Fold a whole ledger file (tolerating a torn final line)."""
        state = cls()
        events, _offset = read_events_tail(path)
        state.apply_all(events)
        return state

    # -- derived views --------------------------------------------------
    @property
    def expected_points(self) -> Optional[int]:
        if self.start is not None:
            return int(self.start["points"])
        return None

    def by_status(self, status: str) -> List[PointState]:
        return sorted(
            (p for p in self.points.values() if p.status == status),
            key=lambda p: p.key,
        )

    def counts(self) -> Dict[str, int]:
        counts = {"done": 0, "failed": 0, "running": 0}
        for point in self.points.values():
            counts[point.status] += 1
        return counts

    def elapsed_s(self, now: float) -> Optional[float]:
        if self.start is None:
            return None
        if self.end is not None:
            return float(self.end["wall_s"])
        return max(0.0, now - float(self.start["started_unix"]))

    def throughput(self, now: float) -> Optional[float]:
        """Completed points per second of sweep wall time."""
        elapsed = self.elapsed_s(now)
        counts = self.counts()
        finished = counts["done"] + counts["failed"]
        if not elapsed or elapsed <= 0 or not finished:
            return None
        return finished / elapsed

    def eta_s(self, now: float) -> Optional[float]:
        """Naive remaining-work estimate from current throughput."""
        if self.end is not None:
            return 0.0
        expected = self.expected_points
        rate = self.throughput(now)
        if expected is None or rate is None:
            return None
        counts = self.counts()
        remaining = expected - counts["done"] - counts["failed"]
        return max(0.0, remaining / rate)

    def slowest(self, now: float, limit: int = 5) -> List[Tuple[float, PointState]]:
        """The points that have consumed the most wall time so far.

        Finished points rank by their ``wall_s``; in-flight points by
        time since their ``point_start`` (so stragglers surface while
        still running).
        """
        ranked: List[Tuple[float, PointState]] = []
        for point in self.points.values():
            if point.wall_s is not None:
                ranked.append((point.wall_s, point))
            elif point.started_unix is not None:
                ranked.append((max(0.0, now - point.started_unix), point))
        ranked.sort(key=lambda item: (-item[0], item[1].key))
        return ranked[:limit]

    def summary(self, now: float) -> JsonDict:
        """JSON-able snapshot of everything the dashboard shows."""
        counts = self.counts()
        return {
            "figure": self.start["figure"] if self.start else None,
            "expected_points": self.expected_points,
            "done": counts["done"],
            "failed": counts["failed"],
            "running": counts["running"],
            "finished": self.end is not None,
            "ok": bool(self.end["ok"]) if self.end else None,
            "elapsed_s": self.elapsed_s(now),
            "throughput_per_s": self.throughput(now),
            "eta_s": self.eta_s(now),
            "slowest": [
                {"elapsed_s": elapsed, **point.as_dict()}
                for elapsed, point in self.slowest(now)
            ],
            "failed_points": [point.as_dict() for point in self.by_status("failed")],
        }
