"""Tracer protocol, the zero-overhead null default, and trace sinks.

The engines accept any object satisfying :class:`Tracer`.  The contract
that keeps the kernel's speed (the committed ``BENCH_engine.json``
baselines) intact is the ``enabled`` attribute: every engine hoists it
into a local before its step loop and builds *no event payloads at all*
when it is false.  :data:`NULL_TRACER` — the default everywhere — is
permanently disabled, so an untraced run pays one attribute read per
run, not per step.

Sinks:

* :class:`NullTracer` — disabled; the default.  Emit is a no-op even if
  called directly.
* :class:`RecordingTracer` — enabled; collects events in memory.  Used
  by tests and the overhead benchmark.
* :class:`JsonlTracer` — enabled; streams events through the canonical
  :class:`repro.obs.events.EventWriter`, so traces from identical seeds
  are byte-identical.

Engines resolve their tracer at construction time from the *ambient*
tracer (:func:`current_tracer`, set with :func:`activated`) unless one
is passed explicitly.  The ambient mechanism is what lets the sweep
executor trace runs deep inside point functions — including in worker
processes — without threading a tracer through every driver signature.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Protocol, TextIO

from repro.obs.events import EventWriter, make_event

__all__ = [
    "JsonlTracer",
    "NULL_TRACER",
    "NullTracer",
    "RecordingTracer",
    "Tracer",
    "activated",
    "current_tracer",
]


class Tracer(Protocol):
    """What the engines require of a trace sink."""

    #: Engines hoist this before their step loop; when false they build
    #: no event payloads at all.
    enabled: bool

    def emit(self, kind: str, fields: Mapping[str, Any]) -> None:
        """Record one event (see :mod:`repro.obs.events` for kinds)."""


class NullTracer:
    """The disabled tracer: one shared instance, no per-step cost."""

    enabled: bool = False

    def emit(self, kind: str, fields: Mapping[str, Any]) -> None:
        """Discard the event (engines never call this when disabled)."""

    def __repr__(self) -> str:
        return "<NullTracer>"


#: The process-wide disabled tracer; engines default to it.
NULL_TRACER = NullTracer()


class _RunCountingTracer:
    """Shared base: stamps every event with a ``run`` index.

    Engines do not know how many runs share one trace file (a sweep
    point traces every heuristic of a trial into the same sink), so the
    sink assigns the index: it increments on each ``run_start`` and
    stamps the current value on every run-scoped event.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._run = -1

    def emit(self, kind: str, fields: Mapping[str, Any]) -> None:
        if kind == "run_start":
            self._run += 1
        stamped: Dict[str, Any] = dict(fields)
        if kind != "trace_header":
            stamped["run"] = self._run
        self._write(make_event(kind, stamped))

    def _write(self, event: Dict[str, Any]) -> None:
        raise NotImplementedError


class RecordingTracer(_RunCountingTracer):
    """Enabled tracer that collects events in memory (tests, benches)."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Dict[str, Any]] = []

    def _write(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """The recorded events of one kind, in emission order."""
        return [e for e in self.events if e["event"] == kind]


class JsonlTracer(_RunCountingTracer):
    """Enabled tracer streaming canonical JSONL to a file or handle.

    Constructed with a path it owns the handle (use :meth:`close` or the
    context-manager form); constructed with an open handle it only
    writes.  Identical seeds produce byte-identical files because events
    carry no wall-clock or process-identity fields and serialization is
    canonical.
    """

    def __init__(
        self, path: Optional[str] = None, handle: Optional[TextIO] = None
    ) -> None:
        super().__init__()
        if (path is None) == (handle is None):
            raise ValueError("pass exactly one of path or handle")
        self._owned = None
        if path is not None:
            self._owned = open(path, "w", encoding="utf-8")
            handle = self._owned
        assert handle is not None
        self._writer = EventWriter(handle)

    def _write(self, event: Dict[str, Any]) -> None:
        self._writer.write(event)

    def close(self) -> None:
        self._writer.flush()
        if self._owned is not None:
            self._owned.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Ambient tracer
# ----------------------------------------------------------------------
_ambient: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The ambient tracer engines resolve at construction time.

    :data:`NULL_TRACER` unless inside an :func:`activated` block — one
    lookup per *run*, never per step, so the default costs nothing.
    """
    return _ambient


@contextmanager
def activated(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` ambient for the duration of the block.

    Every engine constructed inside the block (including transitively,
    e.g. by a figure point function) records into it.  Not thread-safe
    by design: the sweep executor parallelises with *processes*, and
    each worker activates its own tracer.
    """
    global _ambient
    previous = _ambient
    _ambient = tracer
    try:
        yield tracer
    finally:
        _ambient = previous
