"""``repro.obs`` — run traces, metrics, profiling, and library logging.

The observability layer for every simulation loop in the repository
(see ``docs/OBSERVABILITY.md`` for the guide):

* :class:`Tracer` / :class:`NullTracer` / :class:`JsonlTracer` /
  :class:`RecordingTracer` — per-timestep run tracing with a
  zero-overhead disabled default (:data:`NULL_TRACER`); engines resolve
  the ambient tracer (:func:`current_tracer`, :func:`activated`) unless
  given one explicitly.
* :mod:`repro.obs.events` — the versioned JSONL event schema shared by
  run traces and the sweep run ledger (:data:`SCHEMA_VERSION`,
  :func:`make_event`, :class:`EventWriter`, :func:`read_events`).
* :class:`MetricsRegistry` — counters/gauges plus the
  engines' phase timers (``heuristic_select``, ``kernel_apply``,
  ``knowledge_flood``) behind ``--profile``.
* :func:`get_logger` — library logging instead of ``print()``
  (enforced by ruff ``T20``).
* :func:`split_runs` / :class:`TraceRun` — a trace's events grouped
  per run, with the timeline views (deficit curve, stall spans,
  phases) every report and analyzer reads.
* :func:`render_trace_file` / :func:`render_report` — the
  ``ocd-repro report`` timeline renderer.
"""

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    EventSchema,
    EventWriter,
    dump_event,
    is_event,
    iter_events,
    make_event,
    read_events,
    read_events_tail,
    validate_event,
)
from repro.obs.log import enable_console_logging, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    PhaseTimer,
    current_metrics,
    metrics_active,
)
from repro.obs.report import render_report, render_trace_file
from repro.obs.runs import TraceRun, split_runs
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    activated,
    current_tracer,
)

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "EVENT_SCHEMAS",
    "EventSchema",
    "EventWriter",
    "Gauge",
    "JsonlTracer",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PhaseTimer",
    "RecordingTracer",
    "SCHEMA_VERSION",
    "TraceRun",
    "Tracer",
    "activated",
    "current_metrics",
    "current_tracer",
    "dump_event",
    "enable_console_logging",
    "get_logger",
    "is_event",
    "iter_events",
    "make_event",
    "metrics_active",
    "read_events",
    "read_events_tail",
    "render_report",
    "render_trace_file",
    "split_runs",
    "validate_event",
]
