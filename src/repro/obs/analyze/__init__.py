"""Trace analytics: differential debugging, replay validation, attribution.

Consumes the JSONL traces of :mod:`repro.obs` (see
``docs/OBSERVABILITY.md``) and answers the questions raw event streams
cannot:

* :func:`diff_traces` — where do two traces *first* diverge?
* :func:`validate_trace` — does a trace's claimed run actually satisfy
  the paper's schedule-validity invariants?
* :func:`attribute_trace` — *why* did a run take as long as it did?
  Dissemination forest, critical path, per-vertex-step blocking causes,
  and the lower-bound gap decomposition (see
  :mod:`repro.obs.analyze.causal` and
  :mod:`repro.obs.analyze.attribution`).
* :func:`chrome_trace` / :func:`dot_forest` — export a trace's causal
  structure for Chrome trace-viewer or Graphviz.
* :func:`scan_paths` — which runs of a sweep look pathological?
* :func:`retrace_run` — re-emit a finished schedule as a trace (the
  bridge that gives the untraced reference oracle a diffable trace).

Each analytic reads finished trace files in one post-hoc pass; none
follows a trace while it grows.  The ``watch`` dashboard's anomaly
verdict is one :func:`scan_paths` call once its sweep has ended.

This subpackage is deliberately *not* imported by ``repro.obs``'s
``__init__`` — the tracing layer must stay importable by the simulation
kernel, while :mod:`repro.obs.analyze.retrace` imports the kernel.
Import it explicitly: ``from repro.obs import analyze`` or
``from repro.obs.analyze import diff_traces``.  Layering within the
subpackage: :mod:`~repro.obs.analyze.causal` (like ``validate``) is
kernel- and core-free mask arithmetic; :mod:`~repro.obs.analyze.
attribution` adds :mod:`repro.core` for the §5 bounds; only ``retrace``
imports the simulator.
"""

from repro.obs.analyze.anomaly import (
    Anomaly,
    ScanThresholds,
    scan_events,
    scan_paths,
    scan_trace,
)
from repro.obs.analyze.attribution import (
    GAP_SLACK_KEY,
    AttributionError,
    AttributionReport,
    RunAttribution,
    SkippedRun,
    attribute_events,
    attribute_trace,
    summary_event,
)
from repro.obs.analyze.causal import (
    BLOCKING_CATEGORIES,
    Arrival,
    CausalError,
    CriticalPath,
    PathHop,
    RunForest,
    WaitSegment,
    blocking_table,
    build_forest,
    classify_block,
    critical_path,
    transfer_slack,
)
from repro.obs.analyze.diff import Divergence, TraceDiff, diff_traces
from repro.obs.analyze.export import chrome_trace, dot_forest
from repro.obs.analyze.retrace import retrace_run
from repro.obs.analyze.runs import DecodedInstance, TraceRun, split_runs
from repro.obs.analyze.validate import (
    ValidationReport,
    Violation,
    validate_events,
    validate_trace,
)

__all__ = [
    "Anomaly",
    "Arrival",
    "AttributionError",
    "AttributionReport",
    "BLOCKING_CATEGORIES",
    "CausalError",
    "CriticalPath",
    "DecodedInstance",
    "Divergence",
    "GAP_SLACK_KEY",
    "PathHop",
    "RunAttribution",
    "RunForest",
    "ScanThresholds",
    "SkippedRun",
    "TraceDiff",
    "TraceRun",
    "ValidationReport",
    "Violation",
    "WaitSegment",
    "attribute_events",
    "attribute_trace",
    "blocking_table",
    "build_forest",
    "chrome_trace",
    "classify_block",
    "critical_path",
    "diff_traces",
    "dot_forest",
    "retrace_run",
    "scan_events",
    "scan_paths",
    "scan_trace",
    "split_runs",
    "summary_event",
    "transfer_slack",
    "validate_events",
    "validate_trace",
]
