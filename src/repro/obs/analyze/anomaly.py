"""Sweep-level anomaly scan: flag suspect runs across many traces.

A parameter sweep produces one trace per point; nobody reads them all.
:func:`scan_paths` walks a set of trace files (or directories of them)
and flags runs whose shape suggests something went wrong even if the
run nominally succeeded:

``stall-span``
    A maximal span of consecutive zero-gain timesteps at least
    ``stall_span`` long — the §4 local-knowledge pathology, or a
    heuristic spinning without progress.
``deficit-plateau``
    The total deficit sat at the same non-zero value for at least
    ``plateau_span`` consecutive steps. Subsumes stall spans when
    tokens circulate without reaching wanting vertices.
``util-collapse``
    Arc utilization stayed at or below ``util_floor`` for at least
    ``util_span`` consecutive steps — the network went quiet while
    demand remained.
``failed-run``
    The run ended with ``success: false``.
``truncated-run``
    The trace has no ``run_end`` for the run (crashed or interrupted).

Thresholds live in :class:`ScanThresholds`; the defaults are tuned for
the repo's small benchmark instances and every CLI flag maps onto one
field.

Span and failure anomalies additionally carry a *dominant blocking
cause* — the most frequent :data:`repro.obs.analyze.causal.
BLOCKING_CATEGORIES` entry among the span's idle vertex-steps, derived
from the same forest replay ``trace-attribute`` uses — so the scan (and
the ``watch`` dashboard's end-of-sweep verdict, which is one
:func:`scan_paths` call) says not just *where* a run went quiet but
*why*.  A run without a forest yields ``cause: None`` and the
anomaly stands on its own: dynamic-conditions runs, and runs the forest
refuses (:class:`~repro.obs.analyze.causal.CausalError` — no instance
payload, no transfers, or any other step-level §2 violation).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.analyze.causal import (
    CausalError,
    blocking_table,
    build_forest,
    dominant_category,
)
from repro.obs.events import read_events
from repro.obs.runs import TraceRun, split_runs

__all__ = ["Anomaly", "ScanThresholds", "scan_events", "scan_paths", "scan_trace"]


@dataclass(frozen=True)
class ScanThresholds:
    """Knobs for what counts as anomalous."""

    #: Minimum length of a zero-gain span worth flagging.
    stall_span: int = 3
    #: Minimum length of a constant-non-zero-deficit plateau.
    plateau_span: int = 4
    #: Arc utilization at or below this counts as "quiet".
    util_floor: float = 0.02
    #: Minimum length of a quiet-network span.
    util_span: int = 3


@dataclass(frozen=True)
class Anomaly:
    """One suspect observation in one run of one trace."""

    path: str
    run: int
    heuristic: str
    kind: str
    #: First step of the anomalous span (None for run-level anomalies).
    step: int | None
    detail: str
    #: Dominant blocking cause over the span (a BLOCKING_CATEGORIES
    #: entry), or None when cause derivation was not possible.
    cause: str | None = None

    def render(self) -> str:
        where = f"{self.path} run {self.run} ({self.heuristic})"
        if self.step is not None:
            where += f" step {self.step}"
        line = f"{where}: [{self.kind}] {self.detail}"
        if self.cause is not None:
            line += f" -- dominant cause: {self.cause}"
        return line

    def as_dict(self) -> dict:
        """JSON-able view for ``--format json`` and the watch dashboard."""
        return {
            "path": self.path,
            "run": self.run,
            "heuristic": self.heuristic,
            "kind": self.kind,
            "step": self.step,
            "detail": self.detail,
            "cause": self.cause,
        }


def _constant_spans(values: Sequence[int]) -> List[tuple[int, int, int]]:
    """Maximal ``(first, last, value)`` spans of equal consecutive values."""
    spans: List[tuple[int, int, int]] = []
    for i, v in enumerate(values):
        if spans and spans[-1][2] == v and spans[-1][1] == i - 1:
            spans[-1] = (spans[-1][0], i, v)
        else:
            spans.append((i, i, v))
    return spans


def _run_blocking(run: TraceRun) -> Dict[Tuple[int, int], str]:
    """Blocking table for one run; empty when it has no forest.

    Dynamic-conditions runs are excluded up front: their arc-level
    categories would be computed against the declared (static) arc set
    and could name the wrong cause with confidence.
    """
    if run.engine == "dynamic":
        return {}
    try:
        return blocking_table(build_forest(run))
    except CausalError:
        return {}


def _scan_run(run: TraceRun, path: str, thresholds: ScanThresholds) -> List[Anomaly]:
    found: List[Anomaly] = []
    blocking: Optional[Dict[Tuple[int, int], str]] = None

    def span_cause(lo: int, hi: int) -> str | None:
        nonlocal blocking
        if blocking is None:
            blocking = _run_blocking(run)
        counts: Dict[str, int] = {}
        for (_vertex, step), category in blocking.items():
            if lo <= step <= hi:
                counts[category] = counts.get(category, 0) + 1
        return dominant_category(counts) if counts else None

    def flag(
        kind: str, step: int | None, detail: str, cause: str | None = None
    ) -> None:
        found.append(
            Anomaly(
                path=path,
                run=run.run,
                heuristic=run.heuristic,
                kind=kind,
                step=step,
                detail=detail,
                cause=cause,
            )
        )

    for lo, hi in run.stall_spans():
        length = hi - lo + 1
        if length >= thresholds.stall_span:
            flag(
                "stall-span",
                lo,
                f"{length} consecutive zero-gain steps [{lo}..{hi}]",
                cause=span_cause(lo, hi),
            )
    deficits = [d for _, d in run.deficit_curve()]
    steps = [s for s, _ in run.deficit_curve()]
    for lo, hi, value in _constant_spans(deficits):
        length = hi - lo + 1
        if value > 0 and length >= thresholds.plateau_span:
            flag(
                "deficit-plateau",
                steps[lo],
                f"deficit stuck at {value} for {length} steps "
                f"[{steps[lo]}..{steps[hi]}]",
                cause=span_cause(steps[lo], steps[hi]),
            )
    utils = [float(s.get("arc_util", 0.0)) for s in run.steps]
    quiet_lo: int | None = None
    for i, u in enumerate(utils + [1.0]):  # sentinel closes a trailing span
        if u <= thresholds.util_floor and deficits[i : i + 1] != [0]:
            if quiet_lo is None:
                quiet_lo = i
            continue
        if quiet_lo is not None:
            length = i - quiet_lo
            if length >= thresholds.util_span:
                flag(
                    "util-collapse",
                    steps[quiet_lo],
                    f"arc utilization <= {thresholds.util_floor:.0%} for "
                    f"{length} steps [{steps[quiet_lo]}..{steps[i - 1]}] "
                    f"with demand outstanding",
                    cause=span_cause(steps[quiet_lo], steps[i - 1]),
                )
            quiet_lo = None
    if run.end is None:
        flag(
            "truncated-run",
            None,
            "no run_end event (crashed or interrupted?)",
        )
    elif not run.end.get("success"):
        flag(
            "failed-run",
            None,
            f"run ended unsatisfied after {run.end.get('makespan')} steps",
            cause=span_cause(0, len(run.steps)),
        )
    return found


def scan_events(
    events: Sequence[dict],
    path: str = "<events>",
    thresholds: ScanThresholds = ScanThresholds(),
) -> List[Anomaly]:
    """Scan one parsed event stream for anomalous runs."""
    found: List[Anomaly] = []
    _header, runs = split_runs(events)
    for run in runs:
        found.extend(_scan_run(run, path, thresholds))
    return found


def scan_trace(
    path: str, thresholds: ScanThresholds = ScanThresholds()
) -> List[Anomaly]:
    """Scan one trace file for anomalous runs."""
    return scan_events(read_events(path), path=path, thresholds=thresholds)


def scan_paths(
    paths: Sequence[str], thresholds: ScanThresholds = ScanThresholds()
) -> List[Anomaly]:
    """Scan trace files and/or directories of ``*.jsonl`` traces."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".jsonl")
            )
        else:
            files.append(path)
    found: List[Anomaly] = []
    for file in files:
        found.extend(scan_trace(file, thresholds))
    return found
