"""Human-readable timelines from run traces (``ocd-repro report``).

The renderer consumes the event stream of one trace file (see
:mod:`repro.obs.events`) and produces, per recorded run, the things the
paper reasons about but end-of-run aggregates hide:

* the **convergence curve** — remaining total deficit per timestep, as a
  downsampled ASCII chart;
* **stall spans** — maximal runs of consecutive timesteps in which no
  vertex gained a wanted-or-not token (onset and length, the §4 local
  knowledge pathology);
* **dissemination phases** — the ramp-up / bulk / tail split of
  Mundinger-style analyses, derived from the gain curve: ramp-up until
  the per-step gain first reaches half its peak, tail after the deficit
  falls below 10% of its initial value, bulk in between;
* **arc utilization** — mean and peak fraction of arcs carrying sends.

Everything here is pure string building over parsed events; rendering a
trace never touches the simulator.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.events import read_events
from repro.obs.runs import TraceRun, split_runs

__all__ = ["render_report", "render_trace_file"]

_BAR = "█"
_CHART_WIDTH = 40
_MAX_CURVE_ROWS = 16


def _downsample(curve: Sequence[Tuple[int, int]], rows: int) -> List[Tuple[int, int]]:
    if len(curve) <= rows:
        return list(curve)
    picked = [curve[(i * (len(curve) - 1)) // (rows - 1)] for i in range(rows)]
    out: List[Tuple[int, int]] = []
    for point in picked:
        if not out or out[-1] != point:
            out.append(point)
    return out


def _render_curve(timeline: TraceRun, lines: List[str]) -> None:
    curve = timeline.deficit_curve()
    if not curve:
        lines.append("  (no step events)")
        return
    top = max(timeline.initial_deficit, max(d for _, d in curve), 1)
    lines.append(f"  convergence (deficit, initial {timeline.initial_deficit}):")
    for step, deficit in _downsample(curve, _MAX_CURVE_ROWS):
        bar = _BAR * round(deficit / top * _CHART_WIDTH)
        lines.append(f"    t={step:<5} {deficit:>6} |{bar}")


def render_report(
    events: Sequence[Dict[str, Any]], title: str = ""
) -> str:
    """Render every run in an event stream as a text timeline."""
    lines: List[str] = []
    header, timelines = split_runs(events)
    if title:
        lines.append(f"=== trace report: {title} ===")
    if header is not None:
        meta = {
            k: v
            for k, v in sorted(header.items())
            if k not in ("event", "schema_version")
        }
        lines.append(
            "scenario: " + ", ".join(f"{k}={v}" for k, v in meta.items())
        )
    if not timelines:
        lines.append("(no runs in trace)")
        return "\n".join(lines) + "\n"
    for timeline in timelines:
        _render_run(timeline, lines)
    return "\n".join(lines) + "\n"


def _render_run(timeline: TraceRun, lines: List[str]) -> None:
    end = timeline.end
    lines.append("")
    lines.append(
        f"--- run {timeline.run}: {timeline.heuristic} "
        f"on {timeline.problem} [{timeline.engine}] ---"
    )
    if end is not None:
        outcome = "success" if end.get("success") else "FAILED"
        extras = ""
        if int(end.get("knowledge_cost", 0)):
            extras = f", knowledge_cost={end['knowledge_cost']}"
        lines.append(
            f"  {outcome}: makespan={end.get('makespan')} "
            f"bandwidth={end.get('bandwidth')}{extras}"
        )
    else:
        lines.append("  (trace truncated: no run_end event)")
    _render_curve(timeline, lines)
    spans = timeline.stall_spans()
    if spans:
        rendered = ", ".join(
            f"[{lo}..{hi}] ({hi - lo + 1} steps)" for lo, hi in spans
        )
        lines.append(f"  stall spans ({len(spans)}): {rendered}")
    else:
        lines.append("  stall spans: none")
    phases = timeline.phases()
    if phases:
        total_gain = sum(g for _, _, _, g in phases) or 1
        parts = ", ".join(
            f"{name} t[{lo}..{hi}] {gain / total_gain:.0%} of gains"
            for name, lo, hi, gain in phases
        )
        lines.append(f"  phases: {parts}")
    utils = [float(s.get("arc_util", 0.0)) for s in timeline.steps]
    if utils:
        lines.append(
            f"  arc utilization: mean {sum(utils) / len(utils):.1%}, "
            f"peak {max(utils):.1%}"
        )


def render_trace_file(path: str) -> str:
    """Load a trace JSONL file and render its report."""
    return render_report(read_events(path), title=path)
