"""Differential trace debugging: localize the first divergence of two runs.

When two schedules disagree — engine vs. the frozen reference oracle,
serial vs. parallel sweep, heuristic A vs. B — the question is never
"are the traces different" (``cmp`` answers that) but *where they first
split*. :func:`diff_traces` answers it at three resolutions:

1. **Bytes.** Identical files short-circuit: the traces are
   byte-identical, the determinism contract held.
2. **Structure.** Headers, run counts, and per-run event sequences are
   aligned on ``(kind, timestep)``; a missing or extra event (one run
   stalls where the other steps, one trace is truncated) is reported as
   the divergence.
3. **Fields.** For the earliest aligned event pair that differs, the
   first differing field (in sorted field order, for determinism) is
   named along with both values, and — when the field is ``transfers``
   — a semantic summary of what each run actually moved, e.g.
   ``run B stalls at step 7 (no transfers); run A transferred t3 on
   (v2, v5)``.

Fields can be excluded from comparison with ``ignore_fields`` — the
engine-vs-oracle tests use ``ignore_fields=("engine",)`` to compare a
live engine trace against a replayed reference trace that differs only
in its engine label.
"""

from __future__ import annotations

import filecmp
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.obs.analyze.runs import JsonDict, TraceRun, split_runs
from repro.obs.events import read_events

__all__ = ["Divergence", "TraceDiff", "diff_traces"]


@dataclass(frozen=True)
class Divergence:
    """The earliest point at which two traces disagree."""

    #: Run index the divergence occurs in (or -1 for header/trace level).
    run: int
    #: Event kind at the divergence point ("trace_header", "step", ...).
    kind: str
    #: Timestep of the diverging event, when it has one.
    step: Optional[int]
    #: First differing field, when the divergence is field-level.
    field: Optional[str]
    #: The two values (or event summaries) on each side.
    a: Any
    b: Any
    #: Human-readable account of the divergence.
    summary: str


@dataclass(frozen=True)
class TraceDiff:
    """Result of comparing two traces."""

    path_a: str
    path_b: str
    identical_bytes: bool
    divergence: Optional[Divergence]

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        if self.identical_bytes:
            return f"traces are byte-identical: {self.path_a} == {self.path_b}"
        if self.divergence is None:
            return (
                f"traces are semantically identical (bytes differ only in "
                f"ignored fields): {self.path_a} ~= {self.path_b}"
            )
        d = self.divergence
        lines = [f"traces diverge: A={self.path_a}  B={self.path_b}"]
        where = f"first divergence: run {d.run}, {d.kind}"
        if d.step is not None:
            where += f" at step {d.step}"
        if d.field is not None:
            where += f", field '{d.field}'"
        lines.append(where)
        lines.append(f"  A: {d.a!r}")
        lines.append(f"  B: {d.b!r}")
        lines.append(f"  {d.summary}")
        return "\n".join(lines)


def _describe_transfers(event: JsonDict, label: str) -> str:
    """One-line semantic account of what a step event moved."""
    step = event.get("step")
    transfers = event.get("transfers")
    if not transfers:
        return f"run {label} stalls at step {step} (no transfers)"
    parts = []
    for src, dst, tokens in transfers[:3]:
        toks = ", ".join(f"t{t}" for t in tokens)
        parts.append(f"{toks} on (v{src}, v{dst})")
    more = len(transfers) - 3
    if more > 0:
        parts.append(f"... {more} more arc(s)")
    return f"run {label} transferred " + "; ".join(parts)


def _event_summary(event: JsonDict, label: str) -> str:
    kind = event.get("event")
    if kind == "step":
        return _describe_transfers(event, label)
    if kind == "stall":
        return (
            f"run {label} reports a stall at step {event.get('step')} "
            f"(stalled_for={event.get('stalled_for')})"
        )
    if kind == "run_end":
        return (
            f"run {label} ends: success={event.get('success')}, "
            f"makespan={event.get('makespan')}, "
            f"bandwidth={event.get('bandwidth')}"
        )
    return f"run {label} has a {kind} event here"


def _first_field_diff(
    a: JsonDict, b: JsonDict, ignore: Sequence[str]
) -> Optional[Tuple[str, Any, Any]]:
    """First differing field of two events, in sorted field order."""
    for name in sorted(set(a) | set(b)):
        if name in ignore:
            continue
        va, vb = a.get(name), b.get(name)
        if va != vb:
            return name, va, vb
    return None


def _diff_events(
    ev_a: JsonDict, ev_b: JsonDict, run: int, ignore: Sequence[str]
) -> Optional[Divergence]:
    """Field-level divergence between two aligned events, if any."""
    hit = _first_field_diff(ev_a, ev_b, ignore)
    if hit is None:
        return None
    name, va, vb = hit
    kind = str(ev_a.get("event", ev_b.get("event", "?")))
    step = ev_a.get("step", ev_b.get("step"))
    if name == "transfers" or (kind == "step" and name in ("sends", "moves")):
        summary = (
            _event_summary(ev_b, "B") + "; " + _event_summary(ev_a, "A")
        )
    else:
        summary = f"earliest differing field is '{name}': A={va!r} B={vb!r}"
    return Divergence(
        run=run,
        kind=kind,
        step=int(step) if step is not None else None,
        field=name,
        a=va,
        b=vb,
        summary=summary,
    )


def _align_key(event: JsonDict) -> Tuple[str, Any]:
    return str(event.get("event", "?")), event.get("step")


def _diff_run(
    run_a: TraceRun, run_b: TraceRun, ignore: Sequence[str]
) -> Optional[Divergence]:
    """Earliest divergence within one run's aligned event sequences."""
    for ev_a, ev_b in zip(run_a.events, run_b.events):
        key_a, key_b = _align_key(ev_a), _align_key(ev_b)
        if key_a != key_b:
            # The sequences desynchronize here: one run stepped where
            # the other stalled/ended. That *is* the divergence.
            step = ev_a.get("step", ev_b.get("step"))
            return Divergence(
                run=run_a.run,
                kind=f"{key_a[0]} vs {key_b[0]}",
                step=int(step) if step is not None else None,
                field=None,
                a=key_a,
                b=key_b,
                summary=(
                    _event_summary(ev_b, "B") + "; " + _event_summary(ev_a, "A")
                ),
            )
        hit = _diff_events(ev_a, ev_b, run_a.run, ignore)
        if hit is not None:
            return hit
    if len(run_a.events) != len(run_b.events):
        longer, label = (
            (run_a, "A") if len(run_a.events) > len(run_b.events) else (run_b, "B")
        )
        extra = longer.events[min(len(run_a.events), len(run_b.events))]
        return Divergence(
            run=run_a.run,
            kind=str(extra.get("event", "?")),
            step=extra.get("step"),
            field=None,
            a=len(run_a.events),
            b=len(run_b.events),
            summary=(
                f"run {label} has {abs(len(run_a.events) - len(run_b.events))} "
                f"extra event(s), starting with: "
                + _event_summary(extra, label)
            ),
        )
    return None


def diff_traces(
    path_a: str, path_b: str, ignore_fields: Sequence[str] = ()
) -> TraceDiff:
    """Compare two trace files and localize their first divergence.

    ``ignore_fields`` names event fields excluded from comparison (e.g.
    ``("engine",)`` when diffing a live trace against a replayed one).
    """
    if filecmp.cmp(path_a, path_b, shallow=False):
        return TraceDiff(
            path_a=path_a, path_b=path_b, identical_bytes=True, divergence=None
        )
    header_a, runs_a = split_runs(read_events(path_a))
    header_b, runs_b = split_runs(read_events(path_b))
    if (header_a is None) != (header_b is None):
        present = "A" if header_a is not None else "B"
        return TraceDiff(
            path_a,
            path_b,
            identical_bytes=False,
            divergence=Divergence(
                run=-1,
                kind="trace_header",
                step=None,
                field=None,
                a=header_a,
                b=header_b,
                summary=f"only trace {present} has a trace_header",
            ),
        )
    if header_a is not None and header_b is not None:
        hit = _first_field_diff(header_a, header_b, ignore_fields)
        if hit is not None:
            name, va, vb = hit
            return TraceDiff(
                path_a,
                path_b,
                identical_bytes=False,
                divergence=Divergence(
                    run=-1,
                    kind="trace_header",
                    step=None,
                    field=name,
                    a=va,
                    b=vb,
                    summary=(
                        f"trace headers disagree on '{name}': "
                        f"A={va!r} B={vb!r}"
                    ),
                ),
            )
    if len(runs_a) != len(runs_b):
        return TraceDiff(
            path_a,
            path_b,
            identical_bytes=False,
            divergence=Divergence(
                run=min(len(runs_a), len(runs_b)),
                kind="run",
                step=None,
                field=None,
                a=len(runs_a),
                b=len(runs_b),
                summary=(
                    f"trace A has {len(runs_a)} run(s), trace B has "
                    f"{len(runs_b)}"
                ),
            ),
        )
    for run_a, run_b in zip(runs_a, runs_b):
        hit = _diff_run(run_a, run_b, ignore_fields)
        if hit is not None:
            return TraceDiff(
                path_a, path_b, identical_bytes=False, divergence=hit
            )
    return TraceDiff(path_a, path_b, identical_bytes=False, divergence=None)
