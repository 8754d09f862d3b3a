"""In-memory spans around the suite's calls into the program.

A span records a name, a start, an end and the id of the span that was
open when it started.  Spans only come from the suite's own files, timed
from outside around public calls; the program itself is not
instrumented.  Two extras ride on a span:

* ``phases`` — seconds the program's existing ``metrics=`` hook (a
  :class:`repro.obs.MetricsRegistry`) attributed to named phases inside
  the span.  They are treated as children the span cannot see the
  boundaries of: the span's own share is split by their proportions.
* ``counts`` — work counters observed at the same boundary (steps,
  moves, events), summed per layer by :func:`layer_totals`.

Self time follows the wall clock: every instant of an operation is
charged to the innermost spans open at that instant, split evenly when
several are open at once (two executor workers running points side by
side).  Serially this is the span's duration minus its children; in
every case the layers' self times add up to the operation's wall time.

Clocks are ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux, shared by
all processes), so spans recorded in executor worker processes line up
with the parent's.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

Span = Dict[str, Any]


class Spans:
    """Spans recorded by one process, kept in memory."""

    def __init__(self) -> None:
        self.records: List[Span] = []
        self._open: List[str] = []
        self._ids = itertools.count()
        self._pid = os.getpid()
        # Ids stay unique when several recorders share a process.
        self._prefix = f"{self._pid}.{os.urandom(3).hex()}"

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the block as span ``name``, nested in the open span."""
        record: Span = {
            "id": f"{self._prefix}.{next(self._ids)}",
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "pid": self._pid,
            "start": time.monotonic(),
            "end": None,
            "phases": {},
            "counts": {},
        }
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._open.pop()
            self.records.append(record)

    def adopt(self, children: Sequence[Span], parent: Span) -> None:
        """Add spans recorded elsewhere (an executor worker) under ``parent``.

        Their root spans were opened with no parent in the worker; they
        belong to the span that ran the executor.
        """
        for child in children:
            if child["parent"] is None:
                child = {**child, "parent": parent["id"]}
            self.records.append(child)


def check_nesting(spans: Sequence[Span]) -> List[str]:
    """Problems with the span tree: unknown parents, children outside parents."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['name']} ends before it starts")
        for layer, seconds in s["phases"].items():
            if seconds < 0 or seconds > s["end"] - s["start"] + 1e-6:
                problems.append(f"phase {layer} of {s['name']} exceeds its span")
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['name']} has unknown parent {s['parent']}")
        elif s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['name']} is not inside {parent['name']}")
    return problems


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Wall seconds charged to each span id (see the module docstring)."""
    parent_of = {s["id"]: s["parent"] for s in spans}
    events = []
    for s in spans:
        # Closings sort before openings at the same instant.
        events.append((s["end"], 0, s["id"]))
        events.append((s["start"], 1, s["id"]))
    events.sort()
    open_children: Dict[str, int] = defaultdict(int)
    active: Dict[str, None] = {}
    charged: Dict[str, float] = defaultdict(float)
    last: Optional[float] = None
    for t, opening, sid in events:
        if last is not None and t > last and active:
            leaves = [a for a in active if open_children[a] == 0]
            share = (t - last) / len(leaves)
            for leaf in leaves:
                charged[leaf] += share
        last = t
        parent = parent_of[sid]
        if opening:
            active[sid] = None
            if parent is not None:
                open_children[parent] += 1
        else:
            del active[sid]
            if parent is not None:
                open_children[parent] -= 1
    return dict(charged)


def layer_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per layer, phases split out of their spans."""
    charged = self_times(spans)
    exclusive = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in exclusive:
            exclusive[s["parent"]] -= s["end"] - s["start"]
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        own = charged.get(s["id"], 0.0)
        phase_sum = sum(s["phases"].values())
        if phase_sum and exclusive[s["id"]] > 0:
            # Phases run outside the span's children.  Its charged time
            # is below that exclusive time when it shared the wall with
            # parallel spans; the phases shrink in proportion.
            scale = min(1.0, own / exclusive[s["id"]])
            for layer, seconds in s["phases"].items():
                totals[layer] += seconds * scale
            own -= phase_sum * scale
        totals[s["name"]] += own
    return dict(totals)


def count_totals(spans: Sequence[Span]) -> Dict[str, float]:
    """Counters summed over every span that reported them."""
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        for name, value in s["counts"].items():
            totals[name] += value
    return dict(totals)
