"""Counters, gauges, and phase timers for profiling runs.

A :class:`MetricsRegistry` is an explicit, injectable bag of named
instruments — no process-global state, so two concurrent profiled runs
cannot contaminate each other and tests can assert on exactly what one
run recorded.

The model packages themselves may not consult wall-clock time (the
simulation is synchronous and timesteps are integers; the layering row
``no-clock`` in ``tests/test_layering.py`` enforces this).
All timing therefore lives *here*, behind the
:meth:`MetricsRegistry.timer` context manager: an engine writes

.. code-block:: python

    timer = null_timer if metrics is None else metrics.timer
    with timer("heuristic_select"):
        proposal = heuristic.propose(ctx)

so the unprofiled path never touches a clock (:func:`null_timer`) and
the profiled path attributes wall time to named phases.  The standard
phase names used by the engines are ``heuristic_select`` (proposal
construction), ``kernel_apply`` (validation + possession update), and
``knowledge_flood`` (LOCD gossip merge); a sweep trial
(:func:`repro.experiments.runner.run_trial`) adds ``bounds`` (the §5
lower bounds) and ``pruning`` (the §5.1 post-pass).

Timings are wall-clock and therefore nondeterministic; they belong in
``--profile`` summaries and must never be written into run traces,
which are byte-identical across identical seeds by contract.

Registries *compose*: :meth:`MetricsRegistry.snapshot` round-trips
through :meth:`MetricsRegistry.from_snapshot`, and
:meth:`MetricsRegistry.merge` folds one registry into another — which is
how the sweep executor aggregates per-worker phase timers into one
sweep-level profile (worker processes snapshot, the parent merges).

Like the tracer, a registry can be made *ambient*
(:func:`metrics_active` / :func:`current_metrics`) so engines
constructed deep inside a point function are profiled without threading
a registry through every driver signature.  The default ambient value
is ``None`` — the unprofiled path stays clock-free.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "PhaseTimer",
    "current_metrics",
    "metrics_active",
    "null_timer",
]


class Counter:
    """A monotone event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A last-write-wins level (e.g. the current total deficit)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class PhaseTimer:
    """Accumulated wall time and entry count for one named phase."""

    __slots__ = ("name", "calls", "seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.seconds += seconds


class MetricsRegistry:
    """Named instruments plus the phase timers of one profiled run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, PhaseTimer] = {}

    # -- instrument access (get-or-create, stable identity) -------------
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def phase(self, name: str) -> PhaseTimer:
        inst = self._timers.get(name)
        if inst is None:
            inst = self._timers[name] = PhaseTimer(name)
        return inst

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Attribute the block's wall time to phase ``name``."""
        phase = self.phase(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            phase.add(time.perf_counter() - started)

    # -- composition -----------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s instruments into this registry, in place.

        Counters and phase timers add; gauges are last-write-wins (the
        merged-in registry's level replaces ours, matching
        :meth:`Gauge.set` semantics).  Returns ``self`` so sweeps can
        chain ``profile.merge(worker_a).merge(worker_b)``.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, phase in other._timers.items():
            mine_phase = self.phase(name)
            mine_phase.calls += phase.calls
            mine_phase.seconds += phase.seconds
        return self

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        ``from_snapshot(r.snapshot()).snapshot() == r.snapshot()`` —
        the round trip is exact, which is what lets worker processes
        ship their profiles to the parent as plain JSON.
        """
        registry = cls()
        for name, value in snap.get("counters", {}).items():
            registry.counter(name).inc(int(value))
        for name, value in snap.get("gauges", {}).items():
            registry.gauge(name).set(float(value))
        for name, fields in snap.get("phases", {}).items():
            phase = registry.phase(name)
            phase.calls = int(fields.get("calls", 0))
            phase.seconds = float(fields.get("seconds", 0.0))
        return registry

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view of everything recorded so far."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "phases": {
                n: {"calls": t.calls, "seconds": t.seconds}
                for n, t in sorted(self._timers.items())
            },
        }

    def render(self) -> str:
        """The ``--profile`` summary: phases ranked by time, then stats."""
        lines: List[str] = []
        if self._timers:
            lines.append("phase               calls      total      per-call")
            total = sum(t.seconds for t in self._timers.values())
            by_time = sorted(
                self._timers.values(), key=lambda t: (-t.seconds, t.name)
            )
            for t in by_time:
                share = f" ({t.seconds / total:5.1%})" if total > 0 else ""
                per_call = t.seconds / t.calls if t.calls else 0.0
                lines.append(
                    f"{t.name:<18} {t.calls:>6} {t.seconds:>9.4f}s "
                    f"{per_call * 1e6:>9.1f}us{share}"
                )
        for name, c in sorted(self._counters.items()):
            lines.append(f"counter {name} = {c.value}")
        for name, g in sorted(self._gauges.items()):
            lines.append(f"gauge {name} = {g.value:g}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


_NULL_TIMER: ContextManager[None] = nullcontext()


def null_timer(_name: str) -> ContextManager[None]:
    """The unprofiled phase timer: records nothing, never reads a clock."""
    return _NULL_TIMER


# ----------------------------------------------------------------------
# Ambient metrics (mirrors the ambient tracer in repro.obs.tracer)
# ----------------------------------------------------------------------
_ambient_metrics: Optional[MetricsRegistry] = None


def current_metrics() -> Optional[MetricsRegistry]:
    """The ambient registry engines resolve at construction time.

    ``None`` unless inside a :func:`metrics_active` block — the default
    path never touches a clock, keeping the synchronous-model contract
    intact for unprofiled runs.
    """
    return _ambient_metrics


@contextmanager
def metrics_active(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` ambient for the duration of the block.

    Every engine constructed inside the block without an explicit
    ``metrics=`` argument records its phase timers here.  Not
    thread-safe by design, exactly like the ambient tracer: the sweep
    executor parallelises with *processes*, and each worker activates
    its own registry, snapshots it, and ships the snapshot home.
    """
    global _ambient_metrics
    previous = _ambient_metrics
    _ambient_metrics = registry
    try:
        yield registry
    finally:
        _ambient_metrics = previous
