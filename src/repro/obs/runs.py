"""Run grouping: the one place a trace's events are regrouped per run.

The report renderer, the anomaly scanner and every analyzer in
:mod:`repro.obs.analyze` start from :func:`split_runs`; the timeline
views they read off a run (deficit curve, stall spans, phases) live on
:class:`TraceRun`.  Like the rest of :mod:`repro.obs`, this module
imports nothing from the simulation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

JsonDict = Dict[str, Any]

__all__ = ["JsonDict", "TraceRun", "split_runs"]


@dataclass
class TraceRun:
    """The events of one run within a trace, in emission order."""

    run: int
    start: Optional[JsonDict] = None
    steps: List[JsonDict] = field(default_factory=list)
    end: Optional[JsonDict] = None
    #: Run-scoped events in exact emission order (steps and stalls
    #: interleaved as recorded) — the differ compares this sequence.
    events: List[JsonDict] = field(default_factory=list)

    def _start_field(self, name: str, default: Any = "?") -> Any:
        return default if self.start is None else self.start.get(name, default)

    @property
    def heuristic(self) -> str:
        return str(self._start_field("heuristic"))

    @property
    def engine(self) -> str:
        return str(self._start_field("engine"))

    @property
    def problem(self) -> str:
        return str(self._start_field("problem"))

    @property
    def initial_deficit(self) -> int:
        return int(self._start_field("total_deficit", 0))

    def deficit_curve(self) -> List[Tuple[int, int]]:
        """``(step, remaining deficit)`` per traced timestep."""
        return [(int(s["step"]), int(s["deficit"])) for s in self.steps]

    def stall_spans(self) -> List[Tuple[int, int]]:
        """Maximal ``[first, last]`` spans of zero-gain timesteps."""
        spans: List[Tuple[int, int]] = []
        for s in self.steps:
            if int(s.get("gained", 0)) > 0:
                continue
            step = int(s["step"])
            if spans and spans[-1][1] == step - 1:
                spans[-1] = (spans[-1][0], step)
            else:
                spans.append((step, step))
        return spans

    def phases(self) -> List[Tuple[str, int, int, int]]:
        """``(name, first_step, last_step, tokens_gained)`` per phase."""
        gains = [int(s.get("gained", 0)) for s in self.steps]
        if not gains:
            return []
        peak = max(gains)
        ramp_end = 0
        for i, g in enumerate(gains):
            if peak > 0 and g * 2 >= peak:
                ramp_end = i
                break
        initial = self.initial_deficit
        tail_start = len(gains)
        for i, s in enumerate(self.steps):
            if initial > 0 and int(s["deficit"]) * 10 <= initial:
                tail_start = i
                break
        tail_start = max(tail_start, ramp_end + 1)
        bounds = [
            ("ramp-up", 0, ramp_end),
            ("bulk", ramp_end + 1, tail_start - 1),
            ("tail", tail_start, len(gains) - 1),
        ]
        out: List[Tuple[str, int, int, int]] = []
        for name, lo, hi in bounds:
            if lo > hi:
                continue
            out.append((name, lo, hi, sum(gains[lo : hi + 1])))
        return out

    def as_dict(self) -> JsonDict:
        """JSON-able timeline view for ``report --format json`` consumers."""
        utils = [float(s.get("arc_util", 0.0)) for s in self.steps]
        end = self.end
        return {
            "run": self.run,
            "heuristic": self.heuristic,
            "engine": self.engine,
            "problem": self.problem,
            "initial_deficit": self.initial_deficit,
            "end": {
                "success": bool(end.get("success")),
                "makespan": end.get("makespan"),
                "bandwidth": end.get("bandwidth"),
            }
            if end is not None
            else None,
            "deficit_curve": [list(p) for p in self.deficit_curve()],
            "stall_spans": [list(s) for s in self.stall_spans()],
            "phases": [
                {"name": name, "first": lo, "last": hi, "gained": gain}
                for name, lo, hi, gain in self.phases()
            ],
            "arc_util": {
                "mean": sum(utils) / len(utils),
                "peak": max(utils),
            }
            if utils
            else None,
        }


def split_runs(
    events: Sequence[JsonDict],
) -> Tuple[Optional[JsonDict], List[TraceRun]]:
    """Group a trace's events into ``(trace_header, per-run sequences)``.

    Keeps the exact emission order per run.  Run-ledger rows carry no
    run dynamics and are ignored.
    """
    header: Optional[JsonDict] = None
    runs: Dict[int, TraceRun] = {}
    for event in events:
        kind = event["event"]
        if kind == "trace_header":
            if header is None:
                header = event
            continue
        if kind not in ("run_start", "step", "stall", "run_end"):
            continue
        run_index = int(event.get("run", 0))
        run = runs.get(run_index)
        if run is None:
            run = runs[run_index] = TraceRun(run=run_index)
        run.events.append(event)
        if kind == "run_start":
            run.start = event
        elif kind == "step":
            run.steps.append(event)
        elif kind == "run_end":
            run.end = event
    return header, [runs[k] for k in sorted(runs)]
