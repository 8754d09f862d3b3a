"""Makespan attribution: explain a run's gap over the §5 lower bounds.

:mod:`repro.obs.analyze.causal` reconstructs *structure* (forest,
critical path, blocking causes); this module turns that structure into
the paper-facing verdict: **where did the makespan come from?**  For
each run it reports the two cheap lower bounds of §5
(:func:`repro.core.bounds.lookahead_timestep_bound` on the initial
state, :func:`repro.core.bounds.diameter_knowledge_bound`), the gap

    ``gap = makespan − max(lookahead_bound, diameter_bound)``

and a decomposition of that gap into the blocking categories, computed
by re-evaluating the lookahead bound on the replayed possession state at
the start of *every* timestep.  A step in which the bound fails to drop
is a step the run "lost"; the loss is charged to the step's dominant
blocking cause (most idle vertex-steps, ties broken in category order).
Steps that outpace the bound (it drops by more than one) earn *negative*
loss, which — together with the residual bound at the end of a failed
run and the portion of the diameter bound exceeding the lookahead bound
— is folded into the signed ``bound-slack`` term.  The bookkeeping
telescopes, so the terms sum to the gap **exactly**, for failed runs and
for negative gaps (diameter above makespan) alike; the property suite
pins this down.

Attribution is *refusal-first*: the walk that records each run's forest
is the §2 replay validator's (:mod:`repro.obs.analyze.validate`), and a
corrupted or truncated trace raises :class:`AttributionError` naming
the first broken invariant and the fault step.  Unlike the validator,
this module deliberately imports :mod:`repro.core` (bounds need graph
distances), but still never touches :mod:`repro.sim` — attribution is
a pure function of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.bounds import (
    InfeasibleBoundError,
    diameter_knowledge_bound,
    lookahead_bound_of_masks,
)
from repro.core.problem import Problem
from repro.obs.analyze.causal import (
    BLOCKING_CATEGORIES,
    CriticalPath,
    ForestReplay,
    RunForest,
    blocking_table,
    critical_path,
    dominant_category,
    finish_times,
)
from repro.obs.analyze.runs import DecodedInstance, InstanceDecoder, JsonDict, TraceRun, split_runs
from repro.obs.analyze.validate import ValidationReport
from repro.obs.events import make_event, read_events

__all__ = [
    "GAP_SLACK_KEY",
    "AttributionError",
    "AttributionReport",
    "RunAttribution",
    "SkippedRun",
    "attribute_events",
    "attribute_trace",
    "summary_event",
]

#: Gap-decomposition key for time not explained by any blocking cause:
#: bound looseness, super-bound progress, residual bound of failed runs,
#: and the diameter term's excess over the lookahead term.  Signed.
GAP_SLACK_KEY = "bound-slack"


class AttributionError(ValueError):
    """A trace failed replay validation; attribution refuses to run.

    The message names the first broken invariant and localizes the
    fault step, so a corrupted trace fails *at* the corruption.
    """

    def __init__(
        self,
        message: str,
        path: str = "<events>",
        run: Optional[int] = None,
        step: Optional[int] = None,
        invariant: Optional[str] = None,
    ) -> None:
        where = path
        if run is not None:
            where += f": run {run}"
            if step is not None:
                where += f" step {step}"
        tag = f"[{invariant}] " if invariant else ""
        super().__init__(f"{where}: {tag}{message}")
        self.path = path
        self.run = run
        self.step = step
        self.invariant = invariant


@dataclass
class RunAttribution:
    """One run's full makespan attribution."""

    run: int
    engine: str
    heuristic: str
    problem: str
    makespan: int
    success: bool
    bound_lookahead: int
    bound_diameter: int
    #: Blocking categories plus :data:`GAP_SLACK_KEY`; values sum to
    #: :attr:`gap` exactly (zero-valued terms are omitted).
    gap_terms: Dict[str, int]
    #: Idle vertex-steps per category over the whole run (non-zero only).
    blocking: Dict[str, int]
    path: CriticalPath
    arrivals: int
    zero_slack: int
    max_slack: int

    @property
    def bound_floor(self) -> int:
        return max(self.bound_lookahead, self.bound_diameter)

    @property
    def gap(self) -> int:
        return self.makespan - self.bound_floor

    @property
    def dominant_cause(self) -> str:
        """The most frequent blocking cause overall (``"none"`` when the
        run never idled)."""
        if not self.blocking:
            return "none"
        return dominant_category(self.blocking)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able view for ``--format json`` consumers."""
        return {
            "run": self.run,
            "engine": self.engine,
            "heuristic": self.heuristic,
            "problem": self.problem,
            "makespan": self.makespan,
            "success": self.success,
            "bounds": {
                "lookahead": self.bound_lookahead,
                "diameter": self.bound_diameter,
                "floor": self.bound_floor,
            },
            "gap": self.gap,
            "gap_terms": dict(self.gap_terms),
            "blocking": dict(self.blocking),
            "dominant_cause": self.dominant_cause,
            "critical_path": {
                "length": self.path.length,
                "hops": [
                    {"step": h.step, "src": h.src, "dst": h.dst, "token": h.token}
                    for h in self.path.hops
                ],
                "wait_steps": self.path.wait_steps,
                "wait_categories": self.path.category_counts(),
                "target": [self.path.target_vertex, self.path.target_token],
            },
            "transfers": {
                "arrivals": self.arrivals,
                "zero_slack": self.zero_slack,
                "max_slack": self.max_slack,
            },
        }

    def render(self) -> str:
        outcome = "success" if self.success else "FAILED"
        lines = [
            f"run {self.run}: {self.heuristic} on {self.problem} "
            f"[{self.engine}] {outcome} makespan={self.makespan}",
            f"  bounds: lookahead={self.bound_lookahead} "
            f"diameter={self.bound_diameter} -> floor {self.bound_floor}; "
            f"gap {self.gap:+d}",
        ]
        if self.gap_terms:
            parts = ", ".join(
                f"{key} {self.gap_terms[key]:+d}"
                for key in (*BLOCKING_CATEGORIES, GAP_SLACK_KEY)
                if key in self.gap_terms
            )
            lines.append(f"  gap attribution: {parts}")
        else:
            lines.append("  gap attribution: (tight: bound met exactly)")
        waits = self.path.category_counts()
        wait_txt = (
            "; waits: "
            + ", ".join(f"{c} {n}" for c, n in sorted(waits.items()))
            if waits
            else ""
        )
        lines.append(
            f"  critical path: {len(self.path.hops)} hop(s) + "
            f"{self.path.wait_steps} wait(s) = {self.path.length} "
            f"(completes v{self.path.target_vertex}"
            f":t{self.path.target_token}){wait_txt}"
        )
        lines.append(
            f"  transfers: {self.arrivals} useful arrival(s), "
            f"{self.zero_slack} with zero slack, max slack {self.max_slack}"
        )
        if self.blocking:
            parts = ", ".join(
                f"{c} {self.blocking[c]}"
                for c in BLOCKING_CATEGORIES
                if c in self.blocking
            )
            lines.append(f"  idle vertex-steps: {parts}")
        else:
            lines.append("  idle vertex-steps: none")
        return "\n".join(lines)


@dataclass(frozen=True)
class SkippedRun:
    """A run attribution declined to analyze, and why."""

    run: int
    engine: str
    heuristic: str
    reason: str

    def render(self) -> str:
        return f"run {self.run}: skipped ({self.reason})"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run,
            "engine": self.engine,
            "heuristic": self.heuristic,
            "reason": self.reason,
        }


@dataclass
class AttributionReport:
    """Everything one attribution pass derived from a trace."""

    path: str
    runs: List[RunAttribution] = field(default_factory=list)
    skipped: List[SkippedRun] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "runs": [r.as_dict() for r in self.runs],
            "skipped": [s.as_dict() for s in self.skipped],
        }

    def render(self) -> str:
        lines = [
            f"trace-attribute {self.path}: {len(self.runs)} run(s) "
            f"attributed, {len(self.skipped)} skipped"
        ]
        for run in self.runs:
            lines.append("")
            lines.append(run.render())
        for skip in self.skipped:
            lines.append("")
            lines.append(skip.render())
        return "\n".join(lines)


def _bound_trajectory(
    problem: Problem, forest: RunForest
) -> List[int]:
    """Lookahead bound on the replayed possession at each step start
    (index ``makespan`` is the final state)."""
    return [lookahead_bound_of_masks(problem, masks) for masks in forest.have_before]


def _decompose_gap(
    forest: RunForest,
    bound_curve: Sequence[int],
    diameter: int,
    per_step: Dict[int, Dict[str, int]],
) -> Dict[str, int]:
    """Split ``makespan − max(B_0, D)`` across blocking categories.

    Each step's loss is ``1 − (B_s − B_{s+1})``: zero when the run kept
    exact pace with the bound, positive when the bound stalled, negative
    when it dropped faster than one per step.  Positive losses go to the
    step's dominant blocking cause; everything signed or unexplained
    lands in :data:`GAP_SLACK_KEY`.  The sum telescopes to the gap
    exactly — see the module docstring.
    """
    terms: Dict[str, int] = {c: 0 for c in BLOCKING_CATEGORIES}
    slack = 0
    for s in range(forest.makespan):
        lost = 1 - (bound_curve[s] - bound_curve[s + 1])
        if lost == 0:
            continue
        counts = per_step.get(s)
        if lost > 0 and counts:
            terms[dominant_category(counts)] += lost
        else:
            slack += lost
    # Telescoping residue: Σ lost = M − B_0 + B_M.  Subtracting the
    # final bound (non-zero only for failed runs) and the diameter
    # term's excess over B_0 lands the total at M − max(B_0, D).
    slack -= bound_curve[forest.makespan]
    slack -= max(0, diameter - bound_curve[0])
    out = {c: n for c, n in terms.items() if n}
    if slack:
        out[GAP_SLACK_KEY] = slack
    return out


def _attribute(
    run: TraceRun, forest: RunForest, problem: Problem, diameter: int
) -> RunAttribution:
    """Attribute one run from its forest, its decoded ``problem`` and that
    problem's diameter bound; raises
    :class:`repro.core.bounds.InfeasibleBoundError` when the instance
    admits no finite bound (the caller turns that into a skip)."""
    bound_curve = _bound_trajectory(problem, forest)

    table = blocking_table(forest)
    blocking: Dict[str, int] = {}
    per_step: Dict[int, Dict[str, int]] = {}
    for (_vertex, step), category in table.items():
        blocking[category] = blocking.get(category, 0) + 1
        bucket = per_step.setdefault(step, {})
        bucket[category] = bucket.get(category, 0) + 1

    path = critical_path(forest)
    finish = finish_times(forest)
    return RunAttribution(
        run=forest.run,
        engine=forest.engine,
        heuristic=forest.heuristic,
        problem=str(run.start.get("problem", forest.instance.name or "?")),
        makespan=forest.makespan,
        success=forest.success,
        bound_lookahead=bound_curve[0],
        bound_diameter=diameter,
        gap_terms=_decompose_gap(forest, bound_curve, diameter, per_step),
        blocking=blocking,
        path=path,
        arrivals=len(forest.steps),
        zero_slack=finish.count(forest.makespan),
        max_slack=forest.makespan - min(finish, default=forest.makespan),
    )


def attribute_events(
    events: Sequence[JsonDict], path: str = "<events>"
) -> AttributionReport:
    """Validate and attribute every run of an event stream.

    Each run is replayed once: the same :class:`ForestReplay` walk both
    validates it and records its forest.  Any §2 violation anywhere in
    the trace aborts the whole attribution with :class:`AttributionError`
    naming the first fault — a forest built over corrupt transfers would
    be confidently wrong.  Dynamic-conditions runs and infeasible
    instances are *skipped* (with the reason recorded), not errors: the
    trace is fine, the analysis just does not apply.
    """
    _header, runs = split_runs(events)
    verdict = ValidationReport(path=path)
    report = AttributionReport(path=path)
    decode = InstanceDecoder()
    # The runs of a sweep trace share one instance: ``decode`` returns
    # the same object for each, and its problem and diameter bound are
    # built once.
    shared: Optional[Tuple[DecodedInstance, Problem, int]] = None
    for run in runs:
        replay = ForestReplay(run, verdict, decode)
        replay.walk()
        if not verdict.ok:
            continue  # keep validating: the refusal counts every violation
        if run.engine == "dynamic":
            report.skipped.append(
                SkippedRun(
                    run=run.run,
                    engine=run.engine,
                    heuristic=run.heuristic,
                    reason="dynamic-conditions run: the arc set changes "
                    "each turn, so arc-level blocking cannot be "
                    "reconstructed from the trace",
                )
            )
            continue
        forest = replay.forest()
        try:
            if shared is None or shared[0] is not forest.instance:
                problem = Problem.from_dict(run.start["instance"])
                shared = (forest.instance, problem, diameter_knowledge_bound(problem))
            report.runs.append(_attribute(run, forest, shared[1], shared[2]))
        except InfeasibleBoundError as exc:
            report.skipped.append(
                SkippedRun(
                    run=run.run,
                    engine=run.engine,
                    heuristic=run.heuristic,
                    reason=f"no finite lower bound: {exc}",
                )
            )
    if not verdict.ok:
        first = verdict.violations[0]
        raise AttributionError(
            f"refusing to attribute an invalid trace: {first.message} "
            f"({len(verdict.violations)} violation(s) total)",
            path=path,
            run=first.run,
            step=first.step,
            invariant=first.invariant,
        )
    return report


def attribute_trace(path: str) -> AttributionReport:
    """Load a trace JSONL file and attribute every run in it."""
    return attribute_events(read_events(path), path=path)


def summary_event(attribution: RunAttribution) -> JsonDict:
    """One run's attribution as a schema-valid ``run_attribution`` event.

    The compact, flat companion to :meth:`RunAttribution.as_dict`: what
    ``trace-attribute --format json`` embeds per run, built through
    :func:`~repro.obs.events.make_event`, which holds it to the registry.
    """
    fields = {
        "run": attribution.run,
        "engine": attribution.engine,
        "heuristic": attribution.heuristic,
        "problem": attribution.problem,
        "makespan": attribution.makespan,
        "success": attribution.success,
        "bound_lookahead": attribution.bound_lookahead,
        "bound_diameter": attribution.bound_diameter,
        "gap": attribution.gap,
        "gap_terms": dict(attribution.gap_terms),
        "blocking": dict(attribution.blocking),
        "path_length": attribution.path.length,
        "path_hops": len(attribution.path.hops),
        "path_wait_steps": attribution.path.wait_steps,
        "dominant_cause": attribution.dominant_cause,
        "arrivals": attribution.arrivals,
        "zero_slack": attribution.zero_slack,
        "max_slack": attribution.max_slack,
    }
    return make_event("run_attribution", fields)
