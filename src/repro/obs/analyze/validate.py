"""Trace-replay validation: re-check schedule validity from a trace alone.

A trace produced by any engine is a *claim* about a run: the instance it
started from (``run_start.instance``), the per-arc token movement of
every timestep (``step.transfers``), and the outcome (``run_end``).
:func:`validate_trace` replays that claim and re-checks the paper's §2
schedule-validity invariants without re-running the simulator:

``arc-capacity``
    Every transfer uses a declared arc and sends at most its capacity.
``sender-possession``
    A vertex only sends tokens it possessed at the start of the step.
``monotone-have``
    Possession only grows: no vertex's reported deficit ever rises.
``step-consistency``
    The aggregate fields each ``step`` event reports (``deficit``,
    ``deficit_by_vertex``, ``gained``, ``moves``, ``sends``) match the
    state reconstructed from the transfers.
``final-want``
    The ``run_end`` verdict matches the reconstructed final state
    (``success`` iff ``w(v) ⊆ p(v)`` everywhere), and its
    ``makespan``/``bandwidth`` aggregates match the replay.
``trace-structure``
    The trace is well-formed enough to replay at all: every record
    matches its kind's schema in :data:`repro.obs.events.EVENT_SCHEMAS`
    (named with its run and, for ``step``/``stall`` records, its step),
    ``run_start`` carries an instance, steps are contiguously numbered
    and carry transfers, every transfer is a ``[src, dst, [tokens]]``
    entry over the instance's vertices and tokens, and every run is
    closed by a ``run_end``.

:class:`RunReplay` is the only possession replay in :mod:`repro.obs`:
it walks a run's steps once, checks the invariants, and hands every
step to :meth:`RunReplay.on_step`.  It has two consumers.  Validation
keeps nothing per step, so ``trace-verify`` memory stays O(n + trace);
the causal forest (:class:`repro.obs.analyze.causal.ForestReplay`)
records every step and refuses at the first step-level violation.

The replay is an independent implementation of the semantics, importing
nothing from the simulation kernel, so an engine bug cannot hide by also
corrupting the validator.  It reads the JSON as parsed, checking each
transfer once: ``src`` and ``dst`` must be JSON integers naming vertices
and the tokens a list of JSON integers naming tokens (a float, a string
or ``true`` is malformed, never read as some other id), folded into a
bitmask through the per-run table ``bits[t] == 1 << t``.  Possession,
first deliveries and the step aggregates are int mask arithmetic from
there; arcs are the int ids ``src * n + dst``, and a checked transfer is
handed on as the trace's own ``[src, dst, tokens]`` entry, so the walk
builds no tuple per transfer.  The runs of a trace over one instance
share one decode of it
(:class:`~repro.obs.analyze.runs.InstanceDecoder`).
Dynamic-conditions traces (``engine: "dynamic"``) skip the two arc-level
checks: their arc set and capacities change per timestep and only the
turn's engine knows them; everything state-based is still enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.analyze.runs import (
    DecodedInstance,
    InstanceDecoder,
    JsonDict,
    TraceRun,
    split_runs,
    token_mask,
    tokens_of,
)
from repro.obs.events import read_events, validate_event

__all__ = ["RunReplay", "ValidationReport", "Violation", "validate_events", "validate_trace"]

#: Invariant codes in the order the run replay checks them.
INVARIANTS = (
    "trace-structure",
    "arc-capacity",
    "sender-possession",
    "monotone-have",
    "step-consistency",
    "final-want",
)

#: One checked ``step.transfers`` entry: the trace's own
#: ``[src, dst, tokens]`` list, not copied.
Transfer = List[Any]
#: Tokens carried per arc in one step, by arc id: ``src * n + dst -> count``.
ArcLoad = Dict[int, int]


@dataclass(frozen=True)
class Violation:
    """One invariant broken at one point of one run."""

    run: int
    step: Optional[int]
    invariant: str
    message: str

    def render(self) -> str:
        where = f"run {self.run}"
        if self.step is not None:
            where += f" step {self.step}"
        return f"{where}: [{self.invariant}] {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able view for ``--format json`` consumers."""
        return {
            "run": self.run,
            "step": self.step,
            "invariant": self.invariant,
            "message": self.message,
        }


@dataclass
class ValidationReport:
    """Everything one validation pass established about a trace."""

    path: str
    runs_checked: int = 0
    steps_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    #: Non-failure observations (e.g. skipped arc checks on dynamic runs).
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"trace-verify {self.path}: {self.runs_checked} run(s), "
            f"{self.steps_checked} step(s) replayed"
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.ok:
            lines.append("  all schedule-validity invariants hold")
        else:
            lines.append(f"  {len(self.violations)} violation(s):")
            for violation in self.violations:
                lines.append(f"    {violation.render()}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able view for ``--format json`` consumers."""
        return {
            "path": self.path,
            "ok": self.ok,
            "runs_checked": self.runs_checked,
            "steps_checked": self.steps_checked,
            "violations": [v.as_dict() for v in self.violations],
            "notes": list(self.notes),
        }


class RunReplay:
    """Replays one run once, recording violations into ``report``.

    :meth:`walk` replays the steps, handing each to :meth:`on_step`, then
    checks the ``run_end`` verdict.  Validation keeps nothing per step;
    :class:`repro.obs.analyze.causal.ForestReplay` records every step.
    """

    def __init__(
        self, run: TraceRun, report: ValidationReport, decode: InstanceDecoder
    ) -> None:
        self.run = run
        self.report = report
        #: Decodes the ``run_start`` payload; one decoder serves all the
        #: runs of a call, so runs over one instance share its decode.
        self.decode = decode
        #: The decoded instance; ``None`` when the run cannot be replayed.
        self.instance: Optional[DecodedInstance] = None
        #: ``bits[t] == 1 << t`` for the instance's tokens.
        self.bits: List[int] = []
        #: Possession masks; the start-of-step state during :meth:`on_step`.
        #: Each step replaces the list rather than mutating it.
        self.have: List[int] = []
        self.moves = 0

    def on_step(
        self, step: int, transfers: List[Transfer], arc_load: ArcLoad, fresh: List[int]
    ) -> None:
        """Consume one step: its well-formed transfers in emission order,
        the tokens carried per arc, and per transfer the mask of tokens it
        is the first to deliver to a receiver that lacked them."""

    def _flag(self, invariant: str, message: str, step: Optional[int] = None) -> None:
        self.report.violations.append(
            Violation(run=self.run.run, step=step, invariant=invariant, message=message)
        )

    def walk(self) -> None:
        """Check every record against the schema, decode the instance,
        replay every step, check the verdict."""
        run = self.run
        for event in run.events:
            step = event.get("step")
            if event["event"] not in ("step", "stall") or type(step) is not int:
                step = None
            for problem in validate_event(event):
                self._flag(
                    "trace-structure", f"record breaks the event schema: {problem}", step=step
                )
        if run.start is None:
            self._flag(
                "trace-structure",
                "run has step/run_end events but no run_start",
            )
            return
        payload = run.start.get("instance")
        if payload is None:
            self._flag(
                "trace-structure",
                "run_start carries no instance payload (trace predates the "
                "analytics schema); re-record the trace to replay-validate it",
            )
            return
        try:
            instance = self.decode(payload)
        except ValueError as exc:
            self._flag("trace-structure", f"undecodable instance payload: {exc}")
            return
        if run.engine == "dynamic":
            self.report.notes.append(
                f"run {run.run} is a dynamic-conditions run; per-step arc "
                f"existence/capacity checks are skipped (the arc set changes "
                f"each turn)"
            )
        self.instance = instance
        self.bits = [1 << t for t in range(instance.num_tokens)]
        self.have = list(instance.have_masks)
        reported = instance.deficits(self.have)
        start_deficit = run.start.get("total_deficit")
        if start_deficit is not None and start_deficit != sum(reported):
            self._flag(
                "step-consistency",
                f"run_start total_deficit={start_deficit} but the instance's "
                f"initial wanted-but-missing count is {sum(reported)}",
            )
        for expected_step, event in enumerate(run.steps):
            self._replay_step(instance, event, expected_step, reported)
            self.report.steps_checked += 1
        self._check_end(instance)

    # ------------------------------------------------------------------
    def _replay_step(
        self, instance: DecodedInstance, event: JsonDict, expected_step: int, reported: List[int]
    ) -> None:
        said = event.get("step", expected_step)
        step = said if isinstance(said, int) else expected_step
        if said != expected_step:
            self._flag(
                "trace-structure",
                f"step events are not contiguous: expected step "
                f"{expected_step}, event says {said}",
                step=step,
            )
        raw = event.get("transfers")
        if not isinstance(raw, list):
            self._flag(
                "trace-structure",
                "step event carries no transfers list (trace predates the "
                "analytics schema); re-record the trace to replay-validate it",
                step=step,
            )
            return
        have, bits, n = self.have, self.bits, instance.num_vertices
        capacities = instance.capacities
        check_arcs = self.run.engine != "dynamic"
        transfers: List[Transfer] = []
        arc_load: ArcLoad = {}
        fresh: List[int] = []
        after = list(have)
        for entry in raw:
            try:
                src, dst, sent = entry
                if not (type(src) is int and type(dst) is int and 0 <= src < n and 0 <= dst < n):
                    raise ValueError
                mask = token_mask(sent, bits)
            except (TypeError, ValueError):
                message = f"malformed transfer {entry!r}: expected [src, dst, [tokens]] in range"
                self._flag("trace-structure", message, step=step)
                continue
            arc, count = src * n + dst, len(sent)
            if check_arcs:
                cap = capacities.get(arc)
                if cap is None:
                    self._flag(
                        "arc-capacity",
                        f"transfer on undeclared arc ({src}, {dst})",
                        step=step,
                    )
                elif count > cap:
                    self._flag(
                        "arc-capacity",
                        f"{count} tokens sent on arc ({src}, {dst}) of "
                        f"capacity {cap}",
                        step=step,
                    )
            unpossessed = mask & ~have[src]
            if unpossessed:
                self._flag(
                    "sender-possession",
                    f"vertex {src} sent tokens {tokens_of(unpossessed)} it did "
                    f"not possess at the start of the step",
                    step=step,
                )
            transfers.append(entry)
            arc_load[arc] = arc_load.get(arc, 0) + count
            already = after[dst]
            fresh.append(mask & ~already)
            after[dst] = already | mask
        self.on_step(step, transfers, arc_load, fresh)
        self.have = after
        moves = sum(arc_load.values())
        self.moves += moves
        gained = sum(map(int.bit_count, fresh))
        self._check_step_report(instance, event, step, reported, gained, moves)

    def _check_step_report(
        self,
        instance: DecodedInstance,
        event: JsonDict,
        step: int,
        reported: List[int],
        gained: int,
        moves: int,
    ) -> None:
        """Check the step's self-reported aggregates against the replay."""
        emitted = event.get("deficit_by_vertex")
        if (
            isinstance(emitted, list)
            and len(emitted) == instance.num_vertices
            and all(isinstance(x, int) for x in emitted)
        ):
            for v, (prev, now) in enumerate(zip(reported, emitted)):
                if now > prev:
                    self._flag(
                        "monotone-have",
                        f"vertex {v}'s reported deficit rose {prev} -> {now}; "
                        f"have-sets only ever grow",
                        step=step,
                    )
            reported[:] = emitted
        replayed = instance.deficits(self.have)
        checks: List[tuple[str, Any, Any]] = [
            ("deficit_by_vertex", emitted, replayed),
            ("deficit", event.get("deficit"), sum(replayed)),
            ("gained", event.get("gained"), gained),
            ("moves", event.get("moves"), moves),
            ("sends", event.get("sends"), len(event["transfers"])),
        ]
        for name, got, want in checks:
            if got is not None and got != want:
                self._flag(
                    "step-consistency",
                    f"step reports {name}={got} but replaying its transfers "
                    f"gives {want}",
                    step=step,
                )

    def _check_end(self, instance: DecodedInstance) -> None:
        have, makespan = self.have, len(self.run.steps)
        end = self.run.end
        unmet = [
            v
            for v in range(instance.num_vertices)
            if instance.want_masks[v] & ~have[v]
        ]
        self.report.runs_checked += 1
        if end is None:
            self._flag(
                "trace-structure",
                "run has no run_end event (trace truncated); final-state "
                "invariants cannot be confirmed",
            )
            return
        success = bool(end.get("success"))
        if success and unmet:
            v = unmet[0]
            missing = tokens_of(instance.want_masks[v] & ~have[v])
            self._flag(
                "final-want",
                f"run_end claims success but vertex {v} still lacks wanted "
                f"tokens {missing} (and {len(unmet) - 1} other vertex(es) "
                f"are unmet)",
                step=makespan - 1 if makespan else None,
            )
        elif not success and not unmet:
            self._flag(
                "final-want",
                "run_end claims failure but every want is met in the "
                "replayed final state",
            )
        for name, got, want in (
            ("makespan", end.get("makespan"), makespan),
            ("bandwidth", end.get("bandwidth"), self.moves),
        ):
            if got is not None and got != want:
                self._flag(
                    "final-want",
                    f"run_end reports {name}={got} but the replay gives {want}",
                )


def validate_events(
    events: Sequence[JsonDict], path: str = "<events>"
) -> ValidationReport:
    """Replay-validate an already-parsed event stream."""
    report = ValidationReport(path=path)
    _header, runs = split_runs(events)
    if not runs:
        report.notes.append("trace contains no runs")
    decode = InstanceDecoder()
    for run in runs:
        RunReplay(run, report, decode).walk()
    return report


def validate_trace(path: str) -> ValidationReport:
    """Load a trace JSONL file and replay-validate every run in it."""
    return validate_events(read_events(path), path=path)
