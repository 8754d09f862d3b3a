"""Synchronous round-based simulator for OCD heuristics.

The engine owns the ground-truth state of one run: the possession vector
``p_i`` from Section 3.1, held in an incrementally maintained
:class:`repro.sim.state.SimState`.  Each timestep it hands the current
state to a heuristic as a read-only :class:`StepContext`, receives a
proposed set of sends, *validates the proposal against the model
constraints* (:func:`repro.core.schedule.check_sends` — a buggy
heuristic raises :class:`HeuristicViolation` instead of silently
cheating), applies it, and checks for success.  That loop is written
once, in :class:`StepDriver`; :class:`Engine`, the LOCD
:class:`repro.locd.LocalEngine` and the changing-conditions
:class:`repro.extensions.dynamic.DynamicEngine` differ only in where
their proposals come from.

The engine presents a global view of the state.  Heuristics differ in how
much of that view they are allowed to read — e.g. Round-Robin only reads
the sender's own tokens while Global reads everything — and the strict
local-knowledge (LOCD) runner in :mod:`repro.locd` enforces locality
mechanically by constructing per-vertex knowledge views instead.

Per-step cost is O(delta), not O(swarm): the success test is a counter
read, the stall test is one vectorized comparison over the arcs (run
only after a step that gained nothing), and the :class:`StepContext` is
a zero-copy view over the kernel's live state (the pre-kernel loop
snapshotted possession into fresh tuples every step).  A heuristic with
a ``propose_vector`` skips the per-arc Python proposal and validation
loops: :class:`Engine` takes that vector path whenever the heuristic has
one.  Schedules are byte-identical to the frozen pre-kernel loop in
:mod:`repro.sim.reference` on either path, which the equivalence suite
enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Final,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.core.metrics import ScheduleMetrics, evaluate_schedule
from repro.core.problem import Problem
from repro.core.schedule import MoveError, Schedule, Timestep, check_sends
from repro.core.tokenset import TokenSet
from repro.obs.metrics import MetricsRegistry, current_metrics, null_timer
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.bitplanes import plane_count
from repro.sim.state import SimState

__all__ = [
    "Proposal",
    "StepContext",
    "HeuristicProtocol",
    "HeuristicViolation",
    "StallError",
    "count_stall",
    "RunResult",
    "StepDriver",
    "Engine",
    "run_heuristic",
    "emit_run_start",
    "emit_step_event",
    "resolve_state_factory",
    "violation",
]

Proposal = Mapping[Tuple[int, int], TokenSet]


def resolve_state_factory(
    kernel: Union[str, Callable[[Problem], SimState], None],
) -> Callable[[Problem], SimState]:
    """Resolve a driver's ``kernel=`` argument to a state factory.

    ``None`` selects :class:`SimState`, the one kernel.  A callable
    ``Problem -> SimState`` is returned as-is: the hook the seeded-fault
    tests and the benchmark suite's timed factory use to inject an
    instrumented kernel.  Any other value raises ``ValueError``.
    """
    if kernel is None:
        return SimState
    if kernel == "batch":
        # The benchmark suite (benchmarks/suite/workloads.py: Swarm.run,
        # traced_engine_run) still names the kernel that SimState
        # absorbed; "batch" is accepted as a synonym for None for it.
        return SimState
    if callable(kernel):
        return kernel
    raise ValueError(
        f"unknown kernel {kernel!r}; pass None or a Problem -> SimState callable"
    )


class HeuristicViolation(RuntimeError):
    """A heuristic proposed a send that breaks the model constraints."""


class StallError(RuntimeError):
    """A heuristic stopped making progress while demand remains."""


class StepContext:
    """Read-only view handed to a heuristic at each timestep.

    When built by an engine, ``possession`` and ``holder_counts`` are the
    kernel's *live* lists (zero-copy) and ``state`` exposes the
    :class:`SimState` so heuristics can consume the gain journal;
    ``version`` records the state version the view was issued at.  The
    view is only valid until the engine applies the step's sends —
    heuristics must not cache ``possession`` entries across steps (use
    ``state.gains_since`` to observe change instead).

    Constructed directly with plain sequences (``state=None``) it is a
    self-contained snapshot, which the heuristic unit tests and the
    gossip-stale LOCD views rely on.
    """

    __slots__ = (
        "problem",
        "step",
        "possession",
        "holder_counts",
        "rng",
        "state",
        "version",
        "_outstanding",
    )

    def __init__(
        self,
        problem: Problem,
        step: int,
        possession: Sequence[TokenSet],
        holder_counts: Sequence[int],
        rng: random.Random,
        state: Optional[SimState] = None,
    ) -> None:
        # Final: a heuristic reads the view and never rebinds it (mypy).
        self.problem: Final = problem
        self.step: Final = step
        self.possession: Final = possession
        self.holder_counts: Final = holder_counts
        self.rng: Final = rng
        self.state: Final = state
        self.version: Final = state.version if state is not None else 0
        self._outstanding: Optional[int] = None

    def useful(self, src: int, dst: int) -> TokenSet:
        """Tokens ``src`` holds that ``dst`` lacks — the flooding notion
        of a send that "can increase knowledge"."""
        return self.possession[src] - self.possession[dst]

    def outstanding(self, v: int) -> TokenSet:
        """Tokens ``v`` wants but does not yet possess."""
        return self.problem.want[v] - self.possession[v]

    def total_outstanding(self) -> int:
        """Total wanted-but-missing token count across all vertices.

        O(1) when kernel-backed (the deficit counter); computed once and
        cached for snapshot contexts.
        """
        if self.state is not None:
            return self.state.total_deficit
        if self._outstanding is None:
            self._outstanding = sum(
                len(self.outstanding(v)) for v in range(self.problem.num_vertices)
            )
        return self._outstanding


class HeuristicProtocol(Protocol):
    """What the engine requires of a heuristic."""

    name: str

    def reset(self, problem: Problem, rng: random.Random) -> None:
        """Prepare per-run state before the first timestep."""

    def propose(self, ctx: StepContext) -> Proposal:
        """Return the sends for this timestep as ``{(src, dst): tokens}``.

        A heuristic may also define ``propose_vector(state)`` returning a
        :class:`repro.sim.state.VectorProposal`; :class:`Engine` then
        calls that instead (see its docstring)."""


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    problem: Problem
    heuristic_name: str
    schedule: Schedule
    success: bool
    #: Total gossip facts learned over the run (LOCD runs only; 0 for the
    #: global-view engine), summed from
    #: :meth:`repro.locd.knowledge.GossipState.advance`; see docs/MODEL.md §3.
    knowledge_cost: int = 0

    @property
    def makespan(self) -> int:
        return self.schedule.makespan

    @property
    def bandwidth(self) -> int:
        return self.schedule.bandwidth

    def metrics(self) -> ScheduleMetrics:
        return evaluate_schedule(self.problem, self.schedule)


def emit_run_start(
    tracer: Tracer,
    engine: str,
    problem: Problem,
    heuristic: str,
    state: SimState,
    max_steps: int,
) -> None:
    """Emit the ``run_start`` event every simulation loop shares.

    Only deterministic facts of the instance and configuration — never
    wall-clock or process identity — so traces from identical seeds are
    byte-identical (the determinism suite compares raw bytes).

    Carries the full instance (``Problem.to_dict``) so a trace is
    self-contained: the replay validator (:mod:`repro.obs.analyze`)
    re-checks schedule validity from the trace alone, without the
    original problem file or a re-run.
    """
    tracer.emit(
        "run_start",
        {
            "engine": engine,
            "heuristic": heuristic,
            "problem": problem.name,
            "n": problem.num_vertices,
            "tokens": problem.num_tokens,
            "planes": plane_count(problem.num_tokens),
            "arcs": len(problem.arcs),
            "max_steps": max_steps,
            "total_deficit": state.total_deficit,
            "instance": problem.to_dict(),
        },
    )


def emit_step_event(
    tracer: Tracer,
    problem: Problem,
    state: SimState,
    timestep: Timestep,
    step: int,
    version_before: int,
    extra: Optional[Mapping[str, int]] = None,
) -> None:
    """Emit one per-timestep ``step`` event from the kernel's live state.

    Carries the dynamics the end-of-run aggregates hide: tokens moved
    and actually gained, the remaining per-vertex deficit, the
    holder-count histogram (rarest-token starvation shows up here), arc
    utilization, and ``transfers`` — the full per-arc token movement
    (sorted ``[src, dst, [tokens...]]`` triples), which is what lets
    ``trace-diff`` localize a divergence down to the token and lets
    ``trace-verify`` replay the run.  Callers only reach this behind a
    hoisted ``tracer.enabled`` check, so the untraced hot path never
    builds any of these payloads.
    """
    moves = 0
    for tokens in timestep.sends.values():
        moves += len(tokens)
    gained = 0
    for _vertex, mask in state.gains_since(version_before):
        gained += mask.bit_count()
    hist: Dict[int, int] = {}
    for count in state.holder_counts:
        hist[count] = hist.get(count, 0) + 1
    num_arcs = len(problem.arcs)
    fields: Dict[str, object] = {
        "step": step,
        "sends": len(timestep.sends),
        "moves": moves,
        "gained": gained,
        "deficit": state.total_deficit,
        "deficit_by_vertex": list(state.deficit),
        "holder_hist": [[count, hist[count]] for count in sorted(hist)],
        "arc_util": round(len(timestep.sends) / num_arcs, 6) if num_arcs else 0.0,
        "transfers": [
            [src, dst, sorted(timestep.sends[(src, dst)])]
            for src, dst in sorted(timestep.sends)
        ],
    }
    if extra:
        fields.update(extra)
    tracer.emit("step", fields)


def count_stall(
    tracer: Tracer, state: SimState, timestep: Timestep, step: int, stalled_for: int
) -> bool:
    """The stall test after a step that gained nothing: whether it was
    one more empty step, emitting its ``stall`` event.  Raises
    :class:`StallError`, after a terminal ``stall`` event, when no arc
    carries a useful token any more — possession only grows, so that
    state can never change again."""
    if not state.any_useful_arc():
        if tracer.enabled:
            tracer.emit(
                "stall",
                {"step": step, "consecutive": stalled_for + 1, "terminal": True},
            )
        raise StallError(
            f"no arc carries a useful token at step {step + 1} while "
            f"demand remains; the instance is unsatisfiable from this state"
        )
    if timestep:
        return False
    if tracer.enabled:
        tracer.emit("stall", {"step": step, "consecutive": stalled_for + 1})
    return True


def violation(label: str, step: int, err: MoveError) -> HeuristicViolation:
    """Name the heuristic and step of a send :func:`check_sends` rejected."""
    return HeuristicViolation(f"step {step}: heuristic {label!r}: {err}")


class StepDriver:
    """The one synchronous step loop behind every simulator (§3.1).

    Per timestep :meth:`run` proposes (:meth:`_propose`, timed as
    ``heuristic_select``), validates and applies (:meth:`_validate` plus
    ``SimState.apply_arrivals``, timed as ``kernel_apply``), emits the
    ``step`` event (:meth:`_finish_step`), counts, and tests success;
    with a ``stall_limit`` (:class:`Engine` only) it then runs the stall
    test.  Drivers differ only in those hooks (DESIGN.md §4c).
    """

    engine_name = "sim"  # the ``engine`` field of ``run_start``
    stall_limit: Optional[int] = None
    success_predicate: Optional[Callable[[Sequence[TokenSet]], bool]] = None
    #: Gossip facts learned so far; only LOCD runs track and report it.
    _knowledge_cost: Optional[int] = None

    def __init__(
        self,
        problem: Problem,
        rng: Optional[random.Random],
        max_steps: int,
        tracer: Optional[Tracer],
        metrics: Optional[MetricsRegistry],
        kernel: Union[str, Callable[[Problem], SimState], None],
    ) -> None:
        self.problem = problem
        self.rng = rng if rng is not None else random.Random(0)
        self.max_steps = max_steps
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        self._state_factory = resolve_state_factory(kernel)

    def run(self) -> RunResult:
        problem = self.problem
        state = self._state_factory(problem)
        predicate = self.success_predicate
        stall_limit = self.stall_limit
        # Hoisted once per run: the untraced/unprofiled loop below never
        # builds an event payload and never consults a clock.
        tracer = self.tracer
        tracing = tracer.enabled
        metrics = self.metrics
        timer = self._timer = null_timer if metrics is None else metrics.timer
        self._turn = problem  # the graph proposals are validated against
        label = self._label = self._start(state)
        # ``possession`` is the kernel's live list, so binding it once is safe.
        satisfied = state.satisfied if predicate is None else partial(predicate, state.possession)
        steps: List[Timestep] = []
        stalled_for = 0
        if tracing:
            emit_run_start(
                tracer, self.engine_name, problem, label, state, self.max_steps
            )
        success = satisfied()
        while not success and len(steps) < self.max_steps:
            step = len(steps)
            with timer("heuristic_select"):
                proposal = self._propose(state, step)
            version_before = state.version
            with timer("kernel_apply"):
                timestep, arrivals = self._validate(proposal, state, step)
                state.apply_arrivals(arrivals)
            steps.append(timestep)
            self._finish_step(state, timestep, arrivals, step, version_before)
            if metrics is not None:
                metrics.counter("steps").inc()
                metrics.gauge("deficit").set(state.total_deficit)
            success = satisfied()
            if success or stall_limit is None:
                continue
            if state.version != version_before:
                stalled_for = 0
            elif count_stall(tracer, state, timestep, step, stalled_for):
                stalled_for += 1
                if stalled_for >= stall_limit:
                    raise StallError(
                        f"heuristic {label!r} proposed nothing for {stalled_for} "
                        f"consecutive timesteps at step {len(steps)} with demand "
                        f"remaining"
                    )
            else:
                stalled_for = 0
        result = RunResult(
            problem=problem,
            heuristic_name=label,
            schedule=Schedule(steps),
            success=success,
            knowledge_cost=self._knowledge_cost or 0,
        )
        if tracing:
            end = {
                "success": success,
                "makespan": result.makespan,
                "bandwidth": result.bandwidth,
            }
            if self._knowledge_cost is not None:
                end["knowledge_cost"] = self._knowledge_cost
            tracer.emit("run_end", end)
        return result

    def _start(self, state: SimState) -> str:
        """Reset per-run state; return the run's heuristic label."""
        raise NotImplementedError

    def _propose(self, state: SimState, step: int) -> Any:
        """This step's sends, in the form :meth:`_validate` accepts."""
        raise NotImplementedError

    def _validate(
        self, proposal: Proposal, state: SimState, step: int
    ) -> Tuple[Timestep, Dict[int, int]]:
        """Check ``proposal`` against this turn's graph (:func:`check_sends`)."""
        try:
            sends, arrivals = check_sends(self._turn, proposal, state.possession_masks)
        except MoveError as err:
            raise violation(self._label, step, err) from None
        return Timestep.from_validated(sends), arrivals

    def _finish_step(
        self,
        state: SimState,
        timestep: Timestep,
        arrivals: Dict[int, int],
        step: int,
        version_before: int,
    ) -> None:
        """React to the applied step and emit its ``step`` event."""
        if self.tracer.enabled:
            emit_step_event(
                self.tracer, self.problem, state, timestep, step, version_before
            )


class Engine(StepDriver):
    """Drives one heuristic over one problem to completion.

    Parameters
    ----------
    problem:
        The instance to solve.
    heuristic:
        Any object satisfying :class:`HeuristicProtocol`.
    rng:
        Randomness source for the heuristic; pass a seeded
        ``random.Random`` for reproducible runs.
    max_steps:
        Hard cap on simulated timesteps.  Defaults to a generous multiple
        of the Theorem 1 move bound ``m(n-1)``.
    stall_limit:
        Consecutive timesteps with an *empty* proposal after which the run
        raises :class:`StallError`.  Independently of this counter, the
        engine raises immediately when no arc anywhere carries a useful
        token while demand remains — possession only ever grows, so that
        state can never change again.  No-gain steps with non-empty
        proposals (e.g. Round-Robin cycling past tokens the peer already
        holds) are not stalls and simply count toward ``max_steps``.
    tracer:
        Trace sink for per-timestep events (:mod:`repro.obs`).  ``None``
        resolves the ambient tracer (:func:`repro.obs.current_tracer`),
        which defaults to the disabled :data:`repro.obs.NULL_TRACER` —
        the hot path then pays one hoisted boolean check per run.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` receiving the phase
        timers (``heuristic_select``, ``kernel_apply``) and run counters
        behind ``--profile``.  ``None`` resolves the ambient registry
        (:func:`repro.obs.current_metrics`), which defaults to ``None``
        — the unprofiled path skips all timing and wall-clock never
        enters it.
    kernel:
        An injection hook, not a choice: ``None`` (the
        :class:`SimState` kernel) or a ``Problem -> SimState`` callable
        (:func:`resolve_state_factory`) that the seeded-fault tests and
        the benchmark suite's timed factory use.

    A heuristic exposing ``propose_vector`` (Round-Robin, local-rarest,
    random and sequential) runs on the vector path, skipping the
    per-arc Python proposal and validation loops; one returning
    ``None`` from it falls back to ``propose`` for the rest of the run.
    Schedules and traces are byte-identical on either path (the
    batch-equivalence suite enforces this).
    """

    def __init__(
        self,
        problem: Problem,
        heuristic: HeuristicProtocol,
        rng: Optional[random.Random] = None,
        max_steps: Optional[int] = None,
        stall_limit: int = 8,
        success_predicate: Optional[
            Callable[[Sequence[TokenSet]], bool]
        ] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        kernel: Union[str, Callable[[Problem], SimState], None] = None,
    ) -> None:
        if max_steps is None:
            max_steps = 4 * max(problem.move_bound(), 1) + 64
        super().__init__(problem, rng, max_steps, tracer, metrics, kernel)
        self.heuristic = heuristic
        self.stall_limit = stall_limit
        # The default predicate is the paper's: w(v) ⊆ p_t(v) everywhere.
        # Extensions (e.g. threshold coding, §6) substitute their own.
        self.success_predicate = success_predicate

    def _start(self, state: SimState) -> str:
        self.heuristic.reset(self.problem, self.rng)
        # Vector path: a heuristic that can propose as arrays.
        # ``propose_vector`` returning None means the configuration is
        # unsupported (e.g. an empty universe); the condition is static
        # per run, so fall back permanently.
        self._vector_fn: Optional[Callable[[SimState], Any]] = getattr(
            self.heuristic, "propose_vector", None
        )
        return self.heuristic.name

    def _propose(self, state: SimState, step: int) -> Any:
        if self._vector_fn is not None:
            vec = self._vector_fn(state)
            if vec is not None:
                return vec
            self._vector_fn = None
        ctx = StepContext(
            self.problem,
            step,
            state.possession,
            state.holder_counts,
            self.rng,
            state=state,
        )
        return self.heuristic.propose(ctx)

    def _validate(
        self, proposal: Any, state: SimState, step: int
    ) -> Tuple[Timestep, Dict[int, int]]:
        if self._vector_fn is None:
            return super()._validate(proposal, state, step)
        try:
            return state.validate_vector(proposal)
        except MoveError as err:
            raise violation(self._label, step, err) from None


def run_heuristic(
    problem: Problem,
    heuristic: HeuristicProtocol,
    seed: int = 0,
    max_steps: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> RunResult:
    """One-call convenience wrapper around :class:`Engine`."""
    return Engine(
        problem,
        heuristic,
        rng=random.Random(seed),
        max_steps=max_steps,
        tracer=tracer,
        metrics=metrics,
    ).run()
