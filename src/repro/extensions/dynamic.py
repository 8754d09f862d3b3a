"""Changing network conditions — the first open problem of Section 6.

    "We can consider that the capacity of each arc, or even the set of
    arcs themselves changes between turns.  By restricting the types of
    possible changes, this could model cross traffic, dynamic channel
    conditions, intermittent mobility, or even denial-of-service attacks.
    One interesting scenario would be to construct an on-line algorithm
    robust to adversarial network conditions and to compare its behavior
    to one with access to a network oracle that has perfect knowledge of
    current and future network conditions."

A :class:`CapacitySchedule` maps ``(timestep, arc) -> capacity`` (0 =
the arc is absent that turn).  :class:`DynamicEngine` runs the standard
driver loop with the per-step capacities, re-validating every heuristic
proposal against the *current* turn's graph; heuristics see the current
capacities through a per-step :class:`repro.core.Problem` view, i.e. they
are "robust" in the paper's sense of adapting each turn but having no
future knowledge.  :func:`oracle_makespan` is the network oracle: an
exact search over the time-expanded instance with full knowledge of
current *and future* conditions, for comparing online behavior against
clairvoyance.

Node arrivals and departures (the paper's third open problem) are the
special case where all arcs incident to a vertex drop to zero while it
is away — provided by :func:`churn_schedule`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.problem import Arc, Problem
from repro.core.schedule import Timestep
from repro.core.tokenset import TokenSet
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.engine import (
    HeuristicProtocol,
    Proposal,
    RunResult,
    StepContext,
    StepDriver,
    emit_step_event,
)
from repro.sim.state import SimState

__all__ = [
    "CapacitySchedule",
    "constant_conditions",
    "random_fluctuations",
    "periodic_outages",
    "churn_schedule",
    "DynamicEngine",
    "run_dynamic",
    "oracle_makespan",
]

CapacityFn = Callable[[int, Arc], int]


@dataclass(frozen=True)
class CapacitySchedule:
    """Per-timestep capacities for one problem's arcs.

    ``capacity_at(step, arc)`` returns the capacity of ``arc`` during
    ``step``; 0 means the arc is unusable that turn.  The schedule must
    be deterministic so online runs and the oracle see the same network.
    """

    problem: Problem
    capacity_fn: CapacityFn
    name: str = ""

    def capacity_at(self, step: int, arc: Arc) -> int:
        cap = self.capacity_fn(step, arc)
        if cap < 0:
            raise ValueError(
                f"capacity function returned {cap} for {arc} at step {step}"
            )
        return cap

    def problem_at(self, step: int) -> Problem:
        """The current turn's graph (arcs with zero capacity dropped)."""
        arcs = [
            (arc.src, arc.dst, cap)
            for arc in self.problem.arcs
            if (cap := self.capacity_at(step, arc)) > 0
        ]
        return Problem.build(
            self.problem.num_vertices,
            self.problem.num_tokens,
            arcs,
            {v: list(self.problem.have[v]) for v in range(self.problem.num_vertices)},
            {v: list(self.problem.want[v]) for v in range(self.problem.num_vertices)},
            name=f"{self.problem.name}@{step}",
        )


def constant_conditions(problem: Problem) -> CapacitySchedule:
    """The degenerate schedule: the static instance, every turn."""
    return CapacitySchedule(
        problem, lambda _step, arc: arc.capacity, name="constant"
    )


def random_fluctuations(
    problem: Problem, seed: int, low: float = 0.5, high: float = 1.0
) -> CapacitySchedule:
    """Cross-traffic model: each arc's capacity is scaled by a uniform
    factor in ``[low, high]`` each turn (deterministic in ``(step, arc)``
    via hashing, so runs are reproducible)."""
    if not 0.0 <= low <= high:
        raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")

    def fluctuate(step: int, arc: Arc) -> int:
        rng = random.Random((seed, step, arc.src, arc.dst).__hash__())
        factor = rng.uniform(low, high)
        return max(0, int(arc.capacity * factor))

    return CapacitySchedule(problem, fluctuate, name=f"fluctuating[{low},{high}]")


def periodic_outages(
    problem: Problem, period: int, down_for: int, seed: int = 0
) -> CapacitySchedule:
    """DoS/mobility model: each arc goes fully down for ``down_for``
    consecutive turns out of every ``period``, with a per-arc phase."""
    if period < 1 or not 0 <= down_for < period:
        raise ValueError(
            f"need period >= 1 and 0 <= down_for < period, got "
            f"{period}, {down_for}"
        )

    def outage(step: int, arc: Arc) -> int:
        phase = random.Random((seed, arc.src, arc.dst).__hash__()).randrange(period)
        return 0 if (step + phase) % period < down_for else arc.capacity

    return CapacitySchedule(problem, outage, name=f"outages({down_for}/{period})")


def churn_schedule(
    problem: Problem,
    away: Mapping[int, Sequence[Tuple[int, int]]],
) -> CapacitySchedule:
    """Arrivals and departures (Section 6): vertex ``v`` is absent during
    each half-open interval ``[start, stop)`` listed in ``away[v]``, during
    which every arc touching it has capacity 0.

    "This variant may be viewed as an instance of the 'Changing network
    conditions' with capacities to and from particular nodes going from
    zero to non-zero and back."
    """
    for v, intervals in away.items():
        if not 0 <= v < problem.num_vertices:
            raise ValueError(f"unknown vertex {v}")
        for start, stop in intervals:
            if not 0 <= start < stop:
                raise ValueError(
                    f"invalid absence interval [{start}, {stop}) for vertex {v}"
                )

    def is_away(v: int, step: int) -> bool:
        return any(start <= step < stop for start, stop in away.get(v, ()))

    def capacity(step: int, arc: Arc) -> int:
        if is_away(arc.src, step) or is_away(arc.dst, step):
            return 0
        return arc.capacity

    return CapacitySchedule(problem, capacity, name="churn")


class DynamicEngine(StepDriver):
    """The synchronous simulator under changing network conditions.

    Each turn, the heuristic receives a :class:`StepContext` built on the
    *current* turn's graph, so it adapts to conditions as they are — an
    online algorithm with a present-only network view.  Proposals are
    validated against the current capacities.  There is no stall
    detection: a dead network may come back next turn.
    """

    engine_name = "dynamic"

    def __init__(
        self,
        conditions: CapacitySchedule,
        heuristic: HeuristicProtocol,
        rng: Optional[random.Random] = None,
        max_steps: Optional[int] = None,
        success_predicate: Optional[Callable[[Sequence[TokenSet]], bool]] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        base = conditions.problem
        if max_steps is None:
            max_steps = 8 * max(base.move_bound(), 1) + 64
        # The state is built on the *base* problem: per-turn graphs share
        # its have/want vectors and only differ in arcs, which SimState
        # never consults for state updates.
        super().__init__(base, rng, max_steps, tracer, metrics, None)
        self.conditions = conditions
        self.heuristic = heuristic
        # As in repro.sim.Engine: the default is the paper's predicate;
        # the coding extension substitutes threshold reconstruction.
        self.success_predicate = success_predicate

    def _start(self, state: SimState) -> str:
        self._arcs: Optional[Set[Arc]] = None
        return f"{self.heuristic.name}@{self.conditions.name}"

    def _propose(self, state: SimState, step: int) -> Proposal:
        current = self._turn = self.conditions.problem_at(step)
        # Heuristics keep per-run state keyed to a problem; reset when
        # the turn's graph changes shape.
        arcs = set(current.arcs)
        if arcs != self._arcs:
            self.heuristic.reset(current, self.rng)
            self._arcs = arcs
        ctx = StepContext(
            current,
            step,
            state.possession,
            state.holder_counts,
            self.rng,
            state=state,
        )
        return self.heuristic.propose(ctx)

    def _finish_step(
        self,
        state: SimState,
        timestep: Timestep,
        arrivals: Dict[int, int],
        step: int,
        version_before: int,
    ) -> None:
        if self.tracer.enabled:
            emit_step_event(
                self.tracer,
                self._turn,
                state,
                timestep,
                step,
                version_before,
                extra={"arcs_up": len(self._turn.arcs)},
            )


def run_dynamic(
    conditions: CapacitySchedule,
    heuristic: HeuristicProtocol,
    seed: int = 0,
    max_steps: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> RunResult:
    """One-call wrapper around :class:`DynamicEngine`."""
    return DynamicEngine(
        conditions,
        heuristic,
        rng=random.Random(seed),
        max_steps=max_steps,
        tracer=tracer,
        metrics=metrics,
    ).run()


def oracle_makespan(
    conditions: CapacitySchedule,
    max_horizon: int,
    max_states: int = 500_000,
) -> Optional[int]:
    """The network oracle: optimal makespan with perfect knowledge of
    current *and future* conditions.

    Breadth-first search over possession states of the time-expanded
    network, one layer per timestep, each layer using that turn's
    capacities and the full-load restriction (valid for makespan, as in
    :mod:`repro.exact.branch_and_bound`).  Small instances only.  Returns
    ``None`` when ``max_horizon`` is not enough.
    """
    base = conditions.problem
    want_masks = tuple(w.mask for w in base.want)

    def satisfied(state: Tuple[int, ...]) -> bool:
        return all(w & ~m == 0 for w, m in zip(want_masks, state))

    start = tuple(h.mask for h in base.have)
    if satisfied(start):
        return 0
    frontier = {start}
    for step in range(max_horizon):
        current = conditions.problem_at(step)
        next_frontier = set()
        for state in frontier:
            for successor in _full_load_successors(current, state):
                if satisfied(successor):
                    return step + 1
                next_frontier.add(successor)
                if len(next_frontier) > max_states:
                    raise MemoryError(
                        f"oracle search exceeded {max_states} states; "
                        f"the instance is too large for exact clairvoyance"
                    )
        if not next_frontier:
            return None
        frontier = next_frontier
    return None


def _full_load_successors(problem: Problem, state: Tuple[int, ...]):
    """All successor states where each arc carries a full useful load."""
    from itertools import combinations

    choices: List[Tuple[int, List[int]]] = []  # (dst, [subset masks])
    for arc in problem.arcs:
        useful_mask = state[arc.src] & ~state[arc.dst]
        if not useful_mask:
            continue
        useful = []
        mask = useful_mask
        while mask:
            low = mask & -mask
            useful.append(low)
            mask ^= low
        k = min(arc.capacity, len(useful))
        subsets = []
        for combo in combinations(useful, k):
            m = 0
            for bit in combo:
                m |= bit
            subsets.append(m)
        choices.append((arc.dst, subsets))
    if not choices:
        # Nothing can move this turn (e.g. every incident arc is down):
        # the state simply carries over to the next timestep.
        yield state
        return

    def rec(idx: int, masks: List[int]):
        if idx == len(choices):
            yield tuple(masks)
            return
        dst, subsets = choices[idx]
        for subset in subsets:
            old = masks[dst]
            masks[dst] = old | subset
            yield from rec(idx + 1, masks)
            masks[dst] = old

    yield from rec(0, list(state))
