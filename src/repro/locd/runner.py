"""Locality-enforcing simulation loop for LOCD algorithms.

Unlike :class:`repro.sim.Engine` — which exposes the global state and
trusts heuristics to read only what they should — this runner hands each
vertex *only its own* :class:`Knowledge` when asking for its sends, so a
LOCD algorithm is mechanically incapable of cheating.  The loop per
timestep ``i``:

1. every vertex ``v`` computes its sends from ``k_i(v)`` (and optionally
   randomness, per Section 4.1);
2. sends are validated against the true state and applied (the shared
   :class:`repro.sim.engine.StepDriver` loop, after an owner check: a
   vertex may only send out of itself);
3. one gossip round turns every ``k_i(v)`` into ``k_{i+1}(v)``: the
   knowledge of ``v``'s gossip neighbors (both arc directions) merged
   in, then what ``v`` itself just received.

The knowledge objects are read-only views of one shared
:class:`repro.locd.knowledge.GossipState`, which the round advances by
recording the step's possession and gossiping the arc sets; the view
derives everything else from gossip distances (``docs/MODEL.md`` §3).
The step's ``facts_learned`` is counted from that state, not by diffing
per-vertex copies.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Protocol, Tuple, Union

from repro.core.problem import Problem
from repro.core.schedule import Timestep
from repro.core.tokenset import TokenSet
from repro.locd.knowledge import GossipState, Knowledge
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.engine import (
    HeuristicViolation,
    RunResult,
    StepDriver,
    emit_step_event,
)
from repro.sim.state import SimState

__all__ = ["LocalAlgorithm", "LocalEngine", "run_local"]


class LocalAlgorithm(Protocol):
    """A per-vertex decision rule using only local knowledge."""

    name: str

    def reset(self, num_vertices: int, rng: random.Random) -> None:
        """Prepare per-run state.  Only the vertex count is global — it
        is not secret (a vertex could learn it, and algorithms only use
        it to size internal tables)."""

    def decide(
        self, step: int, knowledge: Knowledge, rng: random.Random
    ) -> Dict[Tuple[int, int], TokenSet]:
        """Sends out of ``knowledge.owner`` for this timestep, keyed by
        arc.  Every arc must leave the owner."""


class LocalEngine(StepDriver):
    """Synchronous LOCD simulation with per-vertex knowledge.

    ``tracer``/``metrics`` mirror :class:`repro.sim.Engine`: the tracer
    defaults to the ambient one (disabled unless activated), and the
    metrics registry — when given — receives the ``heuristic_select`` /
    ``kernel_apply`` / ``knowledge_flood`` phase timers.  Step events
    additionally carry ``facts_learned``, the gossip cost of the step.
    There is no stall detection: runs go to ``max_steps``.  ``kernel``
    is :class:`repro.sim.Engine`'s injection hook (``None`` or a
    ``Problem -> SimState`` callable); the benchmark suite injects its
    timed factory through it.
    """

    engine_name = "locd"

    def __init__(
        self,
        problem: Problem,
        algorithm: LocalAlgorithm,
        rng: Optional[random.Random] = None,
        max_steps: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        kernel: Union[str, Callable[[Problem], SimState], None] = None,
    ) -> None:
        if max_steps is None:
            max_steps = 4 * max(problem.move_bound(), 1) + 4 * problem.num_vertices + 64
        # LOCD algorithms only ever see per-vertex Knowledge, so the
        # kernel's bitplane mirror is never read and never built here.
        super().__init__(problem, rng, max_steps, tracer, metrics, kernel)
        self.algorithm = algorithm

    def _start(self, state: SimState) -> str:
        n = self.problem.num_vertices
        gossip = self._gossip = GossipState(self.problem)
        self._knowledge = [Knowledge(gossip, v) for v in range(n)]
        self._knowledge_cost = 0
        self.algorithm.reset(n, self.rng)
        return self.algorithm.name

    def _propose(self, state: SimState, step: int) -> Dict[Tuple[int, int], TokenSet]:
        """Every vertex's sends, decided from its own knowledge only."""
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for v, knowledge in enumerate(self._knowledge):
            proposal = self.algorithm.decide(step, knowledge, self.rng)
            for (src, dst), tokens in proposal.items():
                if not tokens:
                    continue
                if src != v:
                    raise HeuristicViolation(
                        f"step {step}: vertex {v} proposed a send out of vertex {src}"
                    )
                sends[(src, dst)] = tokens
        return sends

    def _finish_step(
        self,
        state: SimState,
        timestep: Timestep,
        arrivals: Dict[int, int],
        step: int,
        version_before: int,
    ) -> None:
        # Gossip: every view now answers for k_{step+1}.  The count
        # leaves out the step's own arrivals, as the materialized oracle
        # records them only after counting.
        with self._timer("knowledge_flood"):
            learned = self._gossip.advance(state.possession)
        self._knowledge_cost += learned
        if self.metrics is not None:
            self.metrics.counter("facts_learned").inc(learned)
        if self.tracer.enabled:
            emit_step_event(
                self.tracer,
                self.problem,
                state,
                timestep,
                step,
                version_before,
                extra={"facts_learned": learned},
            )


def run_local(
    problem: Problem,
    algorithm: LocalAlgorithm,
    seed: int = 0,
    max_steps: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> RunResult:
    """One-call convenience wrapper around :class:`LocalEngine`."""
    return LocalEngine(
        problem,
        algorithm,
        rng=random.Random(seed),
        max_steps=max_steps,
        tracer=tracer,
        metrics=metrics,
    ).run()
