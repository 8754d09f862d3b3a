"""LOCD-compliant algorithms — decisions from per-vertex knowledge only.

Three strictly-local counterparts of the Section 5.1 heuristics (their
``repro.heuristics`` versions idealize knowledge as same-turn; here all
remote information is gossip-delayed, exactly as Section 4.1 allows), and
the Section 4.2 *flood-then-optimal* algorithm that realizes the additive
diameter bound:

    "It is possible for an on-line algorithm to always perform within an
    additive factor of the diameter of the graph ... with this many steps
    at the start of computation, full information about the state of the
    graph can be propagated to each vertex.  Armed with this knowledge,
    each vertex can compute an optimal solution for the entire graph
    (deterministically), then follow this schedule."
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.problem import Problem, max_eccentricity
from repro.core.schedule import Schedule
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet
from repro.locd.knowledge import Knowledge

__all__ = [
    "LocalRoundRobin",
    "LocalRandom",
    "LocalRarest",
    "FloodThenOptimal",
]

Sends = Dict[Tuple[int, int], TokenSet]


class LocalRoundRobin:
    """Round-Robin is local by construction; this is its LOCD form."""

    name = "locd_round_robin"

    def reset(self, num_vertices: int, rng: random.Random) -> None:
        self._cursor: Dict[Tuple[int, int], int] = {}

    def decide(self, step: int, knowledge: Knowledge, rng: random.Random) -> Sends:
        v = knowledge.owner
        owned = knowledge.known_have(v)
        if not owned:
            return {}
        span = owned.max() + 1
        sends: Sends = {}
        for src, dst, cap in knowledge.out_arcs_of(v):
            cursor = self._cursor.get((src, dst), 0)
            chosen = 0
            picked = 0
            for offset in range(span):
                token = (cursor + offset) % span
                if token in owned:
                    chosen |= 1 << token
                    picked += 1
                    if picked == cap:
                        cursor = (token + 1) % span
                        break
            self._cursor[(src, dst)] = cursor
            if chosen:
                sends[(src, dst)] = TokenSet(chosen)
        return sends


class LocalRandom:
    """Random flooding against gossip-delayed peer state.

    The simulator version assumes same-turn peer knowledge; here the
    sender only knows what gossip has delivered (one step stale for
    direct neighbors), the paper's "state 'k' turns ago" relaxation with
    k = 1.
    """

    name = "locd_random"

    def reset(self, num_vertices: int, rng: random.Random) -> None:
        pass

    def decide(self, step: int, knowledge: Knowledge, rng: random.Random) -> Sends:
        v = knowledge.owner
        owned = knowledge.known_have(v)
        sends: Sends = {}
        for src, dst, cap in knowledge.out_arcs_of(v):
            useful = owned - knowledge.known_have(dst)
            if not useful:
                continue
            members = list(useful)
            if len(members) > cap:
                members = rng.sample(members, cap)
            sends[(src, dst)] = TokenSet.from_iterable(members)
        return sends


class LocalRarest:
    """Rarest-first flooding with gossip-delayed aggregate counts."""

    name = "locd_rarest"

    def reset(self, num_vertices: int, rng: random.Random) -> None:
        pass

    def decide(self, step: int, knowledge: Knowledge, rng: random.Random) -> Sends:
        v = knowledge.owner
        owned = knowledge.known_have(v)
        if not owned:
            return {}
        # Aggregate rarity from gossiped possession (an under-count for
        # distant vertices, which only makes "rare" conservative).
        counts: Dict[int, int] = {}
        for tokens in knowledge.have.values():
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
        sends: Sends = {}
        for src, dst, cap in knowledge.out_arcs_of(v):
            useful = owned - knowledge.known_have(dst)
            if not useful:
                continue
            members = list(useful)
            rng.shuffle(members)
            members.sort(key=lambda t: counts.get(t, 0))
            sends[(src, dst)] = TokenSet.from_iterable(members[:cap])
        return sends


class FloodThenOptimal:
    """The additive-diameter algorithm of Section 4.2.

    Phase 1 (steps ``0 .. D-1``): send nothing; knowledge floods.  Every
    vertex detects locally when its topology knowledge is complete, and
    from the reconstructed graph computes the same gossip diameter ``D``.
    Phase 2 (steps ``D ..``): every vertex runs the same deterministic
    planner on the reconstructed *initial* state (identical everywhere,
    since no token moved during the flood) and executes its own share of
    the common schedule.  The total makespan is at most ``D + P`` where
    ``P`` is the planner's makespan — with an exact planner, the paper's
    ``diameter + optimal``.

    Parameters
    ----------
    planner:
        ``"greedy"`` (default) plans with the deterministic global-greedy
        heuristic; ``"exact"`` uses branch-and-bound (small instances
        only).  Any callable ``Problem -> Schedule`` also works.
    """

    def __init__(self, planner="greedy") -> None:
        self.planner = planner
        self.name = f"locd_flood_then_{planner if isinstance(planner, str) else 'custom'}"

    def reset(self, num_vertices: int, rng: random.Random) -> None:
        # One independently computed plan per vertex: the plans are
        # provably identical (deterministic function of converged
        # knowledge), but sharing one object across vertices would be a
        # locality cheat, so each owner carries its own.
        self._plans: Dict[int, Tuple[Schedule, int]] = {}

    # ------------------------------------------------------------------
    def _plan_schedule(self, problem: Problem) -> Schedule:
        if callable(self.planner):
            return self.planner(problem)
        if self.planner == "exact":
            from repro.exact.branch_and_bound import solve_focd_bnb

            solved = solve_focd_bnb(problem)
            if solved is None:
                raise ValueError("flood-then-optimal given an unsatisfiable instance")
            schedule = solved[1]
        elif self.planner == "greedy":
            from repro.heuristics.global_greedy import GlobalGreedyHeuristic
            from repro.sim.engine import Engine

            # A fixed seed makes the plan a deterministic function of the
            # (identical) reconstructed problem, so all vertices agree.
            engine = Engine(
                problem, GlobalGreedyHeuristic(), rng=random.Random(0xC0FFEE)
            )
            schedule = engine.run().schedule
        else:
            raise ValueError(f"unknown planner {self.planner!r}")
        # Pruning is deterministic, preserves makespan and success, and
        # strips the planner's useless moves (e.g. branch-and-bound's
        # full arc loads), so the executed plan is bandwidth-tidy too.
        from repro.core.pruning import prune_schedule

        return prune_schedule(problem, schedule)[0]

    # ------------------------------------------------------------------
    def decide(self, step: int, knowledge: Knowledge, rng: random.Random) -> Sends:
        v = knowledge.owner
        if v not in self._plans:
            if not knowledge.is_topology_complete():
                return {}
            problem = knowledge.as_problem()
            if problem is None:
                return {}
            # Every vertex computes this identically (possibly at
            # different steps); the common start step D keeps them in sync.
            self._plans[v] = (
                self._plan_schedule(problem),
                # Knowledge travels both ways along every arc, so the
                # flood takes the diameter of the undirected gossip graph.
                max_eccentricity(
                    [problem.neighbors(u) for u in range(problem.num_vertices)]
                ),
            )
        plan, start = self._plans[v]
        if step < start:
            return {}
        offset = step - start
        if offset >= len(plan.steps):
            return {}
        return {
            (src, dst): tokens
            for (src, dst), tokens in plan.steps[offset].sends.items()
            if src == v
        }
