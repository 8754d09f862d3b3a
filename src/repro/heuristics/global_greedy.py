"""The Global heuristic — greedy coordinated diversity flooding (§5.1).

    "In addition to the aggregate vector, vertices have the ability to
    coordinate across each other at each timestep to ensure that they
    maximize diversity.  This also alleviates the need for vertices to
    request tokens from other vertices since there is global
    coordination.  Our implementation of this technique applies a greedy
    selection algorithm over the set of tokens and edges, and is thus not
    guaranteed to maximize diversity."

One coordinator plans the whole timestep.  Receivers are visited in
random rotation; each visit plans one arrival — the receiver's rarest
still-missing token that a capacity-bearing in-neighbor holds — and the
tentative holder count of that token is bumped immediately, so later
picks see the diversity created by earlier ones.  The rotation continues
until no receiver can add an arrival.  Coordination guarantees a vertex
never receives the same token twice in one turn.

The inner loops work on raw bitmasks over the instance's supplier table
(:meth:`repro.core.problem.Problem.suppliers`).  A receiver's in-arcs
are spent only by its own visits, so each receiver keeps, across the
rotation, its arc budgets, the slots with budget left and its open
candidates (tokens a budgeted in-neighbor holds that it neither has nor
plans).  A visit removes the token it plans from the candidates; only
when one of its in-arcs runs dry does the receiver rebuild its supply
union, from the remaining slots.  The ``min``/``max`` selections are
explicit loops that consume the RNG exactly as the old ``key=...`` scans
did (one draw per candidate in the original candidate order, first
element winning ties; the supplier ``max`` walks only slots with budget
left), keeping schedules byte-identical to the pre-rewrite
implementation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.sim import Proposal, StepContext

__all__ = ["GlobalGreedyHeuristic"]


class GlobalGreedyHeuristic(Heuristic):
    """Globally coordinated greedy rarest-first flooding."""

    name = "global"

    def on_reset(self) -> None:
        problem = self.problem
        self._suppliers = problem.suppliers()
        self._active_template: List[int] = [
            v for v in range(problem.num_vertices) if problem.in_arcs(v)
        ]

    def propose(self, ctx: StepContext) -> Proposal:
        problem = ctx.problem
        rng = ctx.rng
        rng_random = rng.random
        state = ctx.state
        masks = (
            state.possession_masks
            if state is not None
            else [p.mask for p in ctx.possession]
        )
        tentative_counts = list(ctx.holder_counts)
        table = self._suppliers
        sup_srcs = table.srcs
        # Per receiver, from its first visit: the budgets of its in-arcs,
        # the slots with budget left (ascending), the tokens it plans to
        # receive, and its open candidates (tokens a budgeted in-neighbor
        # holds that it neither has nor plans).  Only the receiver's own
        # visits spend its in-arcs, so the candidates change only there:
        # by the token it plans, and by a new supply union when one of
        # its in-arcs runs dry.
        budgets_of: List[Optional[List[int]]] = [None] * problem.num_vertices
        live_of: List[List[int]] = [[]] * problem.num_vertices
        planned = [0] * problem.num_vertices
        open_of = [0] * problem.num_vertices
        sends: Dict[Tuple[int, int], int] = {}

        active = self._active_template.copy()
        rng.shuffle(active)
        while active:
            still_active = []
            for v in active:
                srcs = sup_srcs[v]
                budgets = budgets_of[v]
                if budgets is None:
                    budgets = budgets_of[v] = list(table.caps[v])
                    live_of[v] = list(range(len(srcs)))
                    supply = 0
                    for s in srcs:
                        supply |= masks[s]
                    open_of[v] = supply & ~masks[v]
                candidates = open_of[v]
                if not candidates:
                    continue
                # Explicit min over (tentative_count, rng.random()) across
                # candidate tokens in ascending order; first wins ties,
                # one RNG draw per candidate, like the old min(key=...).
                best_t = -1
                best_c = 0
                best_r = 0.0
                mm = candidates
                while mm:
                    low = mm & -mm
                    mm ^= low
                    t = low.bit_length() - 1
                    c = tentative_counts[t]
                    r = rng_random()
                    if best_t < 0 or c < best_c or (c == best_c and r < best_r):
                        best_t = t
                        best_c = c
                        best_r = r
                bit = 1 << best_t
                # Explicit max over (budget, rng.random()) across the
                # budgeted suppliers that hold the token, in slot order.
                live = live_of[v]
                best_j = -1
                best_b = -1
                best_r2 = 0.0
                for j in live:
                    if masks[srcs[j]] & bit:
                        b = budgets[j]
                        r = rng_random()
                        if b > best_b or (b == best_b and r > best_r2):
                            best_j = j
                            best_b = b
                            best_r2 = r
                budgets[best_j] = best_b - 1
                planned[v] |= bit
                if best_b == 1:
                    live.remove(best_j)
                    supply = 0
                    for j in live:
                        supply |= masks[srcs[j]]
                    open_of[v] = supply & ~masks[v] & ~planned[v]
                else:
                    open_of[v] = candidates ^ bit
                tentative_counts[best_t] += 1
                key = table.keys[v][best_j]
                sends[key] = sends.get(key, 0) | bit
                still_active.append(v)
            active = still_active
        return {key: TokenSet(mask) for key, mask in sends.items()}
