"""The Local heuristic — rarest-random with request subdivision (§5.1).

    "The design of our local heuristic is based on the commonly proposed
    notion of 'rarest random'. ... we have assumed that at every time
    step, the step's initial aggregate need and knowledge are distributed
    to all vertices. ... To avoid the problem where two peers send the
    same 'rare' block in the same direction, our heuristic subdivides a
    vertex's needs to their peers.  This is analogous to a request for
    blocks. ... To handle the general problem, we distribute both
    aggregates of what vertices want and what they do not have."

Receiver-driven: each vertex ranks the tokens it lacks rarest-first
(aggregate possession counts, random tie-break, globally-needed tokens
preferred among equals) and assigns each to exactly one in-neighbor that
holds it and has request budget left on the connecting arc.  Senders then
ship exactly the requested tokens, so no two peers push the same rare
token at the same vertex in the same turn.

Like the other flooding heuristics, it requests every token it lacks —
not just the ones it wants — so that intermediaries keep relaying; the
paper's Figure 4 shows the resulting bandwidth is insensitive to how many
vertices actually want the file.

The rarest-first ranking is the one overridable step
(:meth:`LocalRarestHeuristic._request_order`): it is bound once per
step and applied to each receiver's ascending request list before the
supplier draws.  :class:`repro.heuristics.SequentialHeuristic`
overrides it to keep the lists ascending, so it shares every other line
here.  The aggregate need vector is the kernel's live ``token_deficit``
vector (:meth:`repro.sim.SimState.token_demand`).  The per-receiver
supplier capacities (in ``in_arcs`` order) are the instance's
:meth:`repro.core.problem.Problem.suppliers` table, built once and
shared with Bandwidth and Global.

:meth:`LocalRarestHeuristic.propose_vector` takes its request lists
and one supplier-slot bitmask per request from the batched screen in
:mod:`repro.heuristics.vector_common`, shuffles with the inlined
``Random.shuffle`` there, and draws only over the suppliers that hold
the token *and* have budget left (``mask & live``, ascending slots).
That is one ``rng.random()`` per eligible supplier in in-arc order, the
draws of the frozen ``max(key=...)`` loop in :mod:`repro.sim.reference`,
so schedules and the RNG state after every step match it exactly
(``tests/heuristics/test_vector_rng_stream.py``).  A step's sends are
in supplier-slot order: receivers ascending, in-arc order within each.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.core.bitplanes import np
from repro.heuristics.base import Heuristic
from repro.heuristics.vector_common import (
    build_in_tables,
    empty_vector_proposal,
    grouped_requests,
    list_shuffler,
    pack_assignments,
)
from repro.sim.state import SimState, VectorProposal

__all__ = ["LocalRarestHeuristic"]

#: Reorders one receiver's request list in place.
RequestOrder = Callable[[List[int]], None]


class LocalRarestHeuristic(Heuristic):
    """Rarest-random flooding with per-peer request subdivision."""

    name = "local"

    def on_reset(self) -> None:
        # Per-receiver supplier capacities and the in-arc tables (global
        # arc ids grouped by dst), both in in-arc order.
        self._caps = self.problem.suppliers().caps
        self._tables = build_in_tables(self.problem)

    def _request_order(
        self, shuffle: RequestOrder, ranks: Callable[[], List[int]]
    ) -> RequestOrder:
        """This step's in-place order for a receiver's request list.

        Bound once per step.  Local shuffles (the random tie-break), then
        sorts rarest first; ``ranks()`` builds the step's rank per
        request-list entry and is called only here, so an override that
        ignores rarity never computes the aggregate need.
        """
        rank_key = ranks().__getitem__

        def order(requests: List[int]) -> None:
            shuffle(requests)
            # Rarest first; among equally rare, prefer globally needed tokens.
            requests.sort(key=rank_key)

        return order

    def _token_ranks(
        self, holder_counts: Sequence[int], need_counts: Sequence[int]
    ) -> List[int]:
        """Rank encoding of the sort key ``(holder_counts[t], -need_counts[t])``.

        Both components live in ``[0, V]``, so ``h*(V+1) + (V-need)``
        compares exactly like the tuple and gives the sorts a C-level key.
        """
        problem = self.problem
        nv = problem.num_vertices
        return [
            holder_counts[t] * (nv + 1) + (nv - need_counts[t])
            for t in range(problem.num_tokens)
        ]

    def propose_vector(self, state: SimState) -> VectorProposal:
        """The step as batched arrays.

        The receiver screen (supply unions, lacking masks, request
        lists, per-request supplier-slot bitmasks) is computed for every
        vertex at once by :mod:`repro.heuristics.vector_common`; the
        per-candidate assignment core then consumes the engine RNG in a
        fixed call sequence: the request order's draws (for Local one
        shuffle of the request list: the Fisher–Yates draws depend only
        on its length, so shuffling group ids is word-identical to
        shuffling tokens; :func:`~repro.heuristics.vector_common.list_shuffler`
        makes ``Random.shuffle``'s own ``getrandbits`` calls) and one
        ``rng.random()`` per eligible supplier in slot order.
        """
        tables = self._tables
        grouped = grouped_requests(state, tables)
        if grouped is None:
            return empty_vector_proposal(state.planes)
        rng = self.rng
        rng_random = rng.random
        tokens_arr = grouped.tokens_arr

        def group_ranks() -> List[int]:
            # Per-request ranks, gathered once for the whole step: the
            # per-candidate sorts key on group ids, so the shuffle
            # permutes ``range(gs, ge)`` (identical word consumption —
            # the Fisher–Yates stream depends only on length) and the
            # stable sort sees the key sequence a sort of the request
            # tokens would.
            rank = self._token_ranks(state.holder_counts, state.token_demand())
            grank: List[int] = np.array(rank, dtype=np.int64)[tokens_arr].tolist()
            return grank

        order = self._request_order(list_shuffler(rng), group_ranks)
        sup_caps = self._caps
        starts = tables.starts
        group_ranges = grouped.group_ranges
        g_tok = grouped.tokens
        suppliers = grouped.suppliers
        asg_pos: List[int] = []
        asg_tok: List[int] = []
        pos_append = asg_pos.append
        tok_append = asg_tok.append
        for r, v in enumerate(grouped.cand):
            requests = list(range(group_ranges[r], group_ranges[r + 1]))
            order(requests)
            budgets = list(sup_caps[v])
            # Slots with budget left (every capacity is >= 1).
            live = (1 << len(budgets)) - 1
            base = starts[v]
            for g in requests:
                if not live:
                    break
                # The supplier max: one draw per eligible holder in slot
                # order (the bits of ``mm`` ascend), lexicographic
                # (budget, r) max, first wins ties.
                mm = suppliers[g] & live
                if not mm:
                    continue
                best_i = -1
                best_b = -1
                best_r = 0.0
                while mm:
                    low = mm & -mm
                    mm ^= low
                    i = low.bit_length() - 1
                    b = budgets[i]
                    rr = rng_random()
                    if b > best_b or (b == best_b and rr > best_r):
                        best_i = i
                        best_b = b
                        best_r = rr
                budgets[best_i] = best_b - 1
                if best_b == 1:
                    live ^= 1 << best_i
                pos_append(base + best_i)
                tok_append(g_tok[g])
        return pack_assignments(state, tables, asg_pos, asg_tok)
