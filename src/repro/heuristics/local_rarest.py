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
(:meth:`LocalRarestHeuristic._request_order`): both paths bind it once
per step and apply it to each receiver's ascending request list before
the supplier draws.  :class:`repro.heuristics.SequentialHeuristic`
overrides it to keep the lists ascending, so it shares every other line
here.  The aggregate need vector is read from the kernel's live
``token_deficit`` vector (:meth:`repro.sim.SimState.token_demand`);
snapshot contexts count it from their possession.  The per-receiver
supplier arrays (sources, send keys, capacities, in ``in_arcs`` order)
are the instance's :meth:`repro.core.problem.Problem.suppliers` table,
built once and shared with Bandwidth and Global.  The assignment loop
works on raw bitmasks, inverts supplier masks into per-token holder
lists, and replaces the ``max(key=...)`` supplier scan with an explicit
loop that consumes the RNG identically, so schedules are byte-identical
to the pre-rewrite implementation (see
``tests/sim/test_incremental_equivalence.py``).

The vector path (:meth:`LocalRarestHeuristic.propose_vector`) takes its
request lists and one supplier-slot bitmask per request from the
batched screen in :mod:`repro.heuristics.vector_common`, shuffles with
the inlined ``Random.shuffle`` there, and draws only over the suppliers
that hold the token *and* have budget left (``mask & live``, ascending
slots), so it makes exactly the scalar loop's draws.  The scalar
:meth:`LocalRarestHeuristic.propose` stays on ``rng.shuffle`` and the
holder lists: it is the oracle the vector path is tested against.
Both paths insert a step's sends in supplier-slot order (receivers
ascending, in-arc order within each).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bitplanes import np
from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.sim import Proposal, StepContext
from repro.heuristics.vector_common import (
    InArcTables,
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
        problem = self.problem
        # Reusable per-token holder lists (cleared after each vertex).
        self._holders: List[List[int]] = [[] for _ in range(problem.num_tokens)]
        # Per-receiver supplier arrays: in-neighbor ids, arc keys, caps.
        self._suppliers = problem.suppliers()
        # Vector-path in-arc tables (global arc ids grouped by dst in
        # in-arc order); built lazily on the first vector step so scalar
        # runs never pay for them.
        self._vec_tables: Optional[InArcTables] = None

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

    @staticmethod
    def _need_counts(ctx: StepContext) -> List[int]:
        """How many vertices still want each token (the per-turn aggregate
        need the paper distributes): the kernel's live ``token_deficit``
        vector, or for a snapshot context a count of its outstanding
        tokens."""
        if ctx.state is not None:
            return ctx.state.token_demand()
        need_counts = [0] * ctx.problem.num_tokens
        for v in range(ctx.problem.num_vertices):
            for t in ctx.outstanding(v):
                need_counts[t] += 1
        return need_counts

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
        order = self._request_order(
            rng.shuffle,
            lambda: self._token_ranks(ctx.holder_counts, self._need_counts(ctx)),
        )
        table = self._suppliers
        sup_srcs = table.srcs
        holders = self._holders
        sends: Dict[Tuple[int, int], int] = {}
        for v in range(problem.num_vertices):
            srcs = sup_srcs[v]
            if not srcs:
                continue
            available = 0
            for s in srcs:
                available |= masks[s]
            lacking = available & ~masks[v]
            if not lacking:
                continue
            requests: List[int] = []
            mm = lacking
            while mm:
                low = mm & -mm
                requests.append(low.bit_length() - 1)
                mm ^= low
            # Invert supplier masks into per-token holder lists (supplier
            # indices ascending, i.e. in-arc order) so each request only
            # visits peers that actually hold it.
            for i, s in enumerate(srcs):
                mm = masks[s] & lacking
                while mm:
                    low = mm & -mm
                    holders[low.bit_length() - 1].append(i)
                    mm ^= low
            order(requests)
            keys = table.keys[v]
            budgets = list(table.caps[v])
            accum = [0] * len(srcs)
            remaining = sum(budgets)
            for token in requests:
                if not remaining:
                    # No supplier has budget left: no later request can be
                    # assigned and none would consume RNG (eligibility
                    # requires budget), so stopping is stream-identical.
                    break
                # Spread requests: ask the peer with the most spare budget.
                # Explicit max over (budget, rng.random()); first wins ties,
                # matching max(key=...) which only replaces on strictly
                # greater keys — and consuming one rng.random() per
                # eligible supplier in arc order, like the old key calls.
                best_i = -1
                best_b = -1
                best_r = 0.0
                for i in holders[token]:
                    b = budgets[i]
                    if b > 0:
                        r = rng_random()
                        if b > best_b or (b == best_b and r > best_r):
                            best_i = i
                            best_b = b
                            best_r = r
                if best_i < 0:
                    continue
                budgets[best_i] -= 1
                remaining -= 1
                accum[best_i] |= 1 << token
            for token in requests:
                holders[token].clear()
            for i, acc in enumerate(accum):
                if acc:
                    sends[keys[i]] = acc
        return {key: TokenSet(mask) for key, mask in sends.items()}

    def propose_vector(self, state: SimState) -> Optional[VectorProposal]:
        """The step as batched arrays.

        The receiver screen (supply unions, lacking masks, request
        lists, per-request supplier-slot bitmasks) is computed for every
        vertex at once by :mod:`repro.heuristics.vector_common`; the
        per-candidate assignment core then consumes the engine RNG
        through the exact scalar call sequence — the request order's
        draws (for Local one shuffle of the request list: the
        Fisher–Yates draws depend only on its length, so shuffling group
        ids is word-identical to shuffling tokens;
        :func:`~repro.heuristics.vector_common.list_shuffler` makes
        ``Random.shuffle``'s own ``getrandbits`` calls) and one
        ``rng.random()`` per eligible supplier in slot order — so
        schedules, traces, and ``rng.getstate()`` after the step are all
        byte-identical to :meth:`propose`.  Returns ``None`` (scalar
        fallback) for a state of another problem or an empty universe.
        """
        problem = self.problem
        if state.problem is not problem or problem.num_tokens == 0:
            return None
        tables = self._vec_tables
        if tables is None:
            tables = self._vec_tables = build_in_tables(state)
        grouped = grouped_requests(state, tables)
        if grouped is None:
            return empty_vector_proposal()
        rng = self.rng
        rng_random = rng.random
        tokens_arr = grouped.tokens_arr

        def group_ranks() -> List[int]:
            # Per-request ranks, gathered once for the whole step: the
            # per-candidate sorts key on group ids, so the shuffle
            # permutes ``range(gs, ge)`` (identical word consumption —
            # the Fisher–Yates stream depends only on length) and the
            # stable sort sees the same key sequence the scalar token
            # sort does.
            rank = self._token_ranks(state.holder_counts, state.token_demand())
            grank: List[int] = np.array(rank, dtype=np.int64)[tokens_arr].tolist()
            return grank

        order = self._request_order(list_shuffler(rng), group_ranks)
        sup_caps = self._suppliers.caps
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
                # The scalar supplier-max: one draw per eligible holder
                # in slot order (the bits of ``mm`` ascend), lexicographic
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
