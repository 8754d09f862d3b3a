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

The aggregate need vector is maintained *incrementally*: kernel-backed
contexts read the live ``token_deficit`` vector that
:class:`repro.sim.SimState` updates inside its O(delta) gain fold;
snapshot contexts fall back to diffing possession vectors.  The inner
assignment loop works on raw bitmasks, inverts supplier masks into
per-token holder lists, and replaces the ``max(key=...)`` supplier scan
with an explicit loop that consumes the RNG identically, so schedules
are byte-identical to the pre-rewrite implementation (see
``tests/sim/test_incremental_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.sim import Proposal, StepContext
from repro.heuristics.vector_common import (
    InArcTables,
    build_in_tables,
    empty_vector_proposal,
    grouped_requests,
    pack_assignments,
)
from repro.sim.state import SimState, VectorProposal
from repro.sim.bitplanes import np

__all__ = ["LocalRarestHeuristic"]


class LocalRarestHeuristic(Heuristic):
    """Rarest-random flooding with per-peer request subdivision."""

    name = "local"

    def on_reset(self) -> None:
        problem = self.problem
        self._want_masks: List[int] = [w.mask for w in problem.want]
        # Aggregate need (how many vertices still want each token) is
        # only materialised for snapshot contexts; kernel-backed runs
        # read the kernel's live ``token_deficit`` vector instead.
        self._need_counts: Optional[List[int]] = None
        self._prev_possession: List[TokenSet] = list(problem.have)
        # Reusable per-token holder lists (cleared after each vertex).
        self._holders: List[List[int]] = [[] for _ in range(problem.num_tokens)]
        # Per-vertex supplier arrays: in-neighbor ids, arc keys, caps.
        self._sup_srcs: List[List[int]] = []
        self._sup_keys: List[List[Tuple[int, int]]] = []
        self._sup_caps: List[List[int]] = []
        for v in range(problem.num_vertices):
            in_arcs = problem.in_arcs(v)
            self._sup_srcs.append([arc.src for arc in in_arcs])
            self._sup_keys.append([(arc.src, arc.dst) for arc in in_arcs])
            self._sup_caps.append([arc.capacity for arc in in_arcs])
        # Vector-path in-arc tables (global arc ids grouped by dst in
        # in-arc order); built lazily on the first vector step so scalar
        # runs never pay for them.
        self._vec_tables: Optional[InArcTables] = None

    def _refresh_need_counts(self, ctx: StepContext) -> List[int]:
        """Fold possession gains since the last turn into the aggregate
        need vector (the per-turn aggregate distribution the paper
        assumes).  Kernel-backed contexts never reach here — they read
        the kernel's live ``token_deficit`` vector directly."""
        want_masks = self._want_masks
        if self._need_counts is None:
            problem = self.problem
            need_counts = [0] * problem.num_tokens
            for v in range(problem.num_vertices):
                mm = want_masks[v] & ~problem.have[v].mask
                while mm:
                    low = mm & -mm
                    need_counts[low.bit_length() - 1] += 1
                    mm ^= low
            self._need_counts = need_counts
        need_counts = self._need_counts
        for v in range(ctx.problem.num_vertices):
            gained = ctx.possession[v] - self._prev_possession[v]
            if gained:
                newly = gained.mask & want_masks[v]
                while newly:
                    low = newly & -newly
                    need_counts[low.bit_length() - 1] -= 1
                    newly ^= low
                self._prev_possession[v] = ctx.possession[v]
        return need_counts

    def propose(self, ctx: StepContext) -> Proposal:
        problem = ctx.problem
        rng = ctx.rng
        rng_random = rng.random
        holder_counts = ctx.holder_counts
        state = ctx.state
        if state is not None:
            # Kernel path: the aggregate need vector is maintained by the
            # kernel's O(delta) gain fold; possession is read as raw ints.
            need_counts = state.token_demand()
            masks = state.possession_masks
        else:
            need_counts = self._refresh_need_counts(ctx)
            masks = [p.mask for p in ctx.possession]
        sup_srcs = self._sup_srcs
        # Rank encoding of the old sort key (holder_counts[t], -need_counts[t]):
        # both components live in [0, V], so h*(V+1) + (V-need) compares
        # exactly like the tuple — computed once per step, giving the
        # sorts a C-level key function.
        nv = problem.num_vertices
        rank = [
            holder_counts[t] * (nv + 1) + (nv - need_counts[t])
            for t in range(problem.num_tokens)
        ]
        rank_key = rank.__getitem__
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
            rng.shuffle(requests)
            # Rarest first; among equally rare, prefer globally needed tokens.
            requests.sort(key=rank_key)
            keys = self._sup_keys[v]
            budgets = self._sup_caps[v].copy()
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
        """The rarest-random step as batched arrays.

        The receiver screen (supply unions, lacking masks, request
        lists, per-request holder slots) is computed for every vertex at
        once by :mod:`repro.heuristics.vector_common`; the per-candidate
        assignment core then consumes the engine RNG through the exact
        scalar call sequence — one ``rng.shuffle`` of the request list
        (the Fisher–Yates draws depend only on its length, so shuffling
        group ids is word-identical to shuffling tokens) and one
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
        need_counts = state.token_demand()
        holder_counts = state.holder_counts
        nv = problem.num_vertices
        rank = [
            holder_counts[t] * (nv + 1) + (nv - need_counts[t])
            for t in range(problem.num_tokens)
        ]
        # Per-request ranks, gathered once for the whole step: the
        # per-candidate sorts below key on group ids, so the shuffle
        # permutes ``range(gs, ge)`` (identical word consumption — the
        # Fisher–Yates stream depends only on length) and the stable
        # sort sees the same key sequence the scalar token sort does.
        grank: List[int] = np.array(rank, dtype=np.int64)[
            grouped.tokens_arr
        ].tolist()
        rank_of = grank.__getitem__
        sup_caps = self._sup_caps
        starts = tables.starts
        group_ranges = grouped.group_ranges
        g_tok = grouped.tokens
        g_hs = grouped.holder_start
        g_he = grouped.holder_end
        slots = grouped.slots
        asg_pos: List[int] = []
        asg_tok: List[int] = []
        pos_append = asg_pos.append
        tok_append = asg_tok.append
        for r, v in enumerate(grouped.cand):
            gs = group_ranges[r]
            ge = group_ranges[r + 1]
            order = list(range(gs, ge))
            rng.shuffle(order)
            order.sort(key=rank_of)
            budgets = sup_caps[v].copy()
            remaining = sum(budgets)
            base = starts[v]
            for g in order:
                if not remaining:
                    break
                # The scalar supplier-max verbatim: one draw per
                # eligible holder in slot order, lexicographic
                # (budget, r) max, first wins ties.
                best_i = -1
                best_b = -1
                best_r = 0.0
                for i in slots[g_hs[g] : g_he[g]]:
                    b = budgets[i]
                    if b > 0:
                        rr = rng_random()
                        if b > best_b or (b == best_b and rr > best_r):
                            best_i = i
                            best_b = b
                            best_r = rr
                if best_i < 0:
                    continue
                budgets[best_i] -= 1
                remaining -= 1
                pos_append(base + best_i)
                tok_append(g_tok[g])
        return pack_assignments(state, tables, asg_pos, asg_tok)
