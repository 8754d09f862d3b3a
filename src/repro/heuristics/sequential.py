"""A sequential (in-order) variant of the Local heuristic.

Streaming clients fetch pieces in playback order rather than rarest
first.  This heuristic is the Local heuristic with the priority flipped:
receivers still subdivide requests across suppliers (no duplicate pulls
of one token per turn), but ask for the **lowest-indexed** missing
tokens first instead of the rarest.

It exists to quantify the classic swarm/streaming tradeoff against
:class:`repro.heuristics.LocalRarestHeuristic`: in-order fetching
minimizes playback startup delay (see
:mod:`repro.analysis.streaming`) while rarest-first minimizes the
overall makespan by keeping the token population diverse.

The assignment loop mirrors the rewritten Local heuristic: raw bitmask
supply unions and an explicit supplier-max that consumes the RNG exactly
as the old ``max(key=...)`` scan did, so schedules are byte-identical to
the pre-rewrite implementation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.heuristics.vector_common import (
    InArcTables,
    build_in_tables,
    empty_vector_proposal,
    grouped_requests,
)
from repro.sim import Proposal, StepContext
from repro.sim.state import SimState, VectorProposal
from repro.sim.bitplanes import masks_to_matrix, np

__all__ = ["SequentialHeuristic"]


class SequentialHeuristic(Heuristic):
    """In-order flooding with per-peer request subdivision."""

    name = "sequential"

    def on_reset(self) -> None:
        problem = self.problem
        self._sup_srcs: List[List[int]] = []
        self._sup_keys: List[List[Tuple[int, int]]] = []
        self._sup_caps: List[List[int]] = []
        for v in range(problem.num_vertices):
            in_arcs = problem.in_arcs(v)
            self._sup_srcs.append([arc.src for arc in in_arcs])
            self._sup_keys.append([(arc.src, arc.dst) for arc in in_arcs])
            self._sup_caps.append([arc.capacity for arc in in_arcs])
        self._vec_tables: Optional[InArcTables] = None

    def propose(self, ctx: StepContext) -> Proposal:
        problem = ctx.problem
        rng_random = ctx.rng.random
        state = ctx.state
        masks = (
            state.possession_masks
            if state is not None
            else [p.mask for p in ctx.possession]
        )
        sup_srcs = self._sup_srcs
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
            keys = self._sup_keys[v]
            budgets = self._sup_caps[v].copy()
            sup_masks = [masks[s] for s in srcs]
            remaining = sum(budgets)
            while lacking and remaining:  # lowest-indexed missing first;
                # stop when budgets are gone — no later token could be
                # assigned or consume RNG, so stopping is stream-identical.
                low = lacking & -lacking
                lacking ^= low
                best_i = -1
                best_b = -1
                best_r = 0.0
                for i, b in enumerate(budgets):
                    if b > 0 and sup_masks[i] & low:
                        r = rng_random()
                        if b > best_b or (b == best_b and r > best_r):
                            best_i = i
                            best_b = b
                            best_r = r
                if best_i < 0:
                    continue
                budgets[best_i] -= 1
                remaining -= 1
                key = keys[best_i]
                sends[key] = sends.get(key, 0) | low
        return {key: TokenSet(mask) for key, mask in sends.items()}

    def propose_vector(self, state: SimState) -> Optional[VectorProposal]:
        """The in-order step as batched arrays.

        Same batched receiver screen as the Local heuristic's vector
        path (:mod:`repro.heuristics.vector_common`), without the
        shuffle or rarest sort: requests are served token-ascending, the
        scalar loop's order.  Supplier draws consume the engine RNG
        through the exact scalar call sequence — one ``rng.random()``
        per eligible holder in slot order — and the per-arc dict
        insertion order (chronological first assignment) is reproduced
        by tracking first-touched slots.
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
        rng_random = self.rng.random
        sup_caps = self._sup_caps
        arc_ids = tables.arc_ids
        starts = tables.starts
        group_ranges = grouped.group_ranges
        g_tok = grouped.tokens
        g_hs = grouped.holder_start
        g_he = grouped.holder_end
        slots = grouped.slots
        out_idx: List[int] = []
        out_masks: List[int] = []
        for r, v in enumerate(grouped.cand):
            gs = group_ranges[r]
            ge = group_ranges[r + 1]
            budgets = sup_caps[v].copy()
            remaining = sum(budgets)
            accum = [0] * len(budgets)
            touched: List[int] = []
            for g in range(gs, ge):  # tokens ascending: lowest-indexed first
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
                if not accum[best_i]:
                    touched.append(best_i)
                accum[best_i] |= 1 << g_tok[g]
            base = starts[v]
            for i in touched:
                out_idx.append(arc_ids[base + i])
                out_masks.append(accum[i])
        arc_indices = np.array(out_idx, dtype=np.int64)
        masks: Any
        if state.planes == 1:
            masks = np.array(out_masks, dtype=np.uint64)
        else:
            masks = masks_to_matrix(out_masks, problem.num_tokens)
        return VectorProposal(arc_indices=arc_indices, masks=masks)
