"""The Random heuristic (Section 5.1).

    "In this heuristic we assume that peers have current knowledge about
    the tokens known by each of their peers at the beginning of the turn.
    Each vertex then independently chooses at random which tokens to send
    over the edge."

For every arc, the sender looks at the tokens the peer still lacks
(current one-hop knowledge) and fills the arc capacity with a uniformly
random subset of them.  There is no coordination, so two senders may push
the same token to the same vertex in the same turn — the duplication cost
the smarter heuristics try to avoid.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic, sample_tokens
from repro.sim import Proposal, StepContext
from repro.sim.state import SimState, VectorProposal
from repro.sim.bitplanes import masks_to_matrix, matrix_to_masks, np

__all__ = ["RandomHeuristic"]


class RandomHeuristic(Heuristic):
    """Uncoordinated random flooding of peer-useful tokens."""

    name = "random"

    def propose(self, ctx: StepContext) -> Proposal:
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for arc in ctx.problem.arcs:
            useful = ctx.useful(arc.src, arc.dst)
            if not useful:
                continue
            sends[(arc.src, arc.dst)] = sample_tokens(useful, arc.capacity, ctx.rng)
        return sends

    def propose_vector(self, state: SimState) -> Optional[VectorProposal]:
        """Every arc's useful set in one batched pass; sampling unchanged.

        The per-arc ``useful = possession[src] - possession[dst]`` scan
        — the scalar loop's only per-arc work besides sampling — becomes
        one array expression over the bitplane matrix, and arcs with
        nothing useful are skipped wholesale.  Arcs whose useful set
        exceeds the capacity still call ``rng.sample`` through
        :func:`~repro.heuristics.base.sample_tokens` in ascending arc
        order, exactly as the scalar loop does, so the RNG stream and
        the sampled sets are identical by construction (no mirroring
        needed).
        """
        problem = self.problem
        if state.problem is not problem:
            return None
        matrix = state.matrix
        useful = matrix[state.arc_src] & ~matrix[state.arc_dst]
        active = np.nonzero(useful.any(axis=1))[0]
        useful_act = useful[active]
        counts = np.bitwise_count(useful_act).sum(axis=1, dtype=np.int64)
        caps = state.arc_cap[active]
        sampled = (counts > caps).tolist()
        caps_list: List[int] = caps.tolist()
        if state.planes == 1:
            useful_masks: List[int] = useful_act[:, 0].tolist()
        else:
            useful_masks = matrix_to_masks(useful_act)
        rng = self.rng
        out_masks: List[int] = []
        for j, mask in enumerate(useful_masks):
            if sampled[j]:
                out_masks.append(sample_tokens(TokenSet(mask), caps_list[j], rng).mask)
            else:
                out_masks.append(mask)
        masks: Any
        if state.planes == 1:
            masks = np.array(out_masks, dtype=np.uint64)
        else:
            masks = masks_to_matrix(out_masks, problem.num_tokens)
        return VectorProposal(arc_indices=active.astype(np.int64), masks=masks)
