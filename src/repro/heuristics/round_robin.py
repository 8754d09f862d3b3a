"""The Round-Robin heuristic (Section 5.1).

    "The round-robin strategy simply sends the circular queue of tokens
    over each link (skipping tokens it does not have).  This is the
    simplest of the heuristics, and can easily be computed locally as no
    information other than the set of tokens kept locally and the last
    token sent to each peer [is needed]."

Each sender keeps an independent cursor per outgoing arc into the circular
queue of all token ids ``0..m-1``.  Every timestep it fills the arc's
capacity with the next tokens it possesses, advancing the cursor past
tokens it lacks.  It never consults the peer's state, so it resends tokens
the peer already holds and duplicates what other peers send — exactly the
weaknesses the paper attributes to it.

The per-arc lap is computed by *rotating the possession bitmask* so the
cursor sits at bit 0, taking the lowest ``capacity`` set bits, and
rotating back — a handful of big-int operations instead of an O(m)
per-token scan, with identical picks and cursor movement.

Because the strategy is completely RNG-free and per-arc independent, it
is the flagship client of the kernel's vector proposal path:
:meth:`RoundRobinHeuristic.propose_vector` runs every arc's lap at once
on the kernel's bitplane possession matrix, replacing the per-arc
Python loop with a fixed number of whole-array ops.  Instead of
rotating (which would need cross-plane shifts), the vector lap splits
each owned row at the cursor — tokens at-or-above the cursor are the
first stretch of the circular queue, tokens below it the wrap-around —
takes the capacity lowest members of each part in turn, and lands the
cursor one past the last picked token.  The picks and cursor movement
are bit-identical to the scalar rotation for any number of planes, so
>64-token universes ride the vector path too and schedules match the
dict path byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.sim import Proposal, StepContext
from repro.sim.state import SimState, VectorProposal
from repro.sim.bitplanes import (
    highbit_rows,
    lowmask_rows,
    np,
    popcount_rows,
    take_rows,
)

__all__ = ["RoundRobinHeuristic"]


class RoundRobinHeuristic(Heuristic):
    """Blind circular-queue flooding; uses only the sender's own tokens."""

    name = "round_robin"

    def on_reset(self) -> None:
        # One cursor per directed arc, all starting at token 0.
        self._cursor: Dict[Tuple[int, int], int] = {
            (arc.src, arc.dst): 0 for arc in self.problem.arcs
        }
        # Vector-path cursor array; allocated on the first vector step.
        # An engine either uses the vector path for a whole run or never
        # (the fallback condition is static per problem), so the dict
        # and array cursors are never mixed.
        self._vec_cursor: Any = None

    def propose(self, ctx: StepContext) -> Proposal:
        problem = ctx.problem
        m = problem.num_tokens
        sends: Dict[Tuple[int, int], TokenSet] = {}
        if m == 0:
            return sends
        full = (1 << m) - 1
        possession = ctx.possession
        cursors = self._cursor
        for arc in problem.arcs:
            owned = possession[arc.src].mask
            if not owned:
                continue
            key = (arc.src, arc.dst)
            cursor = cursors[key]
            if owned.bit_count() < arc.capacity:
                # The whole lap fits without filling the capacity: send
                # everything and leave the cursor where it was.
                sends[key] = TokenSet(owned)
                continue
            # Rotate so the cursor token is bit 0; the next tokens in
            # queue order are then simply the lowest set bits.
            rot = ((owned >> cursor) | (owned << (m - cursor))) & full
            prefix = 0
            rest = rot
            for _ in range(arc.capacity):
                low = rest & -rest
                prefix |= low
                rest ^= low
            # The cursor lands one past the last picked token.
            cursors[key] = (cursor + prefix.bit_length()) % m
            chosen = ((prefix << cursor) | (prefix >> (m - cursor))) & full
            sends[key] = TokenSet(chosen)
        return sends

    def propose_vector(self, state: SimState) -> Optional[VectorProposal]:
        """All arcs' laps at once on the kernel's bitplane matrix.

        Mirrors :meth:`propose` exactly: arcs whose owners hold fewer
        tokens than the arc capacity ship everything and keep their
        cursor; the rest take the next ``capacity`` owned tokens in
        circular-queue order and advance the cursor one past the last
        pick.  The rotation is decomposed plane-safely: the rotated
        mask's low bits are the owned tokens at-or-above the cursor
        (ascending), followed by the wrap-around tokens below it, so
        taking the capacity lowest members of those two splits in order
        reproduces the scalar ``rot``/strip lap for any plane count.
        The scalar cursor update ``(cursor + prefix.bit_length()) % m``
        telescopes to ``(last_token + 1) % m`` in both the wrapped and
        unwrapped cases, which is what the split computes.
        """
        m = self.problem.num_tokens
        if m == 0:
            return None
        caps = state.arc_cap
        cursor = self._vec_cursor
        if cursor is None:
            cursor = self._vec_cursor = np.zeros(len(caps), dtype=np.int64)
        matrix = state.matrix
        owned = matrix[state.arc_src]
        counts = popcount_rows(owned)
        # capacity >= 1 always, so a "hard" (cursor-advancing) arc has a
        # nonzero owner; everything else ships its whole owned set (which
        # is empty for ownerless arcs) and leaves its cursor alone.
        hard = counts >= caps
        below = lowmask_rows(cursor, state.planes)
        ahead = owned & ~below  # tokens >= cursor: the lap's first stretch
        wrap = owned & below  # tokens < cursor: the wrap-around
        ahead_counts = popcount_rows(ahead)
        quota = np.where(hard, caps, 0)
        picked_ahead = take_rows(ahead, quota)
        picked_wrap = take_rows(wrap, np.maximum(quota - ahead_counts, 0))
        chosen = picked_ahead | picked_wrap
        # Last pick in queue order: the highest wrap pick if any,
        # else the highest ahead pick (hard rows always pick >= 1).
        last_wrap = highbit_rows(picked_wrap)
        last = np.where(last_wrap >= 0, last_wrap, highbit_rows(picked_ahead))
        self._vec_cursor = np.where(hard, (last + 1) % m, cursor)
        send = np.where(hard[:, None], chosen, owned)
        nonzero = np.nonzero(send.any(axis=1))[0]
        masks = send[nonzero]
        if state.planes == 1:
            masks = masks[:, 0]
        return VectorProposal(arc_indices=nonzero, masks=masks)
