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
first stretch of the circular queue, tokens below it the wrap-around.
The lap ends on one bit: the ``capacity``-th token ahead of the cursor,
or, when fewer are ahead, the remaining count's token of the
wrap-around.  One k-th-set-bit select per cursor-advancing arc
(:func:`repro.core.bitplanes.select_rows`) finds it; the sent mask is
every owned token from the cursor up to it in queue order, and the
cursor lands one past it.  The picks and cursor movement are
bit-identical to the scalar rotation for any number of planes, so
>64-token universes ride the vector path too and schedules match the
dict path byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.bitplanes import lowmask_rows, np, popcount_rows, select_rows
from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.sim import Proposal, StepContext
from repro.sim.state import SimState, VectorProposal

__all__ = ["RoundRobinHeuristic"]


class RoundRobinHeuristic(Heuristic):
    """Blind circular-queue flooding; uses only the sender's own tokens."""

    name = "round_robin"

    def on_reset(self) -> None:
        # One cursor per directed arc, all starting at token 0: a dict
        # for the scalar path and an array for the vector path, each
        # built on its path's first step.  An engine either uses the
        # vector path for a whole run or never (the fallback condition
        # is static per problem), so the two are never mixed.
        self._cursor: Optional[Dict[Tuple[int, int], int]] = None
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
        if cursors is None:
            cursors = self._cursor = {
                (arc.src, arc.dst): 0 for arc in self.problem.arcs
            }
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
        (ascending), followed by the wrap-around tokens below it.  So
        the lap's last pick is the ``cap``-th member of ``ahead`` when
        ``ahead`` holds at least ``cap`` tokens, and otherwise the
        ``(cap - |ahead|)``-th member of ``wrap``; one
        :func:`~repro.core.bitplanes.select_rows` per hard arc finds it,
        and the picks are every owned token from the cursor up to it in
        queue order.  The scalar cursor update
        ``(cursor + prefix.bit_length()) % m`` telescopes to
        ``(last + 1) % m`` in both the wrapped and unwrapped cases.
        """
        m = self.problem.num_tokens
        if m == 0:
            return None
        arcs = state.problem.arc_arrays()
        caps = arcs.cap
        cursor = self._vec_cursor
        if cursor is None:
            cursor = self._vec_cursor = np.zeros(len(caps), dtype=np.int64)
        planes = state.planes
        send = state.matrix[arcs.src]
        counts = popcount_rows(send)
        # capacity >= 1 always, so a "hard" (cursor-advancing) arc has a
        # nonzero owner; everything else ships its whole owned set (which
        # is empty for ownerless arcs) and leaves its cursor alone.
        hard = np.flatnonzero(counts >= caps)
        if hard.size:
            owned = send[hard]
            cap = caps[hard]
            below = lowmask_rows(cursor[hard], planes)
            ahead = owned & ~below  # tokens >= cursor: the lap's first stretch
            ahead_counts = popcount_rows(ahead)
            in_ahead = ahead_counts >= cap
            last = select_rows(
                np.where(in_ahead[:, None], ahead, owned & below),
                np.where(in_ahead, cap, cap - ahead_counts),
            )
            upto = lowmask_rows(last + 1, planes)
            span = np.where(in_ahead[:, None], upto & ~below, upto | ~below)
            send[hard] = owned & span
            cursor[hard] = (last + 1) % m
        nonzero = np.flatnonzero(counts)
        masks = send[nonzero]
        if planes == 1:
            masks = masks[:, 0]
        return VectorProposal(arc_indices=nonzero, masks=masks)
