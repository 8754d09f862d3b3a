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

The strategy is completely RNG-free and per-arc independent, so
:meth:`RoundRobinHeuristic.propose_vector` runs every arc's lap at once
on the kernel's bitplane possession matrix, a fixed number of
whole-array ops per step.  Each owned row is split at the cursor:
tokens at-or-above the cursor are the first stretch of the circular
queue, tokens below it the wrap-around.  The lap ends on one bit: the
``capacity``-th token ahead of the cursor, or, when fewer are ahead,
the remaining count's token of the wrap-around.  One k-th-set-bit
select per cursor-advancing arc
(:func:`repro.core.bitplanes.select_rows`) finds it; the sent mask is
every owned token from the cursor up to it in queue order, and the
cursor lands one past it.  This holds for any number of planes, so
>64-token universes take the same path, and the schedules match the
frozen rotation loop in :mod:`repro.sim.reference` byte for byte.
"""

from __future__ import annotations

from typing import Any

from repro.core.bitplanes import lowmask_rows, np, popcount_rows, select_rows
from repro.heuristics.base import Heuristic
from repro.sim.state import SimState, VectorProposal

__all__ = ["RoundRobinHeuristic"]


class RoundRobinHeuristic(Heuristic):
    """Blind circular-queue flooding; uses only the sender's own tokens."""

    name = "round_robin"

    def on_reset(self) -> None:
        # One cursor per directed arc, all starting at token 0; built on
        # the run's first step.
        self._cursor: Any = None

    def propose_vector(self, state: SimState) -> VectorProposal:
        """All arcs' laps at once on the kernel's bitplane matrix.

        Arcs whose owners hold fewer tokens than the arc capacity ship
        everything and keep their cursor; the rest take the next ``cap``
        owned tokens in circular-queue order and advance the cursor one
        past the last pick.  The queue from the cursor is the owned
        tokens at-or-above it (``ahead``, ascending) followed by the
        wrap-around tokens below it.  So the lap's last pick is the
        ``cap``-th member of ``ahead`` when ``ahead`` holds at least
        ``cap`` tokens, and otherwise the ``(cap - |ahead|)``-th member
        of ``wrap``; one :func:`~repro.core.bitplanes.select_rows` per
        hard arc finds it, the picks are every owned token from the
        cursor up to it in queue order, and the cursor becomes
        ``(last + 1) % m``.
        """
        m = self.problem.num_tokens
        arcs = self.problem.arc_arrays()
        caps = arcs.cap
        cursor = self._cursor
        if cursor is None:
            cursor = self._cursor = np.zeros(len(caps), dtype=np.int64)
        planes = state.planes
        send = state.matrix[arcs.src]
        counts = popcount_rows(send)
        # capacity >= 1 always, so a "hard" (cursor-advancing) arc has a
        # nonzero owner (and m > 0); everything else ships its whole
        # owned set (empty for ownerless arcs) and keeps its cursor.
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
