"""The Bandwidth heuristic (Section 5.1).

    "This bandwidth heuristic is designed on the principle that each
    vertex shall obtain from its peers in its next turn only tokens that
    it will eventually use.  We then determine whether a vertex will use
    the token by i) if it needs the token, or ii) if it is the closest
    one-hop-knowledge vertex to a node that needs it.  A one-hop-knowledge
    vertex is one which for a given token *could* obtain the token in a
    single turn given the opportunity."

Unlike the flooding heuristics, nothing moves toward vertices that will
never use it, so bandwidth tracks the actual demand.  The price is speed:
tokens advance along a single relay frontier instead of flooding down
every link, which is why the paper finds it slightly slower.

This is an *online* heuristic "albeit with global knowledge": the pull
decisions need possession state and graph distances for the whole graph.

Mechanics per timestep, per token ``t`` still needed somewhere:

1. Every needer with an in-neighbor already holding ``t`` pulls it
   directly (case i).
2. For needers that cannot get ``t`` this turn, the one-hop-knowledge set
   ``U(t)`` (vertices lacking ``t`` whose in-neighborhood holds it) is
   computed, and each far needer's closest one-hop vertex becomes a
   relay and pulls ``t`` (case ii).  The closest vertex is the least id
   in ``U(t)`` within the least hop radius that reaches the needer: the
   label a multi-source BFS seeded from ``U(t)`` in ascending id order
   gives.  It is read from out-ball reach masks (``balls[r][u]``: every
   vertex ``u`` reaches in at most ``r`` hops), built once per instance
   on the first relay query: radius by radius, each member of ``U(t)``
   in ascending order takes the far needers its ball reaches that no
   smaller radius or id took.  ``repro.sim.reference`` keeps the BFS as
   the oracle, and ``tests/heuristics/test_bandwidth.py::TestRelayLabel``
   checks the identity on random directed and undirected graphs.
3. Each pulling vertex assigns its pulls, rarest token first, to
   in-neighbors that hold them, subject to per-arc capacity budgets.
   Requests that do not fit are retried on later turns.

Steps 1 and 2 screen every (vertex, token) pair at once on the bitplane
layout of :mod:`repro.core.bitplanes`: possession, the in-neighbor
supply union (one grouped OR over the instance's
:meth:`repro.core.problem.Problem.suppliers` table) and the static wants
become ``(V, m)`` bool matrices, and each token's near needers, far
needers and ``U(t)`` are columns of them, taken in ascending vertex
order.  The supplier ``max`` of step 3 is an explicit loop over the slots
with budget left (a list kept in slot order), drawing once per one that
holds the token, exactly as the old ``key=...`` scan over every eligible
arc did; the pull lists are shuffled by
:func:`repro.heuristics.vector_common.list_shuffler`, which makes
``Random.shuffle``'s own draws.  Schedules stay byte-identical to the
pre-rewrite implementation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.bitplanes import masks_to_matrix, np, token_columns
from repro.core.problem import reach_rounds
from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.heuristics.vector_common import list_shuffler
from repro.sim import Proposal, StepContext

__all__ = ["BandwidthHeuristic"]


def _vertex_masks(columns: Any) -> List[int]:
    """Per token, the vertices set in its column as an int bitmask."""
    packed = np.packbits(columns.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class BandwidthHeuristic(Heuristic):
    """Demand-driven cautious pulling; only eventually-used tokens move."""

    name = "bandwidth"

    def on_reset(self) -> None:
        problem = self.problem
        table = self._suppliers = problem.suppliers()
        self._wants = token_columns(
            masks_to_matrix([w.mask for w in problem.want], problem.num_tokens),
            problem.num_tokens,
        )
        # The in-arc sources grouped by receiver, and where each
        # receiver's group starts, for the supply unions.
        lengths = np.array([len(srcs) for srcs in table.srcs], dtype=np.int64)
        self._receivers = np.flatnonzero(lengths)
        self._starts = (np.cumsum(lengths) - lengths)[self._receivers]
        self._gather = np.array(
            [s for srcs in table.srcs for s in srcs], dtype=np.int64
        )
        # Out-ball masks by radius, from radius 1: ``self._balls[r - 1][u]``
        # has bit ``x`` set iff ``u`` reaches ``x`` in at most ``r`` hops.
        # Built on the first relay query of the run.
        self._balls: Optional[List[List[int]]] = None

    def _relays(self, one_hop: List[int], far: int) -> List[int]:
        """The closest one-hop-knowledge vertices of the far needers.

        ``one_hop`` is ``U(t)`` in ascending order and ``far`` the far
        needers as a vertex bitmask.  A needer's relay is the least id in
        ``U(t)`` within the least radius that holds any of it: the label
        a multi-source BFS seeded from ``U(t)`` in ascending id order
        gives.  Radius by radius, each member of ``U(t)`` in ascending
        order takes the needers its out-ball reaches that no smaller
        radius or smaller id took.  A far needer is not in ``U(t)`` (no
        in-neighbor holds the token), so radius 0 is skipped; a needer
        no member of ``U(t)`` reaches has no relay.  Returns the relays
        ascending.
        """
        balls = self._balls
        if balls is None:
            problem = self.problem
            successors = [problem.out_neighbors(v) for v in range(problem.num_vertices)]
            balls = self._balls = list(reach_rounds(successors))[1:]
        relays: Set[int] = set()
        for ball in balls:
            for u in one_hop:
                got = far & ball[u]
                if got:
                    relays.add(u)
                    far ^= got
                    if not far:
                        return sorted(relays)
        return sorted(relays)

    def propose(self, ctx: StepContext) -> Proposal:
        problem = ctx.problem
        num_tokens = problem.num_tokens
        state = ctx.state
        masks = (
            state.possession_masks
            if state is not None
            else [p.mask for p in ctx.possession]
        )
        pulls: Dict[int, List[int]] = {}  # vertex -> tokens it pulls this turn

        # Per (vertex, token): held, and held by an in-neighbor (the
        # vertex could obtain it in one turn).
        have = masks_to_matrix(masks, num_tokens)
        supply = np.zeros_like(have)
        if self._gather.size:
            supply[self._receivers] = np.bitwise_or.reduceat(
                have[self._gather], self._starts, axis=0
            )
        held = token_columns(have, num_tokens)
        supplied = token_columns(supply, num_tokens)
        need = self._wants & ~held
        near = need & supplied
        far = need ^ near
        one_hop = supplied & ~held
        far_masks = _vertex_masks(far)
        for token in np.flatnonzero(need.any(axis=0)).tolist():
            for v in np.flatnonzero(near[:, token]).tolist():
                # case (i): the needer itself pulls
                pulls.setdefault(v, []).append(token)
            if not far_masks[token]:
                continue
            members = np.flatnonzero(one_hop[:, token]).tolist()
            if not members:
                continue  # token cannot advance this turn
            for u in self._relays(members, far_masks[token]):
                # case (ii): closest one-hop relay pulls
                pulls.setdefault(u, []).append(token)

        # Assign pulls to supplying in-arcs, rarest token first.
        table = self._suppliers
        sup_srcs = table.srcs
        rng = ctx.rng
        rng_random = rng.random
        holder_counts = ctx.holder_counts
        sends: Dict[Tuple[int, int], int] = {}
        holder_key = holder_counts.__getitem__
        shuffle = list_shuffler(rng)
        for v, tokens in pulls.items():
            shuffle(tokens)
            tokens.sort(key=holder_key)
            keys = table.keys[v]
            budgets = list(table.caps[v])
            sup_masks = [masks[s] for s in sup_srcs[v]]
            # The slots with budget left, ascending: the max below draws
            # once per one of them that holds the token, in slot order.
            live = list(range(len(budgets)))
            for token in tokens:
                bit = 1 << token
                best_i = -1
                best_b = -1
                best_r = 0.0
                for i in live:
                    if sup_masks[i] & bit:
                        b = budgets[i]
                        r = rng_random()
                        if b > best_b or (b == best_b and r > best_r):
                            best_i = i
                            best_b = b
                            best_r = r
                if best_i < 0:
                    continue
                budgets[best_i] = best_b - 1
                if best_b == 1:
                    live.remove(best_i)
                key = keys[best_i]
                sends[key] = sends.get(key, 0) | bit
        return {key: TokenSet(mask) for key, mask in sends.items()}
