"""Per-vertex knowledge for the LOCD model (Section 4.1), as a lagged view.

``k_0(v)`` is computed from exactly what the paper allows: the list of
neighbors of ``v``, the capacities of its incident arcs, ``h(v)`` and
``w(v)``.  Each timestep, ``k_{i+1}(v)`` merges the previous knowledge of
``v`` with the previous knowledge of every gossip neighbor (knowledge
travels both directions along an arc — "even if an edge is only
unidirectional, it may be useful to send 'want' information back"), plus
whatever tokens arrived at ``v`` itself.

Knowledge is a join-semilattice (everything it records is monotone:
possession only grows, wants and topology are static), so "merge" is a
plain union and the freshest fact about a vertex ``x`` always travels a
shortest gossip path.  After ``t`` rounds, with ``d`` the gossip (both
arc directions) hop distance and ``P_s`` the true possession after step
``s``::

    k_t(v).have[x] = P_{t - d(v, x)}(x)    if d(v, x) <= t, absent otherwise

and ``v``'s own entry (``d = 0``) is exact.  Wants and completed
incident-arc lists follow the same rule: a fact about ``x`` is known
once ``d(v, x) <= t``.  So nothing here is copied per vertex.  A
:class:`GossipState` holds the run-wide inputs — the gossip reach balls
(one int bitmask per vertex per radius, grown one radius per step by
:func:`repro.core.problem.reach_rounds`), one possession list per step,
the static wants, and the per-vertex arc sets — and :class:`Knowledge`
is one owner's read-only view of it.

The arc sets are the exception: they stay real sets, gossiped exactly
as the materialized oracle (:class:`repro.sim.reference.Knowledge`)
gossips them, with the same snapshots and the same update order.  An
algorithm walks :meth:`Knowledge.out_arcs_of` in set order and the
randomized ones draw once per arc in that order, so the order of each
set is part of the schedule (``docs/MODEL.md`` §3).

:meth:`Knowledge.is_topology_complete` detects convergence of the
topology component locally: when every vertex the knowledge has heard of
has had its full incident-arc list learned, no unknown vertex can exist
(the graph is connected along gossip edges), so the vertex knows the
whole graph and can compute global quantities such as the diameter —
this is what lets the flood-then-optimal algorithm synchronize.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.problem import Problem, reach_rounds
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet

__all__ = ["GossipState", "Knowledge"]

ArcInfo = Tuple[int, int, int]  # (src, dst, capacity)


def _members(mask: int) -> List[int]:
    """The vertices of a bitmask, ascending."""
    bits = bin(mask)[:1:-1]  # least significant bit first
    return [x for x, bit in enumerate(bits) if bit == "1"]


class GossipState:
    """The run-wide inputs every vertex's knowledge is a lagged view of.

    :meth:`advance` performs one synchronous gossip round.  Views point
    here and never at the engine that advances it, so a finished run is
    freed by reference counting alone.
    """

    def __init__(self, problem: Problem) -> None:
        n = problem.num_vertices
        self.num_vertices = n
        self.neighbors = [problem.neighbors(v) for v in range(n)]
        self.want = problem.want
        #: ``history[s][x]``: the possession of ``x`` after step ``s``.
        self.history: List[Sequence[TokenSet]] = [problem.have]
        #: Known arcs per vertex, starting from its incident arcs.
        self.arcs: List[Set[ArcInfo]] = []
        for v in range(n):
            arcs: Set[ArcInfo] = set()
            for arc in problem.out_arcs(v):
                arcs.add((arc.src, arc.dst, arc.capacity))
            for arc in problem.in_arcs(v):
                arcs.add((arc.src, arc.dst, arc.capacity))
            self.arcs.append(arcs)
        self._rounds = reach_rounds(self.neighbors)
        #: ``balls[r][v]``: the vertices within ``r`` hops of ``v``.
        self.balls: List[List[int]] = []
        #: ``spheres[r][v]``: the vertices exactly ``r`` hops from ``v``.
        self.spheres: List[List[List[int]]] = []
        #: Facts held over all vertices: ``sum(|k_t(v)|)``.  Counting
        #: builds every radius up to :attr:`step`, so readers of radii
        #: ``<= step`` need not call :meth:`ball` first.
        self.facts = self._count_facts()

    @property
    def step(self) -> int:
        """Gossip rounds so far: the ``t`` of every view's ``k_t``."""
        return len(self.history) - 1

    def ball(self, radius: int) -> List[int]:
        """Every vertex's reach mask at ``radius`` hops.

        Radii are built on demand, one reach round each; past the
        largest eccentricity the masks stay at the fixpoint.
        """
        balls = self.balls
        while len(balls) <= radius:
            reach = next(self._rounds, None)
            if reach is None:
                return balls[-1]
            inner = balls[-1] if balls else [0] * self.num_vertices
            self.spheres.append([_members(m & ~i) for m, i in zip(reach, inner)])
            balls.append(reach)
        return balls[radius]

    def distance(self, v: int, x: int) -> Optional[int]:
        """``d(v, x)`` when it is at most :attr:`step`, else ``None``."""
        if not 0 <= x < self.num_vertices:
            return None
        balls = self.balls
        for r in range(min(self.step + 1, len(balls))):
            if balls[r][v] >> x & 1:
                return r
        return None

    def sphere_rows(self, v: int) -> Iterator[Tuple[int, List[int]]]:
        """``(r, vertices exactly r hops from v)`` for every ``r <= step``."""
        for r, spheres in enumerate(self.spheres[: self.step + 1]):
            yield r, spheres[v]

    def advance(self, possession: Sequence[TokenSet]) -> int:
        """One gossip round after a step that left ``possession``.

        Returns the facts the round taught, counted as the materialized
        oracle counts them: after the merge but before each vertex
        records its own arrivals, so the step's own gains are not
        learned facts.
        """
        own_before = sum(map(len, self.history[-1]))
        self.history.append(list(possession))
        arcs = self.arcs
        snapshots = [set(known) for known in arcs]
        for known, near in zip(arcs, self.neighbors):
            for u in near:
                known.update(snapshots[u])
        before = self.facts
        self.facts = self._count_facts()
        gains = sum(map(len, self.history[-1])) - own_before
        return self.facts - gains - before

    def _count_facts(self) -> int:
        """``sum(|k_t(v)|)`` over all vertices ``v``.

        Distance is symmetric, so the vertices holding ``x``'s facts at
        lag ``r`` are ``x``'s own ``r``-sphere: each of them holds
        ``|P_{t-r}(x)|`` possession facts, ``|w(x)|`` want facts and
        one completed arc list.  The arc sets are counted directly.
        """
        t = self.step
        self.ball(t)
        want = self.want
        total = sum(map(len, self.arcs))
        for r, spheres in enumerate(self.spheres[: t + 1]):
            possession = self.history[t - r]
            for x, sphere in enumerate(spheres):
                if sphere:
                    total += len(sphere) * (len(possession[x]) + len(want[x]) + 1)
        return total


class _KnownFacts(Mapping[int, TokenSet]):
    """One owner's per-vertex facts: ``x`` is a key once ``d(owner, x) <= t``."""

    def __init__(self, gossip: GossipState, owner: int) -> None:
        self._gossip = gossip
        self._owner = owner

    def _row(self, lag: int) -> Sequence[TokenSet]:
        """Per-vertex values as seen at ``lag`` hops."""
        raise NotImplementedError

    def get(self, x, default=None):  # type: ignore[override]
        d = self._gossip.distance(self._owner, x)
        return default if d is None else self._row(d)[x]

    def __getitem__(self, x: int) -> TokenSet:
        d = self._gossip.distance(self._owner, x)
        if d is None:
            raise KeyError(x)
        return self._row(d)[x]

    def __iter__(self) -> Iterator[int]:
        for _r, sphere in self._gossip.sphere_rows(self._owner):
            yield from sphere

    def __len__(self) -> int:
        gossip = self._gossip
        return gossip.ball(gossip.step)[self._owner].bit_count()

    def values(self) -> List[TokenSet]:  # type: ignore[override]
        out: List[TokenSet] = []
        for r, sphere in self._gossip.sphere_rows(self._owner):
            row = self._row(r)
            out.extend([row[x] for x in sphere])
        return out

    def items(self) -> List[Tuple[int, TokenSet]]:  # type: ignore[override]
        out: List[Tuple[int, TokenSet]] = []
        for r, sphere in self._gossip.sphere_rows(self._owner):
            row = self._row(r)
            out.extend([(x, row[x]) for x in sphere])
        return out


class _KnownHave(_KnownFacts):
    def _row(self, lag: int) -> Sequence[TokenSet]:
        gossip = self._gossip
        return gossip.history[gossip.step - lag]


class _KnownWant(_KnownFacts):
    def _row(self, lag: int) -> Sequence[TokenSet]:
        return self._gossip.want


class Knowledge:
    """What one vertex knows after the run's current step, read-only."""

    def __init__(self, gossip: GossipState, owner: int) -> None:
        self.owner = owner
        self._gossip = gossip
        #: Last known possession per vertex (monotone under-approximation
        #: of the true possession; exact for the owner itself).
        self.have: _KnownFacts = _KnownHave(gossip, owner)
        #: Known want sets per vertex (static once learned).
        self.want: _KnownFacts = _KnownWant(gossip, owner)

    @property
    def arcs(self) -> Set[ArcInfo]:
        """Known arcs with capacities (the gossiped set itself: read it,
        never mutate it)."""
        return self._gossip.arcs[self.owner]

    @property
    def complete_vertices(self) -> Set[int]:
        """Vertices whose complete incident-arc list is known."""
        gossip = self._gossip
        return set(_members(gossip.ball(gossip.step)[self.owner]))

    def known_vertices(self) -> Set[int]:
        """Every vertex this knowledge has heard of: the endpoints of the
        known arcs, which are the vertices one hop past the known lists."""
        gossip = self._gossip
        return set(_members(gossip.ball(gossip.step + 1)[self.owner]))

    def is_topology_complete(self) -> bool:
        """Whether the whole (gossip-connected) graph is known."""
        gossip = self._gossip
        t = gossip.step
        return gossip.ball(t + 1)[self.owner] == gossip.ball(t)[self.owner]

    def known_have(self, v: int) -> TokenSet:
        return self.have.get(v, EMPTY_TOKENSET)

    def known_want(self, v: int) -> TokenSet:
        return self.want.get(v, EMPTY_TOKENSET)

    def out_arcs_of(self, v: int) -> List[ArcInfo]:
        return [(src, dst, cap) for (src, dst, cap) in self.arcs if src == v]

    def as_problem(self) -> Optional[Problem]:
        """Reconstruct the global :class:`Problem` from complete knowledge.

        Returns ``None`` while the topology is still incomplete.  All
        vertices reconstruct the *identical* problem once their knowledge
        converges, which is what makes a common deterministic plan
        possible.  Vertex ids are preserved.
        """
        if not self.is_topology_complete():
            return None
        vertices = sorted(self.known_vertices())
        if vertices != list(range(len(vertices))):
            # Gossip reaches every vertex of a connected instance; partial
            # id spaces mean the instance was disconnected.
            return None
        n = len(vertices)
        num_tokens = 0
        for tokens in self.have.values() + self.want.values():
            if tokens:
                num_tokens = max(num_tokens, tokens.max() + 1)
        return Problem.build(
            n,
            num_tokens,
            sorted(self.arcs),
            {v: list(self.have.get(v, EMPTY_TOKENSET)) for v in vertices},
            {v: list(self.want.get(v, EMPTY_TOKENSET)) for v in vertices},
            name=f"knowledge_of_{self.owner}",
        )
