"""The Overlay Network Content Distribution problem instance.

Section 3.1 of the paper defines the model: a simple, weighted directed
graph ``G = (V, E)`` with arc capacities ``c : E -> N``, a set of tokens
``T``, a *have* function ``h : V -> 2^T`` giving each vertex's initial
tokens, and a *want* function ``w : V -> 2^T`` giving the tokens each
vertex must eventually possess.

:class:`Problem` is the immutable in-memory form of one instance.  It is
shared by every other subsystem (simulator, heuristics, exact solvers,
bounds, reductions), so it also precomputes the adjacency structure and
offers the graph-theoretic helpers (distances, diameter, reachability)
those subsystems need.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Final, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.bitplanes import np
from repro.core.tokenset import TokenSet

__all__ = [
    "Arc",
    "ArcArrays",
    "Problem",
    "ProblemValidationError",
    "SupplierTable",
    "max_eccentricity",
    "reach_rounds",
]

_UNREACHABLE = -1


def reach_rounds(adjacency: Sequence[Sequence[int]]) -> Iterator[List[int]]:
    """Yield every vertex's reach set at radius 0, 1, 2, ... as int bitmasks.

    ``adjacency[v]`` lists the vertices one hop from ``v``.  Each vertex
    keeps the set of vertices it reaches as one int bitmask; a round ORs
    in the sets of its neighbours, so the list yielded ``r``-th holds
    everything within ``r`` hops, at O(m * n / 64) word operations per
    round instead of one BFS per vertex.  The generator stops after the
    last radius that grew some mask: it yields one list more than the
    largest finite eccentricity.
    """
    reach = [1 << v for v in range(len(adjacency))]
    while True:
        yield reach
        grown = []
        for v, succ in enumerate(adjacency):
            mask = reach[v]
            for w in succ:
                mask |= reach[w]
            grown.append(mask)
        if grown == reach:
            return
        reach = grown


def max_eccentricity(adjacency: Sequence[Sequence[int]]) -> int:
    """Largest finite hop eccentricity of the graph ``adjacency`` describes:
    the number of :func:`reach_rounds` rounds that still change some mask."""
    rounds = -1
    for _reach in reach_rounds(adjacency):
        rounds += 1
    return rounds


class ProblemValidationError(ValueError):
    """Raised when a :class:`Problem` is structurally invalid."""


def _integer(value: Any, field: str) -> int:
    """``value`` if it is an ``int`` and not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemValidationError(f"{field} must be an integer, got {value!r}")
    return value


def _sequence(value: Any, field: str) -> Sequence[Any]:
    """``value`` if it is a list or tuple."""
    if not isinstance(value, (list, tuple)):
        raise ProblemValidationError(f"{field} must be a list, got {value!r}")
    return value


@dataclass(frozen=True)
class Arc:
    """A directed overlay link ``src -> dst`` with an integer capacity.

    Capacity is the number of tokens the link can carry in one timestep
    (the paper's ``c(u, v)``).  Multi-arcs in an input graph should be
    merged into one arc whose capacity is the sum, as the paper notes.
    """

    src: int
    dst: int
    capacity: int

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ProblemValidationError(
                f"arc endpoints must be non-negative, got ({self.src}, {self.dst})"
            )
        if self.src == self.dst:
            raise ProblemValidationError(
                f"self-arcs are implicit (storage); explicit self-arc at {self.src}"
            )
        if self.capacity < 1:
            raise ProblemValidationError(
                f"arc ({self.src}, {self.dst}) must have capacity >= 1, "
                f"got {self.capacity}"
            )


@dataclass(frozen=True)
class SupplierTable:
    """Every receiver's in-arcs as parallel per-vertex tuples.

    Entry ``i`` of ``srcs[v]``, ``keys[v]`` and ``caps[v]`` is the
    ``i``-th arc of ``problem.in_arcs(v)`` (its supplier *slot*): the
    source vertex, the ``(src, dst)`` send key and the capacity.  The
    receiver-driven heuristics read their per-step supplier loops from
    it; :meth:`Problem.suppliers` builds it once per instance.
    """

    srcs: Tuple[Tuple[int, ...], ...]
    keys: Tuple[Tuple[Tuple[int, int], ...], ...]
    caps: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class ArcArrays:
    """Every arc as parallel columns, in ``problem.arcs`` order.

    ``src``, ``dst`` and ``cap`` are read-only int64 arrays and
    ``keys[i]`` is arc ``i``'s ``(src, dst)`` send key.  The step
    kernel's batched reads and vector validation index them;
    :meth:`Problem.arc_arrays` builds them once per instance.
    """

    src: Any
    dst: Any
    cap: Any
    keys: Tuple[Tuple[int, int], ...]


class Problem:
    """One immutable OCD instance: graph, capacities, tokens, have/want.

    Parameters
    ----------
    num_vertices:
        ``|V|``; vertices are the integers ``0..num_vertices-1``.
    num_tokens:
        ``|T|``; tokens are the integers ``0..num_tokens-1``.
    arcs:
        The directed arcs with their capacities.  At most one arc per
        ordered vertex pair (the graph is simple).
    have:
        ``h(v)`` for each vertex, as a sequence indexed by vertex id.
    want:
        ``w(v)`` for each vertex, as a sequence indexed by vertex id.
    name:
        Optional human-readable label used in reports.
    """

    __slots__ = (
        "num_vertices",
        "num_tokens",
        "arcs",
        "have",
        "want",
        "name",
        "_out_arcs",
        "_in_arcs",
        "_successors",
        "_capacity",
        "_dist_cache",
        "_suppliers",
        "_arc_arrays",
    )

    def __init__(
        self,
        num_vertices: int,
        num_tokens: int,
        arcs: Iterable[Arc],
        have: Sequence[TokenSet],
        want: Sequence[TokenSet],
        name: str = "",
    ) -> None:
        # Final: the instance is immutable (§3.1), and mypy refuses any
        # rebinding of these fields.
        self.num_vertices: Final = num_vertices
        self.num_tokens: Final = num_tokens
        self.arcs: Final[Tuple[Arc, ...]] = tuple(arcs)
        self.have: Final[Tuple[TokenSet, ...]] = tuple(have)
        self.want: Final[Tuple[TokenSet, ...]] = tuple(want)
        self.name: Final = name
        self._dist_cache: Optional[List[List[int]]] = None
        self._suppliers: Optional[SupplierTable] = None
        self._arc_arrays: Optional[ArcArrays] = None
        self._validate()
        self._build_adjacency()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        num_vertices: int,
        num_tokens: int,
        arcs: Iterable[Tuple[int, int, int]],
        have: Mapping[int, Iterable[int]],
        want: Mapping[int, Iterable[int]],
        name: str = "",
    ) -> "Problem":
        """Convenience constructor from plain tuples and dicts.

        ``arcs`` is an iterable of ``(src, dst, capacity)`` triples;
        ``have`` and ``want`` map vertex ids to iterables of token ids
        (vertices absent from the mapping get the empty set).
        """
        return cls.from_arcs(
            num_vertices,
            num_tokens,
            [Arc(u, v, c) for (u, v, c) in arcs],
            have,
            want,
            name=name,
        )

    @classmethod
    def from_arcs(
        cls,
        num_vertices: int,
        num_tokens: int,
        arcs: Iterable[Arc],
        have: Mapping[int, Iterable[int]],
        want: Mapping[int, Iterable[int]],
        name: str = "",
    ) -> "Problem":
        """:meth:`build` from existing :class:`Arc` objects, which the
        instance keeps as they are (an ``Arc`` is immutable)."""
        have_sets = [
            TokenSet.from_iterable(have.get(v, ())) for v in range(num_vertices)
        ]
        want_sets = [
            TokenSet.from_iterable(want.get(v, ())) for v in range(num_vertices)
        ]
        return cls(num_vertices, num_tokens, arcs, have_sets, want_sets, name=name)

    @classmethod
    def from_networkx(
        cls,
        graph: Any,
        num_tokens: int,
        have: Mapping[int, Iterable[int]],
        want: Mapping[int, Iterable[int]],
        capacity_attr: str = "capacity",
        default_capacity: int = 1,
        name: str = "",
    ) -> "Problem":
        """Build a :class:`Problem` from a networkx graph.

        Undirected graphs become symmetric arc pairs.  Nodes must be the
        integers ``0..n-1`` (relabel first if not).  Capacities come from
        the given edge attribute, defaulting to ``default_capacity``.
        """
        n = graph.number_of_nodes()
        if sorted(graph.nodes()) != list(range(n)):
            raise ProblemValidationError(
                "networkx graph nodes must be the integers 0..n-1; "
                "use networkx.convert_node_labels_to_integers first"
            )
        arcs: List[Arc] = []
        if graph.is_directed():
            for u, v, data in graph.edges(data=True):
                arcs.append(Arc(u, v, int(data.get(capacity_attr, default_capacity))))
        else:
            for u, v, data in graph.edges(data=True):
                cap = int(data.get(capacity_attr, default_capacity))
                arcs.append(Arc(u, v, cap))
                arcs.append(Arc(v, u, cap))
        return cls.from_arcs(n, num_tokens, arcs, have, want, name=name)

    # ------------------------------------------------------------------
    # Validation and adjacency
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.num_vertices < 1:
            raise ProblemValidationError(
                f"need at least one vertex, got {self.num_vertices}"
            )
        if self.num_tokens < 0:
            raise ProblemValidationError(
                f"num_tokens must be non-negative, got {self.num_tokens}"
            )
        if len(self.have) != self.num_vertices:
            raise ProblemValidationError(
                f"have has {len(self.have)} entries for {self.num_vertices} vertices"
            )
        if len(self.want) != self.num_vertices:
            raise ProblemValidationError(
                f"want has {len(self.want)} entries for {self.num_vertices} vertices"
            )
        universe = TokenSet.full(self.num_tokens)
        for v in range(self.num_vertices):
            if not self.have[v] <= universe:
                raise ProblemValidationError(
                    f"have({v}) contains tokens outside 0..{self.num_tokens - 1}"
                )
            if not self.want[v] <= universe:
                raise ProblemValidationError(
                    f"want({v}) contains tokens outside 0..{self.num_tokens - 1}"
                )

    def _build_adjacency(self) -> None:
        """Index the arcs, rejecting an endpoint out of range or a
        repeated ordered pair (checked arc by arc, in arc order)."""
        n = self.num_vertices
        out_arcs: List[List[Arc]] = [[] for _ in range(n)]
        in_arcs: List[List[Arc]] = [[] for _ in range(n)]
        capacity: Dict[Tuple[int, int], int] = {}
        for arc in self.arcs:
            src, dst = arc.src, arc.dst
            if src >= n or dst >= n:
                raise ProblemValidationError(
                    f"arc ({src}, {dst}) references a vertex >= {n}"
                )
            key = (src, dst)
            if key in capacity:
                raise ProblemValidationError(
                    f"duplicate arc {key}; merge multi-arcs by summing capacities"
                )
            capacity[key] = arc.capacity
            out_arcs[src].append(arc)
            in_arcs[dst].append(arc)
        self._out_arcs = tuple(tuple(lst) for lst in out_arcs)
        self._successors = tuple(tuple(a.dst for a in lst) for lst in out_arcs)
        self._in_arcs = tuple(tuple(lst) for lst in in_arcs)
        self._capacity = capacity

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------
    def out_arcs(self, v: int) -> Tuple[Arc, ...]:
        """Arcs leaving vertex ``v``."""
        return self._out_arcs[v]

    def in_arcs(self, v: int) -> Tuple[Arc, ...]:
        """Arcs entering vertex ``v``."""
        return self._in_arcs[v]

    def suppliers(self) -> SupplierTable:
        """The per-receiver supplier table, built on first use and cached."""
        table = self._suppliers
        if table is None:
            in_arcs = self._in_arcs
            table = self._suppliers = SupplierTable(
                srcs=tuple(tuple(a.src for a in arcs) for arcs in in_arcs),
                keys=tuple(tuple((a.src, a.dst) for a in arcs) for arcs in in_arcs),
                caps=tuple(tuple(a.capacity for a in arcs) for arcs in in_arcs),
            )
        return table

    def arc_arrays(self) -> ArcArrays:
        """The per-arc columns, built on first use and cached."""
        table = self._arc_arrays
        if table is None:
            arcs, count = self.arcs, len(self.arcs)
            src = np.fromiter((a.src for a in arcs), dtype=np.int64, count=count)
            dst = np.fromiter((a.dst for a in arcs), dtype=np.int64, count=count)
            cap = np.fromiter((a.capacity for a in arcs), dtype=np.int64, count=count)
            for column in (src, dst, cap):
                column.flags.writeable = False
            table = self._arc_arrays = ArcArrays(
                src, dst, cap, keys=tuple((a.src, a.dst) for a in arcs)
            )
        return table

    def out_neighbors(self, v: int) -> Tuple[int, ...]:
        return self._successors[v]

    def in_neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(a.src for a in self._in_arcs[v])

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """All vertices adjacent to ``v`` in either direction.

        Knowledge in the LOCD model travels bidirectionally along arcs
        (Section 4.1), so gossip neighborhoods use this, not out/in alone.
        """
        return tuple(
            sorted({a.dst for a in self._out_arcs[v]} | {a.src for a in self._in_arcs[v]})
        )

    def capacity(self, u: int, v: int) -> int:
        """Capacity of arc ``(u, v)``; raises :class:`KeyError` if absent."""
        return self._capacity[(u, v)]

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._capacity

    def in_capacity(self, v: int) -> int:
        """Total token-per-step intake of vertex ``v`` (sum of in-arc capacities)."""
        return sum(a.capacity for a in self._in_arcs[v])

    def out_capacity(self, v: int) -> int:
        """Total token-per-step output of vertex ``v``."""
        return sum(a.capacity for a in self._out_arcs[v])

    def distances_from(self, src: int) -> List[int]:
        """Unweighted (hop-count) shortest-path distances from ``src``.

        Unreachable vertices get ``-1``.  Results are cached per problem,
        so repeated calls (the exact solvers sweep all sources) are cheap.
        """
        if self._dist_cache is None:
            self._dist_cache = [[] for _ in range(self.num_vertices)]
        cached = self._dist_cache[src]
        if not cached:
            cached = self._dist_cache[src] = self.distances_from_any([src])
        return cached

    def distances_from_any(self, sources: Iterable[int]) -> List[int]:
        """Hop distance from the nearest of ``sources`` to every vertex
        (``-1`` where none reaches): one multi-source BFS, not cached."""
        dist = [_UNREACHABLE] * self.num_vertices
        frontier = list(sources)
        for u in frontier:
            dist[u] = 0
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for u in frontier:
                for w in self._successors[u]:
                    if dist[w] == _UNREACHABLE:
                        dist[w] = depth
                        reached.append(w)
            frontier = reached
        return dist

    def distance(self, src: int, dst: int) -> int:
        """Hop distance ``src -> dst`` (``-1`` if unreachable)."""
        return self.distances_from(src)[dst]

    def diameter(self) -> int:
        """Longest finite shortest-path distance between any vertex pair.

        Ignores unreachable pairs; returns 0 for a single vertex.  Used by
        the LOCD flood-then-optimal algorithm (Section 4.2), which floods
        knowledge for ``diameter`` steps before executing an optimal plan.
        Computed by :func:`max_eccentricity`, so it does not fill the
        per-source distance cache.
        """
        return max_eccentricity(self._successors)

    # ------------------------------------------------------------------
    # Problem-level queries
    # ------------------------------------------------------------------
    def all_tokens(self) -> TokenSet:
        return TokenSet.full(self.num_tokens)

    def holders(self, token: int) -> List[int]:
        """All vertices that initially possess ``token``."""
        return [v for v in range(self.num_vertices) if token in self.have[v]]

    def wanters(self, token: int) -> List[int]:
        """All vertices that want ``token``."""
        return [v for v in range(self.num_vertices) if token in self.want[v]]

    def missing(self, v: int) -> TokenSet:
        """Tokens vertex ``v`` wants but does not initially have."""
        return self.want[v] - self.have[v]

    def total_demand(self) -> int:
        """Total wanted-but-missing token count — the paper's trivial
        remaining-bandwidth lower bound evaluated at the initial state."""
        return sum(len(self.missing(v)) for v in range(self.num_vertices))

    def is_trivially_satisfied(self) -> bool:
        """True when every want is already covered by the initial haves."""
        return all(self.want[v] <= self.have[v] for v in range(self.num_vertices))

    def is_satisfiable(self) -> bool:
        """Whether *some* successful schedule exists.

        A token can reach a wanter iff the wanter is graph-reachable from
        at least one initial holder; capacities never make an instance
        infeasible (a single move per timestep always fits), they only
        slow it down.  This runs one multi-source BFS per token.
        """
        for token in range(self.num_tokens):
            dist = self.distances_from_any(self.holders(token))
            if any(
                token in self.want[v] and dist[v] == _UNREACHABLE
                for v in range(self.num_vertices)
            ):
                return False
        return True

    def move_bound(self) -> int:
        """Theorem 1's bound: any satisfiable instance needs at most
        ``m(n-1)`` moves (each vertex gains each token at most once)."""
        return self.num_tokens * (self.num_vertices - 1)

    def encoding_bits_bound(self) -> int:
        """Theorem 2's bound on the description length of some successful
        schedule, in bits: ``O(nm (log n + log m))``.

        We return the explicit count from the proof: ``m(n-1)`` moves of
        ``2 log2 n + log2 m`` bits each, plus per-timestep segment counts
        of ``log2(nm)`` bits for up to ``m(n-1)`` timesteps.
        """
        import math

        n, m = self.num_vertices, self.num_tokens
        if n <= 1 or m == 0:
            return 0
        moves = m * (n - 1)
        bits_per_move = 2 * math.ceil(math.log2(max(n, 2))) + math.ceil(
            math.log2(max(m, 2))
        )
        segment_bits = math.ceil(math.log2(max(n * m, 2)))
        return moves * (bits_per_move + segment_bits)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form suitable for ``json.dump``."""
        return {
            "name": self.name,
            "num_vertices": self.num_vertices,
            "num_tokens": self.num_tokens,
            "arcs": [[a.src, a.dst, a.capacity] for a in self.arcs],
            "have": {
                str(v): sorted(self.have[v])
                for v in range(self.num_vertices)
                if self.have[v]
            },
            "want": {
                str(v): sorted(self.want[v])
                for v in range(self.num_vertices)
                if self.want[v]
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Problem":
        """Inverse of :meth:`to_dict`.

        Nothing is coerced: a missing field, a count, arc field, vertex
        id or token id that is not an integer (``true`` and ``2.0`` are
        not), or a vertex id out of range raises
        :class:`ProblemValidationError` naming the field.
        """
        if not isinstance(data, Mapping):
            raise ProblemValidationError("instance payload is not an object")
        for key in ("num_vertices", "num_tokens", "arcs"):
            if key not in data:
                raise ProblemValidationError(f"instance payload has no {key!r}")
        n = _integer(data["num_vertices"], "num_vertices")
        m = _integer(data["num_tokens"], "num_tokens")
        arcs = _sequence(data["arcs"], "arcs")
        # One type pass over every arc field; only a payload that fails
        # it is walked field by field, to name the first bad one.
        if not (
            set(map(type, arcs)) <= {list, tuple}
            and set(map(len, arcs)) <= {3}
            and set(map(type, chain.from_iterable(arcs))) <= {int}
        ):
            for i, arc in enumerate(arcs):
                if not isinstance(arc, (list, tuple)) or len(arc) != 3:
                    raise ProblemValidationError(
                        f"arcs[{i}] must be [src, dst, capacity], got {arc!r}"
                    )
                for value, part in zip(arc, ("src", "dst", "capacity")):
                    _integer(value, f"arcs[{i}] {part}")
        sets: Dict[str, Dict[int, Sequence[int]]] = {}
        for key in ("have", "want"):
            raw = data.get(key, {})
            if not isinstance(raw, Mapping):
                raise ProblemValidationError(f"{key} must map vertex ids to token lists")
            sets[key] = {}
            for v, tokens in raw.items():
                # JSON object keys are strings.
                if type(v) is str and v.isdecimal():
                    v = int(v)
                vertex = _integer(v, f"{key} vertex id")
                if not 0 <= vertex < n:
                    raise ProblemValidationError(
                        f"{key} names vertex {vertex} outside 0..{n - 1}"
                    )
                field = f"{key}[{vertex}]"
                tokens = _sequence(tokens, field)
                if not set(map(type, tokens)) <= {int}:
                    for t in tokens:
                        _integer(t, f"{field} token")
                sets[key][vertex] = tokens
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ProblemValidationError(f"name must be a string, got {name!r}")
        return cls.build(n, m, arcs, sets["have"], sets["want"], name=name)

    def to_networkx(self) -> Any:
        """Export the overlay graph as a ``networkx.DiGraph`` with
        ``capacity`` edge attributes and ``have``/``want`` node attributes.

        Typed ``Any`` so networkx stays a lazy, optional import here.
        """
        import networkx as nx

        g = nx.DiGraph()
        for v in range(self.num_vertices):
            g.add_node(v, have=sorted(self.have[v]), want=sorted(self.want[v]))
        for arc in self.arcs:
            g.add_edge(arc.src, arc.dst, capacity=arc.capacity)
        return g

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Problem):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.num_tokens == other.num_tokens
            and set(self.arcs) == set(other.arcs)
            and self.have == other.have
            and self.want == other.want
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.num_vertices,
                self.num_tokens,
                frozenset(self.arcs),
                self.have,
                self.want,
            )
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Problem{label} n={self.num_vertices} m={self.num_tokens} "
            f"arcs={len(self.arcs)}>"
        )
