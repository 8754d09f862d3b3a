"""EOCD via directed Steiner arborescences (Section 3.3).

    "To distribute any token using the minimum bandwidth is to distribute
    it along the min-cost tree from its source(s) to all nodes that want
    that token with unit-cost edges.  If we do not care about number of
    timesteps, then optimal bandwidth can be achieved by distributing
    each token serially over the Steiner tree."

Tokens do not interact on the bandwidth axis — moves simply add up, and
with unbounded time, capacities never bind (one move per timestep always
fits) — so the minimum total bandwidth is the sum over tokens of the
minimum-cost arborescence that connects the token's initial holders to
all vertices that want it.  Multiple holders are handled exactly as the
paper suggests: a virtual super-root with zero-cost arcs to every holder.

The directed Steiner tree problem is itself NP-hard, so two solvers are
provided:

* :func:`steiner_cost_exact` — the Dreyfus–Wagner dynamic program over
  terminal subsets, ``O(3^k n + 2^k n E)``; exact, use for ≲ 12 terminals.
* :func:`steiner_tree_approx` — the incremental shortest-path heuristic
  (repeatedly attach the cheapest-to-reach remaining terminal); fast and
  a good upper bound at any scale.

:func:`eocd_serial_schedule` turns the per-token trees into the paper's
serial schedule: one move per timestep, parents before children, giving a
valid successful schedule whose bandwidth equals the summed tree costs.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import TokenSet

__all__ = [
    "SteinerResult",
    "steiner_cost_exact",
    "steiner_tree_approx",
    "min_bandwidth_exact",
    "min_bandwidth_approx",
    "eocd_serial_schedule",
]

_ROOT = -1  # the virtual super-root


@dataclass(frozen=True)
class SteinerResult:
    """A per-token arborescence: its arcs (excluding virtual root arcs)
    and total unit cost."""

    token: int
    cost: int
    arcs: Tuple[Tuple[int, int], ...]


def _out_edges(
    problem: Problem, holders: Sequence[int]
) -> Callable[[int], Iterator[Tuple[int, int]]]:
    """Adjacency of the augmented graph: the super-root reaches every
    holder at cost 0; real arcs cost 1."""

    def edges(v: int) -> Iterator[Tuple[int, int]]:
        if v == _ROOT:
            for h in holders:
                yield h, 0
        else:
            for arc in problem.out_arcs(v):
                yield arc.dst, 1

    return edges


def _dijkstra_tree(
    problem: Problem, holders: Sequence[int]
) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """Shortest paths from the super-root in the augmented graph."""
    edges = _out_edges(problem, holders)
    dist: Dict[int, int] = {_ROOT: 0}
    parent: Dict[int, Optional[int]] = {_ROOT: None}
    heap: List[Tuple[int, int]] = [(0, _ROOT)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist.get(v, math.inf):
            continue
        for u, w in edges(v):
            nd = d + w
            if nd < dist.get(u, math.inf):
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, u))
    return dist, parent


def steiner_cost_exact(
    problem: Problem, holders: Sequence[int], terminals: Sequence[int]
) -> Optional[int]:
    """Exact minimum arborescence cost from the holder set to all
    terminals (Dreyfus–Wagner over terminal subsets).

    Returns ``None`` when some terminal is unreachable from every holder.
    """
    terminals = sorted(set(terminals) - set(holders))
    if not terminals:
        return 0
    if not holders:
        return None
    k = len(terminals)
    if k > 16:
        raise ValueError(
            f"{k} terminals is too many for the exact Steiner DP; "
            f"use steiner_tree_approx instead"
        )
    n = problem.num_vertices
    term_index = {t: i for i, t in enumerate(terminals)}
    INF = math.inf

    # dist[v][u]: hop distance v -> u in the real graph (BFS per vertex).
    dist = [problem.distances_from(v) for v in range(n)]

    full = (1 << k) - 1
    # dp[S][v]: min cost arborescence rooted at v covering terminal set S.
    dp = [[INF] * n for _ in range(full + 1)]
    for t, i in term_index.items():
        for v in range(n):
            d = dist[v][t]
            if d != -1:
                dp[1 << i][v] = d

    for subset in range(1, full + 1):
        if subset & (subset - 1) == 0:
            continue  # singletons initialized above
        row = dp[subset]
        # Splits at the root vertex.
        sub = (subset - 1) & subset
        while sub:
            other = subset ^ sub
            if sub < other:  # each unordered split once
                a, b = dp[sub], dp[other]
                for v in range(n):
                    c = a[v] + b[v]
                    if c < row[v]:
                        row[v] = c
            sub = (sub - 1) & subset
        # Root relocation: dp[S][v] = min_u dist(v -> u) + base[u], a
        # uniform-cost relaxation seeded from every u (Dijkstra on the
        # reversed graph with initial potentials).
        heap = [(row[v], v) for v in range(n) if row[v] < INF]
        heapq.heapify(heap)
        settled = [False] * n
        while heap:
            c, u = heapq.heappop(heap)
            if settled[u] or c > row[u]:
                continue
            settled[u] = True
            for arc in problem.in_arcs(u):
                nc = c + 1
                if nc < row[arc.src]:
                    row[arc.src] = nc
                    heapq.heappush(heap, (nc, arc.src))

    # Multiple holders may serve disjoint terminal subsets (the paper's
    # 0-cost-arc super-root): the optimum is the cheapest *partition* of
    # the terminals across holders, not the best single holder.
    root_cost = [INF] * (full + 1)
    root_cost[0] = 0.0
    for subset in range(1, full + 1):
        best = min(dp[subset][h] for h in holders)
        sub = (subset - 1) & subset
        while sub:
            other = subset ^ sub
            if sub < other:
                combined = root_cost[sub] + root_cost[other]
                if combined < best:
                    best = combined
            sub = (sub - 1) & subset
        root_cost[subset] = best
    best = root_cost[full]
    return None if best is INF else int(best)


def steiner_tree_approx(
    problem: Problem, holders: Sequence[int], terminals: Sequence[int]
) -> Optional[SteinerResult]:
    """Incremental shortest-path Steiner heuristic with an explicit tree.

    Grows the arborescence by repeatedly attaching the terminal that is
    cheapest to reach from the current tree.  Returns the arcs actually
    used, so the result can be turned into a schedule.
    """
    remaining: Set[int] = set(terminals) - set(holders)
    tree_vertices: Set[int] = set(holders)
    tree_arcs: Set[Tuple[int, int]] = set()
    if not remaining:
        return SteinerResult(token=-1, cost=0, arcs=())
    if not holders:
        return None
    while remaining:
        dist, parent = _dijkstra_tree(problem, sorted(tree_vertices))
        reachable = [t for t in sorted(remaining) if t in dist]
        if not reachable:
            return None
        target = min(reachable, key=lambda t: (dist[t], t))
        # Walk back to the tree, adding arcs.
        v = target
        path: List[Tuple[int, int]] = []
        while v not in tree_vertices and parent[v] is not None:
            p = parent[v]
            if p != _ROOT:
                path.append((p, v))
            v = p
        for src, dst in reversed(path):
            tree_arcs.add((src, dst))
            tree_vertices.add(dst)
        tree_vertices.add(target)
        remaining.discard(target)
    return SteinerResult(token=-1, cost=len(tree_arcs), arcs=tuple(sorted(tree_arcs)))


def _per_token_trees(
    problem: Problem, exact: bool
) -> Optional[List[SteinerResult]]:
    trees: List[SteinerResult] = []
    for token in range(problem.num_tokens):
        terminals = [
            v
            for v in range(problem.num_vertices)
            if token in problem.want[v] and token not in problem.have[v]
        ]
        if not terminals:
            continue
        holders = problem.holders(token)
        approx = steiner_tree_approx(problem, holders, terminals)
        if approx is None:
            return None
        arcs = approx.arcs
        cost = approx.cost
        if exact:
            exact_cost = steiner_cost_exact(problem, holders, terminals)
            if exact_cost is None:
                return None
            # Keep the approx tree as the constructive witness; the exact
            # DP provides the true cost (callers needing an exact witness
            # use the ILP).
            cost = exact_cost
        trees.append(SteinerResult(token=token, cost=cost, arcs=arcs))
    return trees


def min_bandwidth_exact(problem: Problem) -> Optional[int]:
    """Exact minimum total bandwidth, ignoring time: the sum of exact
    per-token Steiner costs.  ``None`` when unsatisfiable."""
    trees = _per_token_trees(problem, exact=True)
    if trees is None:
        return None
    return sum(t.cost for t in trees)


def min_bandwidth_approx(problem: Problem) -> Optional[int]:
    """Upper bound on minimum bandwidth from the shortest-path heuristic."""
    trees = _per_token_trees(problem, exact=False)
    if trees is None:
        return None
    return sum(t.cost for t in trees)


def eocd_serial_schedule(problem: Problem, exact: bool = False) -> Optional[Schedule]:
    """The paper's serial bandwidth-frugal schedule: each token flows down
    its tree one move per timestep, parents before children.

    With ``exact=False`` (default) the trees come from the approximation,
    so the schedule's bandwidth is an upper bound on the optimum; it is a
    valid, successful schedule either way.
    """
    trees = _per_token_trees(problem, exact=False)
    if trees is None:
        return None
    steps: List[Timestep] = []
    for tree in trees:
        # Order arcs so every arc's source already holds the token:
        # repeatedly emit arcs whose source is covered.
        covered = set(problem.holders(tree.token))
        pending = list(tree.arcs)
        while pending:
            progressed = False
            for arc in list(pending):
                src, dst = arc
                if src in covered:
                    steps.append(
                        Timestep({(src, dst): TokenSet.single(tree.token)})
                    )
                    covered.add(dst)
                    pending.remove(arc)
                    progressed = True
            if not progressed:
                raise AssertionError(
                    "steiner tree arcs do not form a connected arborescence"
                )
    return Schedule(steps)
