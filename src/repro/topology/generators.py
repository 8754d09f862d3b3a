"""Random OCD *instance* generators (topology + content together).

The evaluation workloads in :mod:`repro.workloads` are the paper's
specific scenarios; this module generates whole random instances for
fuzzing, cross-checking the exact solvers, and stress-testing
heuristics.  All generators guarantee satisfiability by construction
(every wanted token has a holder that can reach the wanter), take an
explicit ``random.Random``, and are deterministic given it.

Families
--------
``random_instance``
    Connected symmetric overlay with random haves/wants — the default
    fuzzing family (also used throughout the test suite).
``bottleneck_instance``
    Two well-connected clusters joined by a single thin cut — worst
    case for flooding, interesting for the bandwidth heuristic.
``dag_instance``
    Acyclic (one-directional) overlay: tokens can only flow "down",
    exercising the asymmetric-reachability paths in bounds and solvers.
``adversarial_spread_instance``
    One source, wants concentrated on the most distant vertices —
    maximizes the makespan relative to the demand.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.core.problem import Problem

__all__ = [
    "random_instance",
    "bottleneck_instance",
    "dag_instance",
    "adversarial_spread_instance",
]


def _spanning_tree_edges(
    vertices: Sequence[int], rng: random.Random
) -> List[Tuple[int, int]]:
    order = list(vertices)
    rng.shuffle(order)
    return [
        (order[rng.randrange(i)], order[i]) for i in range(1, len(order))
    ]


def random_instance(
    rng: random.Random,
    max_vertices: int = 6,
    max_tokens: int = 3,
    max_capacity: int = 2,
    extra_edge_prob: float = 0.3,
    want_prob: float = 0.5,
) -> Problem:
    """A small random connected symmetric instance (satisfiable).

    Every token starts at one or more random holders; every non-holder
    wants it independently with ``want_prob``.  Connectivity plus
    symmetric arcs make any demand reachable.
    """
    n = rng.randint(2, max_vertices)
    m = rng.randint(1, max_tokens)
    edges = set(
        (min(a, b), max(a, b)) for a, b in _spanning_tree_edges(range(n), rng)
    )
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    arcs = []
    for u, v in sorted(edges):
        cap = rng.randint(1, max_capacity)
        arcs.append((u, v, cap))
        arcs.append((v, u, cap))
    have: Dict[int, List[int]] = {}
    want: Dict[int, List[int]] = {}
    for t in range(m):
        holders = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        for h in holders:
            have.setdefault(h, []).append(t)
        for v in range(n):
            if v not in holders and rng.random() < want_prob:
                want.setdefault(v, []).append(t)
    problem = Problem.build(n, m, arcs, have, want, name="random_instance")
    assert problem.is_satisfiable()
    return problem


def bottleneck_instance(
    rng: random.Random,
    cluster_size: int = 4,
    num_tokens: int = 3,
    cut_capacity: int = 1,
    cluster_capacity: int = 3,
) -> Problem:
    """Two dense clusters joined by one thin link; all tokens start in
    the left cluster, all wants sit in the right one.

    The cut capacity throttles everything, so makespan is at least
    ``num_tokens * |right| / cut_capacity`` divided by in-cluster
    re-distribution — the regime where duplication strategy matters most.
    """
    if cluster_size < 1:
        raise ValueError(f"need cluster_size >= 1, got {cluster_size}")
    n = 2 * cluster_size
    left = list(range(cluster_size))
    right = list(range(cluster_size, n))
    arcs: List[Tuple[int, int, int]] = []
    for cluster in (left, right):
        for i, u in enumerate(cluster):
            for v in cluster[i + 1 :]:
                arcs.append((u, v, cluster_capacity))
                arcs.append((v, u, cluster_capacity))
    bridge_left = rng.choice(left)
    bridge_right = rng.choice(right)
    arcs.append((bridge_left, bridge_right, cut_capacity))
    arcs.append((bridge_right, bridge_left, cut_capacity))
    tokens = list(range(num_tokens))
    have = {rng.choice(left): tokens}
    want = {v: tokens for v in right}
    return Problem.build(
        n, num_tokens, arcs, have, want, name="bottleneck_instance"
    )


def dag_instance(
    rng: random.Random,
    num_vertices: int = 6,
    num_tokens: int = 2,
    max_capacity: int = 2,
    extra_edge_prob: float = 0.4,
) -> Problem:
    """A one-directional (acyclic) overlay: arcs only go from lower to
    higher vertex id, tokens start at vertex 0, wants are downstream.

    Exercises asymmetric reachability: ``distance(u, v)`` finite while
    ``distance(v, u)`` is not, which symmetric instances never produce.
    """
    if num_vertices < 2:
        raise ValueError(f"need num_vertices >= 2, got {num_vertices}")
    arcs: List[Tuple[int, int, int]] = []
    # A guaranteed path 0 -> 1 -> ... -> n-1 keeps everything reachable.
    for v in range(num_vertices - 1):
        arcs.append((v, v + 1, rng.randint(1, max_capacity)))
    for u in range(num_vertices):
        for v in range(u + 2, num_vertices):
            if rng.random() < extra_edge_prob:
                arcs.append((u, v, rng.randint(1, max_capacity)))
    tokens = list(range(num_tokens))
    want: Dict[int, List[int]] = {}
    for v in range(1, num_vertices):
        chosen = [t for t in tokens if rng.random() < 0.6]
        if chosen:
            want[v] = chosen
    return Problem.build(
        num_vertices, num_tokens, arcs, {0: tokens}, want, name="dag_instance"
    )


def adversarial_spread_instance(
    rng: random.Random,
    num_vertices: int = 8,
    num_tokens: int = 2,
    capacity: int = 1,
) -> Problem:
    """One source on a sparse symmetric graph; only the vertices at
    maximum distance from it want the tokens.

    Maximizes makespan relative to demand, so the radius-closure bound's
    distance term (not its capacity term) is the binding one.
    """
    if num_vertices < 2:
        raise ValueError(f"need num_vertices >= 2, got {num_vertices}")
    edges = set(
        (min(a, b), max(a, b))
        for a, b in _spanning_tree_edges(range(num_vertices), rng)
    )
    arcs = []
    for u, v in sorted(edges):
        arcs.append((u, v, capacity))
        arcs.append((v, u, capacity))
    tokens = list(range(num_tokens))
    problem = Problem.build(
        num_vertices, num_tokens, arcs, {0: tokens}, {}, name="spread_seed"
    )
    dist = problem.distances_from(0)
    farthest = max(dist)
    want = {
        v: tokens for v in range(num_vertices) if dist[v] == farthest
    }
    return Problem.build(
        num_vertices,
        num_tokens,
        arcs,
        {0: tokens},
        want,
        name="adversarial_spread_instance",
    )
