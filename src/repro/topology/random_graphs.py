"""Random overlay graphs — the paper's G(n, p) family.

Section 5.2: "we run with graphs from 20 to 1000 vertices, randomly
adding edges with uniform probability ``2 ln n / n``.  At this
probability, the number of edges in the graph grows as ``O(n ln n)``,
which maintains reasonable connectedness."

Edges are undirected (symmetric arc pairs) with capacities drawn from the
paper's [3, 15] distribution by default.  ``2 ln n / n`` is twice the
sharp connectivity threshold, so disconnection is rare but possible; the
generator redraws (bounded retries) until the graph is connected, since a
disconnected instance is trivially unsatisfiable.

:func:`random_graph` makes one ``rng.random()`` draw per vertex pair, in
row-major order, and keeps the pair when the draw is below ``p``.  The
number of draws of an attempt is fixed before drawing, so the pass runs
through :func:`repro.core.bulk_draws.random_doubles` in blocks of at
most 2**16 pairs: the same values as the per-pair loop, drawn as arrays,
with the generator left where that loop would leave it
(``tests/topology/test_random_graphs.py`` keeps the loop as the oracle).
Capacities are then drawn one edge at a time through ``capacity(rng)``.
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Optional, Tuple

from repro.core.bitplanes import np
from repro.core.bulk_draws import random_doubles
from repro.topology.base import Topology
from repro.topology.weights import CapacityFn, paper_capacity

__all__ = ["paper_edge_probability", "random_graph", "sparse_random_graph"]

#: Pairs drawn per block of the Bernoulli pass.
_PAIR_BLOCK = 1 << 16


def paper_edge_probability(n: int) -> float:
    """The paper's edge probability ``2 ln n / n`` (clamped to [0, 1])."""
    if n < 2:
        return 0.0
    return min(1.0, 2.0 * math.log(n) / n)


def _connected(n: int, edges: List[Tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def _bernoulli_pairs(n: int, p: float, rng: random.Random) -> List[Tuple[int, int]]:
    """The pairs ``(u, v)``, ``u < v``, for which ``rng.random() < p``,
    one draw per pair in row-major order.

    The draws are made in blocks through :func:`random_doubles`, which
    leaves ``rng`` where the per-pair loop would.  A block of at most
    :data:`_PAIR_BLOCK` pairs bounds the temporaries at a few MB.
    """
    pairs = n * (n - 1) // 2
    hits: List[Any] = []
    for first in range(0, pairs, _PAIR_BLOCK):
        count = min(_PAIR_BLOCK, pairs - first)
        hits.append(np.flatnonzero(random_doubles(rng, count) < p) + first)
    if not hits:
        return []
    flat = np.concatenate(hits)
    # Row u holds the n - 1 - u pairs (u, u+1..n-1) from offset row_start[u].
    u_all = np.arange(n, dtype=np.int64)
    row_start = u_all * (n - 1) - u_all * (u_all - 1) // 2
    u = np.searchsorted(row_start, flat, side="right") - 1
    v = flat - row_start[u] + u + 1
    return list(zip(u.tolist(), v.tolist()))


def random_graph(
    n: int,
    rng: random.Random,
    p: Optional[float] = None,
    capacity: CapacityFn = paper_capacity,
    require_connected: bool = True,
    max_retries: int = 64,
) -> Topology:
    """An Erdős–Rényi overlay with symmetric capacities.

    Parameters
    ----------
    n:
        Number of vertices.
    rng:
        Randomness source (seed it for reproducibility).
    p:
        Edge probability; defaults to the paper's ``2 ln n / n``.
    capacity:
        Per-edge capacity draw; defaults to uniform [3, 15].
    require_connected:
        Redraw until the underlying undirected graph is connected.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if p is None:
        p = paper_edge_probability(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    for _attempt in range(max_retries):
        edges = _bernoulli_pairs(n, p, rng)
        if not require_connected or _connected(n, edges):
            weighted = [(u, v, capacity(rng)) for u, v in edges]
            return Topology.from_undirected_edges(
                n, weighted, name=f"random(n={n}, p={p:.4f})"
            )
    raise RuntimeError(
        f"failed to draw a connected G({n}, {p:.4f}) graph in "
        f"{max_retries} attempts"
    )


def sparse_random_graph(
    n: int,
    rng: random.Random,
    p: Optional[float] = None,
    capacity: CapacityFn = paper_capacity,
    require_connected: bool = True,
    max_retries: int = 64,
) -> Topology:
    """A G(n, p) overlay sampled in O(edges) time (Batagelj–Brandes).

    Distributionally the same family as :func:`random_graph` but drawn
    by *geometric edge skipping*: instead of one Bernoulli trial per
    vertex pair (O(n^2) — hopeless at n = 10^5), each uniform draw
    jumps directly to the next present edge, so the work is proportional
    to the number of edges actually produced (O(n log n) at the paper's
    ``2 ln n / n`` probability).  The draw sequence differs from
    :func:`random_graph`, so the two samplers produce different (equally
    valid) instances for the same seed.

    Same parameters and connectivity-retry contract as
    :func:`random_graph`.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if p is None:
        p = paper_edge_probability(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    log_skip = math.log1p(-p) if 0.0 < p < 1.0 else None
    for _attempt in range(max_retries):
        edges: List[Tuple[int, int]] = []
        if p == 1.0:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        elif log_skip is not None:
            # Walk the column-major enumeration of pairs (w, v), w < v,
            # advancing by geometric gaps between present edges.
            v = 1
            w = -1
            while v < n:
                w += 1 + int(math.log1p(-rng.random()) / log_skip)
                while w >= v and v < n:
                    w -= v
                    v += 1
                if v < n:
                    edges.append((w, v))
        if not require_connected or _connected(n, edges):
            weighted = [(u, v, capacity(rng)) for u, v in edges]
            return Topology.from_undirected_edges(
                n, weighted, name=f"sparse_random(n={n}, p={p:.6f})"
            )
    raise RuntimeError(
        f"failed to draw a connected sparse G({n}, {p:.6f}) graph in "
        f"{max_retries} attempts"
    )
