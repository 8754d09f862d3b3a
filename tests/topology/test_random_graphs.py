"""Tests for the G(n, 2 ln n / n) random graph generator."""

import math
import random
from typing import List, Optional, Tuple

import pytest

from repro.topology.base import Topology
from repro.topology.random_graphs import (
    _connected,
    paper_edge_probability,
    random_graph,
    sparse_random_graph,
)
from repro.topology.weights import CapacityFn, paper_capacity, uniform_capacity, unit_capacity


class TestEdgeProbability:
    def test_formula(self):
        assert paper_edge_probability(100) == pytest.approx(
            2 * math.log(100) / 100
        )

    def test_always_a_probability(self):
        # 2 ln n / n peaks at 2/e < 1, so no clamping is ever needed, but
        # the value must stay in [0, 1] for every n.
        assert all(0.0 <= paper_edge_probability(n) <= 1.0 for n in range(1, 50))

    def test_tiny_graphs(self):
        assert paper_edge_probability(1) == 0.0


class TestGenerator:
    def test_connected(self):
        for seed in range(5):
            topo = random_graph(30, random.Random(seed))
            # BFS over the symmetric arcs.
            adj = {v: set() for v in range(30)}
            for arc in topo.arcs:
                adj[arc.src].add(arc.dst)
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert len(seen) == 30

    def test_symmetric_arcs(self):
        topo = random_graph(20, random.Random(1))
        arcs = {(a.src, a.dst): a.capacity for a in topo.arcs}
        for (u, v), cap in arcs.items():
            assert arcs[(v, u)] == cap

    def test_paper_capacity_range(self):
        topo = random_graph(25, random.Random(2))
        assert all(3 <= a.capacity <= 15 for a in topo.arcs)

    def test_custom_capacity(self):
        topo = random_graph(15, random.Random(3), capacity=unit_capacity)
        assert all(a.capacity == 1 for a in topo.arcs)

    def test_edge_count_order_n_log_n(self):
        """The paper: the edge count grows as O(n ln n)."""
        n = 200
        topo = random_graph(n, random.Random(4))
        undirected_edges = topo.num_arcs() / 2
        expected = n * math.log(n)  # E[edges] = C(n,2) * 2 ln n / n ~ n ln n
        assert 0.5 * expected < undirected_edges < 1.5 * expected

    def test_explicit_probability(self):
        dense = random_graph(10, random.Random(0), p=1.0)
        assert dense.num_arcs() == 10 * 9

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_graph(10, random.Random(0), p=1.5)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            random_graph(0, random.Random(0))

    def test_disconnected_allowed_when_requested(self):
        topo = random_graph(
            10, random.Random(0), p=0.0, require_connected=False
        )
        assert topo.num_arcs() == 0

    def test_impossible_connectivity_raises(self):
        with pytest.raises(RuntimeError, match="connected"):
            random_graph(10, random.Random(0), p=0.0, max_retries=3)

    def test_single_vertex(self):
        topo = random_graph(1, random.Random(0))
        assert topo.num_vertices == 1
        assert topo.num_arcs() == 0


def _per_pair_random_graph(
    n: int,
    rng: random.Random,
    p: Optional[float] = None,
    capacity: CapacityFn = paper_capacity,
    require_connected: bool = True,
    max_retries: int = 64,
) -> Tuple[Topology, int]:
    """The generator as one ``rng.random()`` call per pair: the oracle
    for the bulk Bernoulli pass.  Returns the topology and the attempts."""
    if p is None:
        p = paper_edge_probability(n)
    for attempt in range(1, max_retries + 1):
        edges: List[Tuple[int, int]] = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v))
        if not require_connected or _connected(n, edges):
            weighted = [(u, v, capacity(rng)) for u, v in edges]
            return (
                Topology.from_undirected_edges(
                    n, weighted, name=f"random(n={n}, p={p:.4f})"
                ),
                attempt,
            )
    raise RuntimeError("no connected graph")


class _Doubled(random.Random):
    """A subclass whose ``random`` is its own: the base stream, squared."""

    def random(self) -> float:
        return super().random() ** 2


class TestBulkDrawsMatchPerPairLoop:
    """Same arcs and the same final ``getstate()`` as the per-pair loop."""

    @staticmethod
    def _check(n: int, seed: int, rng_type: type = random.Random, **kwargs) -> int:
        rng = rng_type(seed)
        twin = rng_type(seed)
        topo = random_graph(n, rng, **kwargs)
        expected, attempts = _per_pair_random_graph(n, twin, **kwargs)
        assert topo == expected
        assert rng.getstate() == twin.getstate()
        return attempts

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 200, 1000])
    def test_paper_probability(self, n):
        self._check(n, 20050518 + n)

    def test_connectivity_retries(self):
        attempts = [self._check(30, seed, p=0.09) for seed in range(6)]
        assert max(attempts) > 1

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_extreme_probabilities(self, p):
        self._check(12, 4, p=p, require_connected=False)

    def test_dense_connected(self):
        self._check(12, 4, p=1.0)

    def test_disconnected_allowed(self):
        self._check(60, 8, p=0.01, require_connected=False)

    def test_custom_capacity(self):
        self._check(50, 2, capacity=uniform_capacity(1, 99))

    def test_subclass_keeps_its_own_random(self):
        self._check(40, 6, rng_type=_Doubled)

    def test_no_connected_draw_leaves_same_state(self):
        rng = random.Random(1)
        twin = random.Random(1)
        with pytest.raises(RuntimeError):
            random_graph(10, rng, p=0.0, max_retries=3)
        with pytest.raises(RuntimeError):
            _per_pair_random_graph(10, twin, p=0.0, max_retries=3)
        assert rng.getstate() == twin.getstate()


class TestSparseGenerator:
    def test_connected_and_valid_edges(self):
        for seed in range(5):
            topo = sparse_random_graph(60, random.Random(seed))
            adj = {v: set() for v in range(60)}
            for arc in topo.arcs:
                assert 0 <= arc.src < 60 and 0 <= arc.dst < 60
                assert arc.src != arc.dst
                adj[arc.src].add(arc.dst)
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            assert len(seen) == 60

    def test_no_duplicate_edges(self):
        topo = sparse_random_graph(80, random.Random(3))
        pairs = [(a.src, a.dst) for a in topo.arcs]
        assert len(pairs) == len(set(pairs))

    def test_symmetric_arcs(self):
        topo = sparse_random_graph(40, random.Random(1))
        arcs = {(a.src, a.dst): a.capacity for a in topo.arcs}
        for (u, v), cap in arcs.items():
            assert arcs[(v, u)] == cap

    def test_edge_count_order_n_log_n(self):
        """Same O(n ln n) edge growth as the per-pair sampler."""
        n = 400
        topo = sparse_random_graph(n, random.Random(4))
        undirected_edges = topo.num_arcs() / 2
        expected = n * math.log(n)
        assert 0.5 * expected < undirected_edges < 1.5 * expected

    def test_dense_and_empty_probabilities(self):
        dense = sparse_random_graph(10, random.Random(0), p=1.0)
        assert dense.num_arcs() == 10 * 9
        empty = sparse_random_graph(
            10, random.Random(0), p=0.0, require_connected=False
        )
        assert empty.num_arcs() == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sparse_random_graph(0, random.Random(0))
        with pytest.raises(ValueError):
            sparse_random_graph(10, random.Random(0), p=-0.1)
        with pytest.raises(RuntimeError, match="connected"):
            sparse_random_graph(10, random.Random(0), p=0.0, max_retries=3)

    def test_mean_edge_count_matches_dense_sampler(self):
        """Both samplers target E[edges] = C(n, 2) * p."""
        n, p, trials = 40, 0.12, 60
        expected = n * (n - 1) / 2 * p
        total = 0
        for seed in range(trials):
            topo = sparse_random_graph(
                n, random.Random(seed), p=p, require_connected=False
            )
            total += topo.num_arcs() / 2
        mean = total / trials
        assert abs(mean - expected) < 0.15 * expected
