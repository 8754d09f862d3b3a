"""Tests for the GT-ITM-style transit-stub generator."""

import random

import pytest

from repro.topology.base import Topology
from repro.topology.transit_stub import (
    TransitStubParams,
    params_for_size,
    transit_stub_graph,
)


def _connected(topo: Topology) -> bool:
    adj = {v: set() for v in range(topo.num_vertices)}
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
    return len(seen) == topo.num_vertices


class TestParams:
    def test_total_vertices(self):
        params = TransitStubParams(2, 3, 2, 4)
        assert params.total_vertices == 2 * 3 * (1 + 2 * 4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TransitStubParams(num_transit_domains=0)

    def test_params_for_size_close(self):
        for target in (20, 50, 100, 200, 400, 1000):
            params = params_for_size(target)
            realized = params.total_vertices
            assert 0.5 * target <= realized <= 2.0 * target, (target, realized)

    def test_params_for_size_too_small(self):
        with pytest.raises(ValueError):
            params_for_size(4)


class TestGenerator:
    def test_vertex_count_matches_params(self):
        params = TransitStubParams(2, 2, 2, 3)
        topo = transit_stub_graph(params, random.Random(0))
        assert topo.num_vertices == params.total_vertices

    def test_always_connected(self):
        for seed in range(6):
            params = TransitStubParams(2, 3, 2, 4)
            topo = transit_stub_graph(params, random.Random(seed))
            assert _connected(topo)

    def test_symmetric_arcs(self):
        topo = transit_stub_graph(TransitStubParams(), random.Random(1))
        arcs = {(a.src, a.dst): a.capacity for a in topo.arcs}
        for (u, v), cap in arcs.items():
            assert arcs[(v, u)] == cap

    def test_capacities_in_paper_range(self):
        topo = transit_stub_graph(TransitStubParams(), random.Random(2))
        assert all(3 <= a.capacity <= 15 for a in topo.arcs)

    def test_hierarchy_transit_nodes_are_cut_vertices(self):
        """Stub domains attach to the core through single gateways: a
        stub vertex's only path out passes its transit node, so stub
        domains are 'leafy' — their vertices have low degree compared to
        the transit core's connectivity role."""
        params = TransitStubParams(2, 2, 2, 5)
        topo = transit_stub_graph(params, random.Random(3))
        num_transit = params.num_transit_domains * params.transit_nodes_per_domain
        degree = [0] * topo.num_vertices
        for arc in topo.arcs:
            degree[arc.src] += 1
        transit_degree = sum(degree[:num_transit]) / num_transit
        stub_degree = sum(degree[num_transit:]) / (topo.num_vertices - num_transit)
        assert transit_degree > stub_degree

    def test_extra_redundancy_edges(self):
        base = TransitStubParams(2, 2, 2, 4)
        extra = TransitStubParams(
            2, 2, 2, 4, extra_transit_stub_edges=5, extra_stub_stub_edges=5
        )
        t_base = transit_stub_graph(base, random.Random(7))
        t_extra = transit_stub_graph(extra, random.Random(7))
        assert t_extra.num_arcs() > t_base.num_arcs()
