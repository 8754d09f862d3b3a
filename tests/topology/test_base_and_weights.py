"""Tests for the Topology container and capacity strategies."""

import random

import pytest

from repro.core.problem import Arc
from repro.topology.base import Topology
from repro.topology.weights import (
    PAPER_CAPACITY_MAX,
    PAPER_CAPACITY_MIN,
    paper_capacity,
    uniform_capacity,
    unit_capacity,
)


class TestTopology:
    def test_from_undirected_edges(self):
        topo = Topology.from_undirected_edges(3, [(0, 1, 4), (1, 2, 2)])
        arcs = {(a.src, a.dst): a.capacity for a in topo.arcs}
        assert arcs == {(0, 1): 4, (1, 0): 4, (1, 2): 2, (2, 1): 2}

    def test_to_problem(self):
        topo = Topology.from_undirected_edges(2, [(0, 1, 3)])
        problem = topo.to_problem(2, {0: [0, 1]}, {1: [0, 1]})
        assert problem.num_vertices == 2
        assert problem.capacity(0, 1) == 3
        assert problem.is_satisfiable()

    def test_to_problem_keeps_the_arcs(self):
        topo = Topology.from_undirected_edges(3, [(0, 1, 3), (1, 2, 5)])
        problem = topo.to_problem(1, {0: [0]}, {2: [0]})
        assert all(a is b for a, b in zip(problem.arcs, topo.arcs, strict=True))

    def test_to_problem_propagates_name(self):
        topo = Topology(2, (Arc(0, 1, 1),), name="tiny")
        assert topo.to_problem(0, {}, {}).name == "tiny"

    def test_to_networkx(self):
        topo = Topology.from_undirected_edges(2, [(0, 1, 5)])
        g = topo.to_networkx()
        assert g.number_of_nodes() == 2
        assert g[0][1]["capacity"] == 5
        assert g[1][0]["capacity"] == 5

    def test_num_arcs(self):
        topo = Topology.from_undirected_edges(3, [(0, 1, 1)])
        assert topo.num_arcs() == 2


class TestWeights:
    def test_paper_capacity_range(self):
        rng = random.Random(0)
        draws = {paper_capacity(rng) for _ in range(500)}
        assert min(draws) >= PAPER_CAPACITY_MIN
        assert max(draws) <= PAPER_CAPACITY_MAX
        assert draws == set(range(3, 16))  # all values hit in 500 draws

    def test_unit_capacity(self):
        assert unit_capacity(random.Random(0)) == 1

    def test_uniform_capacity_factory(self):
        draw = uniform_capacity(2, 4)
        rng = random.Random(1)
        values = {draw(rng) for _ in range(200)}
        assert values == {2, 3, 4}

    def test_uniform_capacity_invalid(self):
        with pytest.raises(ValueError):
            uniform_capacity(0, 4)
        with pytest.raises(ValueError):
            uniform_capacity(5, 4)
