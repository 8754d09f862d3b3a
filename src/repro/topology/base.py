"""Topology container shared by all generators.

A :class:`Topology` is just the graph part of a problem — vertices, arcs,
capacities — with helpers to attach have/want functions (producing a
:class:`repro.core.Problem`) and to interoperate with networkx.  The
evaluation workloads in :mod:`repro.workloads` consume topologies from
any generator in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Tuple

from repro.core.problem import Arc, Problem

__all__ = ["Topology"]


@dataclass(frozen=True)
class Topology:
    """An overlay graph with capacities but no content assignment."""

    num_vertices: int
    arcs: Tuple[Arc, ...]
    name: str = ""

    def to_problem(
        self,
        num_tokens: int,
        have: Mapping[int, Iterable[int]],
        want: Mapping[int, Iterable[int]],
        name: str = "",
    ) -> Problem:
        """Attach content: build the full OCD instance on this
        topology's own arcs."""
        return Problem.from_arcs(
            self.num_vertices,
            num_tokens,
            self.arcs,
            have,
            want,
            name=name or self.name,
        )

    def num_arcs(self) -> int:
        return len(self.arcs)

    def to_networkx(self):
        """Directed networkx view with ``capacity`` edge attributes."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_vertices))
        for arc in self.arcs:
            g.add_edge(arc.src, arc.dst, capacity=arc.capacity)
        return g

    @classmethod
    def from_undirected_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int, int]],
        name: str = "",
    ) -> "Topology":
        """Build a symmetric topology from undirected ``(u, v, cap)``
        edges — each becomes an arc pair with equal capacity, matching
        how the paper treats its (undirected) generated graphs."""
        arcs: List[Arc] = []
        for u, v, cap in edges:
            arcs.append(Arc(u, v, cap))
            arcs.append(Arc(v, u, cap))
        return cls(num_vertices, tuple(arcs), name=name)
