"""Transit-stub topologies in the style of the GT-ITM generator.

The paper's evaluation uses "transit-stub graphs generated by the GT-ITM
topology generator".  GT-ITM itself is a 1996 C program we cannot ship,
so this module reimplements the published transit-stub construction
(Zegura, Calvert, Bhattacharjee, "How to Model an Internetwork",
INFOCOM 1996):

1. a connected random graph over *transit domains*;
2. each transit domain internally a connected random graph of transit
   nodes; domain adjacency realized by an edge between random member
   nodes of each adjacent domain pair;
3. each transit node sponsors several *stub domains*, each internally a
   connected random graph of stub nodes, attached to its transit node by
   one edge from a random member;
4. optional extra transit–stub and stub–stub edges for redundancy.

All edges are symmetric arc pairs; capacities come from the paper's
[3, 15] draw (GT-ITM edge weights are overridden by the paper anyway).
This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.topology.base import Topology
from repro.topology.weights import CapacityFn, paper_capacity

__all__ = ["TransitStubParams", "transit_stub_graph", "params_for_size"]


@dataclass(frozen=True)
class TransitStubParams:
    """Shape parameters of a transit-stub topology.

    Total vertex count is
    ``num_transit_domains * transit_nodes_per_domain * (1 + stub_domains_per_transit_node * stub_nodes_per_domain)``.
    """

    num_transit_domains: int = 2
    transit_nodes_per_domain: int = 4
    stub_domains_per_transit_node: int = 3
    stub_nodes_per_domain: int = 8
    intra_transit_edge_prob: float = 0.6
    intra_stub_edge_prob: float = 0.42
    extra_transit_stub_edges: int = 0
    extra_stub_stub_edges: int = 0

    def __post_init__(self) -> None:
        if min(
            self.num_transit_domains,
            self.transit_nodes_per_domain,
            self.stub_domains_per_transit_node,
            self.stub_nodes_per_domain,
        ) < 1:
            raise ValueError("all transit-stub shape parameters must be >= 1")

    @property
    def total_vertices(self) -> int:
        per_transit = 1 + self.stub_domains_per_transit_node * self.stub_nodes_per_domain
        return self.num_transit_domains * self.transit_nodes_per_domain * per_transit


def params_for_size(target_n: int) -> TransitStubParams:
    """Shape parameters whose total vertex count approximates ``target_n``.

    Keeps the hierarchy fixed (2 transit domains, 3 stub domains per
    transit node) and scales the transit- and stub-domain sizes, matching
    how small and large GT-ITM configurations are usually produced.
    """
    if target_n < 8:
        raise ValueError(f"transit-stub graphs need >= 8 vertices, got {target_n}")
    domains = 2
    stubs_per_node = 3
    # per transit node the subtree is 1 + stubs_per_node * stub_size.
    # Choose transit nodes per domain ~ sqrt scaling, then solve stub size.
    transit_per_domain = max(2, round((target_n / 24) ** 0.5))
    per_node = target_n / (domains * transit_per_domain)
    stub_size = max(1, round((per_node - 1) / stubs_per_node))
    return TransitStubParams(
        num_transit_domains=domains,
        transit_nodes_per_domain=transit_per_domain,
        stub_domains_per_transit_node=stubs_per_node,
        stub_nodes_per_domain=stub_size,
    )


def _connected_subgraph_edges(
    vertices: List[int], p: float, rng: random.Random
) -> List[Tuple[int, int]]:
    """A connected random graph on ``vertices``: a random spanning tree
    (guaranteeing connectivity) plus independent extra edges with
    probability ``p``."""
    edges: Set[Tuple[int, int]] = set()
    order = list(vertices)
    rng.shuffle(order)
    for i in range(1, len(order)):
        u = order[rng.randrange(i)]
        v = order[i]
        edges.add((min(u, v), max(u, v)))
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if (min(u, v), max(u, v)) not in edges and rng.random() < p:
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def transit_stub_graph(
    params: TransitStubParams,
    rng: random.Random,
    capacity: CapacityFn = paper_capacity,
) -> Topology:
    """Generate one transit-stub topology."""
    edges: List[Tuple[int, int]] = []
    next_id = 0

    # --- transit domains -------------------------------------------------
    transit_domains: List[List[int]] = []
    for _ in range(params.num_transit_domains):
        members = list(range(next_id, next_id + params.transit_nodes_per_domain))
        next_id += params.transit_nodes_per_domain
        transit_domains.append(members)
        edges.extend(
            _connected_subgraph_edges(members, params.intra_transit_edge_prob, rng)
        )

    # Connected random graph over the domains themselves.
    domain_ids = list(range(params.num_transit_domains))
    domain_edges = _connected_subgraph_edges(domain_ids, 0.5, rng)
    for d1, d2 in domain_edges:
        u = rng.choice(transit_domains[d1])
        v = rng.choice(transit_domains[d2])
        edges.append((min(u, v), max(u, v)))

    # --- stub domains -----------------------------------------------------
    all_transit = [v for dom in transit_domains for v in dom]
    stub_vertices: List[int] = []
    for transit_node in all_transit:
        for _ in range(params.stub_domains_per_transit_node):
            members = list(range(next_id, next_id + params.stub_nodes_per_domain))
            next_id += params.stub_nodes_per_domain
            stub_vertices.extend(members)
            edges.extend(
                _connected_subgraph_edges(members, params.intra_stub_edge_prob, rng)
            )
            gateway = rng.choice(members)
            edges.append((min(transit_node, gateway), max(transit_node, gateway)))

    # --- optional redundancy edges ----------------------------------------
    existing = set(edges)

    def add_unique(u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        if u != v and key not in existing:
            existing.add(key)
            edges.append(key)

    for _ in range(params.extra_transit_stub_edges):
        add_unique(rng.choice(stub_vertices), rng.choice(all_transit))
    for _ in range(params.extra_stub_stub_edges):
        add_unique(rng.choice(stub_vertices), rng.choice(stub_vertices))

    weighted = [(u, v, capacity(rng)) for u, v in edges]
    return Topology.from_undirected_edges(
        next_id,
        weighted,
        name=(
            f"transit_stub(T={params.num_transit_domains}"
            f"x{params.transit_nodes_per_domain}, "
            f"S={params.stub_domains_per_transit_node}"
            f"x{params.stub_nodes_per_domain})"
        ),
    )
