"""Hand-built topologies and problem gadgets from the paper's figures.

Includes the Figure 1 time/bandwidth tension gadget and a library of
structured graphs (paths, cycles, stars, cliques, grids) used throughout
the tests and examples.
"""

from __future__ import annotations

from typing import List

from repro.core.problem import Arc, Problem
from repro.topology.base import Topology

__all__ = [
    "path_topology",
    "cycle_topology",
    "star_topology",
    "complete_topology",
    "grid_topology",
    "figure1_gadget",
]


def path_topology(n: int, capacity: int = 1, bidirectional: bool = True) -> Topology:
    """A path ``0 - 1 - ... - n-1``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    arcs: List[Arc] = []
    for v in range(n - 1):
        arcs.append(Arc(v, v + 1, capacity))
        if bidirectional:
            arcs.append(Arc(v + 1, v, capacity))
    return Topology(n, tuple(arcs), name=f"path({n})")


def cycle_topology(n: int, capacity: int = 1, bidirectional: bool = True) -> Topology:
    """A cycle over ``n >= 3`` vertices."""
    if n < 3:
        raise ValueError(f"need n >= 3 for a cycle, got {n}")
    arcs: List[Arc] = []
    for v in range(n):
        w = (v + 1) % n
        arcs.append(Arc(v, w, capacity))
        if bidirectional:
            arcs.append(Arc(w, v, capacity))
    return Topology(n, tuple(arcs), name=f"cycle({n})")


def star_topology(n: int, capacity: int = 1, bidirectional: bool = True) -> Topology:
    """A star with hub 0 and ``n - 1`` leaves."""
    if n < 2:
        raise ValueError(f"need n >= 2 for a star, got {n}")
    arcs: List[Arc] = []
    for leaf in range(1, n):
        arcs.append(Arc(0, leaf, capacity))
        if bidirectional:
            arcs.append(Arc(leaf, 0, capacity))
    return Topology(n, tuple(arcs), name=f"star({n})")


def complete_topology(n: int, capacity: int = 1) -> Topology:
    """The complete digraph on ``n`` vertices."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    arcs = tuple(
        Arc(u, v, capacity) for u in range(n) for v in range(n) if u != v
    )
    return Topology(n, arcs, name=f"complete({n})")


def grid_topology(rows: int, cols: int, capacity: int = 1) -> Topology:
    """A bidirectional ``rows x cols`` grid; vertex ``(r, c)`` is
    ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise ValueError(f"need positive grid dimensions, got {rows}x{cols}")
    arcs: List[Arc] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                arcs.append(Arc(v, v + 1, capacity))
                arcs.append(Arc(v + 1, v, capacity))
            if r + 1 < rows:
                arcs.append(Arc(v, v + cols, capacity))
                arcs.append(Arc(v + cols, v, capacity))
    return Topology(rows * cols, tuple(arcs), name=f"grid({rows}x{cols})")


def figure1_gadget() -> Problem:
    """A problem realizing Figure 1's exact numbers: minimizing time and
    bandwidth are at odds.

    The paper's caption: "The minimum time schedule takes 2 timesteps and
    uses 6 units of bandwidth; a minimum bandwidth schedule uses 4 units
    of bandwidth but takes 3 timesteps."  The figure's drawing is not
    reproduced in the available text, so this gadget was constructed (and
    exhaustively verified against the exact solvers) to realize exactly
    those optima:

    * source ``s = 0`` holds the single token;
    * receivers ``r1..r4 = 1..4`` want it, wired as the cheap depth-3
      tree ``s -> r1 -> r2 -> {r3, r4}`` (4 moves, 3 timesteps);
    * relays ``x = 5`` and ``y = 6`` provide the only 2-hop routes to
      ``r3`` and ``r4`` (``s -> x -> r3``, ``s -> y -> r4``), so every
      2-timestep schedule must pay for both relay copies: 6 moves.

    All arcs have capacity 1.
    """
    arcs = [
        (0, 1, 1),  # s -> r1
        (1, 2, 1),  # r1 -> r2
        (2, 3, 1),  # r2 -> r3
        (2, 4, 1),  # r2 -> r4
        (0, 5, 1),  # s -> x
        (5, 3, 1),  # x -> r3
        (0, 6, 1),  # s -> y
        (6, 4, 1),  # y -> r4
    ]
    return Problem.build(
        7,
        1,
        arcs,
        have={0: [0]},
        want={1: [0], 2: [0], 3: [0], 4: [0]},
        name="figure1_gadget",
    )
