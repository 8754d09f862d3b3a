"""The Dominating Set → FOCD reduction (Theorem 5 / Figure 7).

Given an undirected graph ``G = (V, E)`` and an integer ``k``, the
appendix constructs a FOCD instance on ``2n + 2`` vertices that is
solvable in two timesteps iff ``G`` has a dominating set of size at most
``k``:

* vertices ``{s, t} ∪ V ∪ V'`` where ``V'`` carries a primed copy
  ``v'_i`` of each ``v_i``;
* tokens ``{0} ∪ {1, .., n-k}``; ``s`` holds all of them;
* ``t`` wants ``{1, .., n-k}`` and every ``v'_i`` wants ``{0}``;
* capacity-one arcs ``s -> v_i``, ``v_i -> t``, ``v_i -> v'_i``, and
  ``v_i -> v'_j`` for every edge ``(v_i, v_j) ∈ E``.

In two steps, ``n - k`` of the intermediaries must relay the distinct
tokens ``1..n-k`` to ``t``, so at most ``k`` intermediaries can carry
token 0 — and those must cover all of ``V'``, i.e. dominate ``G``.

This module provides the instance builder, exact and greedy Dominating
Set solvers for cross-validation, the witness extraction that recovers a
dominating set from a 2-step schedule, and the end-to-end decision
procedure driven by the branch-and-bound oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.problem import Problem
from repro.core.schedule import Schedule
from repro.exact.branch_and_bound import SearchBudget, decide_dfocd

__all__ = [
    "DominatingSetInstance",
    "is_dominating_set",
    "brute_force_min_dominating_set",
    "greedy_dominating_set",
    "reduce_to_focd",
    "extract_dominating_set",
    "has_dominating_set_via_focd",
]


@dataclass(frozen=True)
class DominatingSetInstance:
    """An undirected graph for the Dominating Set problem.

    Vertices are ``0..num_vertices-1``; edges are unordered pairs.
    """

    num_vertices: int
    edges: FrozenSet[Tuple[int, int]]

    @classmethod
    def build(cls, num_vertices: int, edges: Sequence[Tuple[int, int]]) -> "DominatingSetInstance":
        if num_vertices < 1:
            raise ValueError(f"need at least one vertex, got {num_vertices}")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            normalized.add((min(u, v), max(u, v)))
        return cls(num_vertices, frozenset(normalized))

    def neighbors(self, v: int) -> Set[int]:
        out = set()
        for a, b in self.edges:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out

    def closed_neighborhood(self, v: int) -> Set[int]:
        return self.neighbors(v) | {v}


def is_dominating_set(graph: DominatingSetInstance, candidate: Set[int]) -> bool:
    """Whether every vertex is in ``candidate`` or adjacent to it."""
    covered: Set[int] = set()
    for v in sorted(candidate):
        covered |= graph.closed_neighborhood(v)
    return len(covered) == graph.num_vertices


def brute_force_min_dominating_set(graph: DominatingSetInstance) -> Set[int]:
    """Smallest dominating set by subset enumeration (exponential)."""
    vertices = range(graph.num_vertices)
    for size in range(graph.num_vertices + 1):
        for candidate in itertools.combinations(vertices, size):
            if is_dominating_set(graph, set(candidate)):
                return set(candidate)
    raise AssertionError("the full vertex set always dominates")


def greedy_dominating_set(graph: DominatingSetInstance) -> Set[int]:
    """The classic ln(n)-approximation: repeatedly take the vertex
    covering the most uncovered vertices."""
    uncovered = set(range(graph.num_vertices))
    chosen: Set[int] = set()
    while uncovered:
        best = max(
            range(graph.num_vertices),
            key=lambda v: (len(graph.closed_neighborhood(v) & uncovered), -v),
        )
        chosen.add(best)
        uncovered -= graph.closed_neighborhood(best)
    return chosen


# ----------------------------------------------------------------------
# The reduction
# ----------------------------------------------------------------------
def _layout(n: int) -> Tuple[int, int, List[int], List[int]]:
    """Vertex ids in the FOCD instance: s, t, V, V'."""
    s = 0
    t = 1
    v_ids = list(range(2, 2 + n))
    vp_ids = list(range(2 + n, 2 + 2 * n))
    return s, t, v_ids, vp_ids


def reduce_to_focd(graph: DominatingSetInstance, k: int) -> Problem:
    """Build the Figure 7 FOCD instance for "does G have a dominating
    set of size at most k?"."""
    n = graph.num_vertices
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n={n}, got k={k}")
    s, t, v_ids, vp_ids = _layout(n)
    num_tokens = 1 + (n - k)  # token 0 plus tokens 1..n-k
    arcs: List[Tuple[int, int, int]] = []
    for i in range(n):
        arcs.append((s, v_ids[i], 1))
        arcs.append((v_ids[i], t, 1))
        arcs.append((v_ids[i], vp_ids[i], 1))
    for a, b in sorted(graph.edges):
        arcs.append((v_ids[a], vp_ids[b], 1))
        arcs.append((v_ids[b], vp_ids[a], 1))
    want = {t: list(range(1, num_tokens))}
    for vp in vp_ids:
        want[vp] = [0]
    return Problem.build(
        2 * n + 2,
        num_tokens,
        arcs,
        have={s: list(range(num_tokens))},
        want=want,
        name=f"ds_reduction(n={n}, k={k})",
    )


def extract_dominating_set(
    graph: DominatingSetInstance, k: int, schedule: Schedule
) -> Set[int]:
    """Recover a dominating set from a successful 2-step schedule.

    Per the proof, the intermediaries that hold token 0 after the first
    timestep must dominate ``G``.  Raises :class:`ValueError` if the
    schedule is not a valid successful 2-step solution or the recovered
    set does not dominate (which would falsify the theorem).
    """
    problem = reduce_to_focd(graph, k)
    if schedule.makespan > 2:
        raise ValueError(
            f"expected a schedule of at most 2 steps, got {schedule.makespan}"
        )
    history = schedule.validate(problem)
    if not all(want <= held for want, held in zip(problem.want, history[-1])):
        raise ValueError("schedule does not solve the reduction instance")
    _s, _t, v_ids, _vp_ids = _layout(graph.num_vertices)
    after_first = history[min(1, len(history) - 1)]
    dominating = {
        i for i, v in enumerate(v_ids) if 0 in after_first[v]
    }
    if len(dominating) > k:
        raise ValueError(
            f"recovered {len(dominating)} holders of token 0, more than k={k}; "
            f"schedule wastes capacity"
        )
    if not is_dominating_set(graph, dominating):
        raise ValueError(
            f"recovered set {sorted(dominating)} does not dominate the graph"
        )
    return dominating


def has_dominating_set_via_focd(
    graph: DominatingSetInstance,
    k: int,
    budget: Optional[SearchBudget] = None,
) -> bool:
    """Decide Dominating Set by solving the reduced FOCD instance.

    This is the reduction run "forwards" as an algorithm: G has a
    dominating set of size ≤ k iff the reduction admits a 2-timestep
    schedule (decided exactly by branch-and-bound).
    """
    problem = reduce_to_focd(graph, k)
    schedule = decide_dfocd(problem, 2, budget=budget)
    return schedule is not None
