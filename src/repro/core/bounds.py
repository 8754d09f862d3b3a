"""Lower-bound approximations for remaining bandwidth and timesteps.

Section 5.1 closes with two cheap lower bounds the paper uses to judge
heuristic quality on graphs too large for the exact solvers:

* **Remaining bandwidth** — "counting every token that is wanted but not
  known at each vertex": each such (vertex, token) pair costs at least one
  move, so the sum lower-bounds the bandwidth any schedule still needs.

* **Remaining timesteps** — ``M_i(v) = i + |T^{c_i(v)}| / indegree``,
  where ``T^{c_i(v)}`` is the set of tokens (still needed by ``v``) held
  only outside the radius-``i`` in-closure of ``v``, maximized over ``i``
  and over vertices.  A token held only at distance ``> i`` cannot arrive
  before timestep ``i + 1``, and from then on ``v`` receives at most its
  total incoming capacity per step, so completion takes at least
  ``i + ceil(outside_i / in_capacity)`` more steps.

  The paper divides by *indegree*; we divide by the total incoming
  *capacity* instead, because with capacities above one the indegree
  version can exceed the true optimum and stop being a lower bound.
  With unit capacities the two coincide.  This substitution is recorded
  in DESIGN.md.

Both functions accept an optional mid-run possession vector so the
simulator can report bound trajectories, and evaluate the initial state
when it is omitted.

Cost, for ``n`` vertices, ``m`` arcs and ``k`` outstanding tokens (wanted
somewhere and missing there): the bandwidth bound is O(n) set
operations; the timestep bound runs one multi-source BFS per outstanding
token, seeded from its holders, O(k·(n + m)), then sorts each vertex's
needed-token distances for the radius sweep; the lookahead bound is
one pass over the arcs, O(n + m) mask operations.  The diameter bound is
:meth:`Problem.diameter`, a bit-parallel reach fixpoint of
``diameter + 1`` rounds of O(m) n-bit ORs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Sized

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet

__all__ = [
    "remaining_bandwidth",
    "remaining_timesteps",
    "lookahead_timestep_bound",
    "lookahead_bound_of_masks",
    "diameter_knowledge_bound",
    "InfeasibleBoundError",
]


class InfeasibleBoundError(ValueError):
    """Raised when some wanted token has no holder anywhere — no schedule
    can succeed, so no finite bound exists."""


def _possession_or_initial(
    problem: Problem, possession: Optional[Sequence[TokenSet]]
) -> Sequence[TokenSet]:
    if possession is None:
        return problem.have
    _check_length(problem, possession)
    return possession


def _check_length(problem: Problem, possession: Sized) -> None:
    if len(possession) != problem.num_vertices:
        raise ValueError(
            f"possession has {len(possession)} entries for "
            f"{problem.num_vertices} vertices"
        )


def remaining_bandwidth(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """Wanted-but-missing token count — a bandwidth lower bound.

    "Logically this represents the bandwidth that would be consumed if
    the schedule could be completed in a single timestep."
    """
    possession = _possession_or_initial(problem, possession)
    return sum(
        len(problem.want[v] - possession[v]) for v in range(problem.num_vertices)
    )


def radius_sweep(token_dist: List[int], in_cap: int) -> int:
    """``max_i M_i(v)`` from the distances of ``v``'s needed tokens to
    their nearest holders (sorted in place), with ``v``'s total
    in-capacity ``in_cap``.  Shared by :func:`remaining_timesteps` and
    the branch-and-bound searcher's admissible bound."""
    token_dist.sort()
    max_dist = token_dist[-1]
    best_bound = 0
    # outside_i = number of needed tokens whose nearest holder is at
    # distance > i.  Sweep i from 0 to max_dist - 1; at i >= max_dist the
    # outside set is empty and M_i degenerates to i, covered by i = max_dist - 1.
    total = len(token_dist)
    consumed = 0  # tokens with distance <= i
    for i in range(max_dist):
        while consumed < total and token_dist[consumed] <= i:
            consumed += 1
        outside = total - consumed
        bound = i + math.ceil(outside / in_cap)
        if bound > best_bound:
            best_bound = bound
    # i = 0 with outside = all needed tokens at distance >= 1 is included
    # above; also ensure the plain farthest-token bound survives rounding.
    if max_dist > best_bound:
        best_bound = max_dist
    return best_bound


def remaining_timesteps(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """The paper's radius-closure makespan lower bound, maximized over
    vertices and radii.

    Returns 0 when every want is already satisfied.  Raises
    :class:`InfeasibleBoundError` when some want can never be satisfied,
    naming the lowest such vertex and its lowest such token.
    """
    possession = _possession_or_initial(problem, possession)
    masks = [p.mask for p in possession]
    needs = [want.mask & ~mask for want, mask in zip(problem.want, masks)]
    outstanding = 0
    for needed in needs:
        outstanding |= needed
    dist_by_token = {
        token: problem.distances_from_any(
            u for u, mask in enumerate(masks) if mask >> token & 1
        )
        for token in TokenSet(outstanding)
    }
    best = 0
    for v, needed in enumerate(needs):
        if not needed:
            continue
        token_dist: List[int] = []
        for token in TokenSet(needed):
            dist = dist_by_token[token][v]
            if dist < 0:
                raise InfeasibleBoundError(
                    f"vertex {v} needs token {token}, which no vertex that can "
                    f"reach it possesses"
                )
            token_dist.append(dist)
        # A vertex with no incoming arcs is reached by no holder of a
        # token it lacks, so the loop above has raised for it already.
        bound = radius_sweep(token_dist, problem.in_capacity(v))
        if bound > best:
            best = bound
    return best


def lookahead_bound_of_masks(problem: Problem, masks: Sequence[int]) -> int:
    """:func:`lookahead_timestep_bound` on possession given as one int
    bitmask per vertex."""
    _check_length(problem, masks)
    suppliers = problem.suppliers()
    best = 0
    for v, want in enumerate(problem.want):
        needed = want.mask & ~masks[v]
        if not needed:
            continue
        srcs = suppliers.srcs[v]
        if not srcs:
            raise InfeasibleBoundError(
                f"vertex {v} still needs tokens but has no incoming arcs"
            )
        in_cap = sum(suppliers.caps[v])
        one_hop = 0
        for src in srcs:
            one_hop |= masks[src]
        receivable = min((one_hop & needed).bit_count(), in_cap)
        rest = needed.bit_count() - receivable
        bound = 1 + math.ceil(rest / in_cap) if rest > 0 else 1
        if bound > best:
            best = bound
    return best


def lookahead_timestep_bound(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """The paper's one-timestep-lookahead special case.

    For each vertex, count exactly how many of its needed tokens are held
    by in-neighbors right now; everything receivable this step is bounded
    by both that count and the incoming capacity, and the remainder needs
    at least ``ceil(rest / in_capacity)`` further steps.
    """
    possession = _possession_or_initial(problem, possession)
    return lookahead_bound_of_masks(problem, [p.mask for p in possession])


def diameter_knowledge_bound(problem: Problem) -> int:
    """Upper bound on the *additive* cost of locality (Section 4.2).

    Flooding full state for ``diameter`` steps lets every vertex compute
    the same optimal global schedule deterministically, so an online
    algorithm exists whose makespan is at most ``diameter + optimum``.
    This returns that diameter term.
    """
    return problem.diameter()
