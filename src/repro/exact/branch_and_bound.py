"""Branch-and-bound search for optimal FOCD makespans.

The paper computes "optimal solutions for small graphs" with a
branch-and-bound search strategy alongside the integer program; this is
that second, independent exact oracle.  The search explores timesteps
depth-first with three prunings:

* **Full loads** — for makespan (not bandwidth), extra possession never
  hurts: any schedule can be padded so every arc carries
  ``min(capacity, |useful|)`` useful tokens without finishing later.  The
  search therefore only branches over *which* useful tokens fill each
  arc, not over how many.
* **Admissible lower bound** — the radius-closure bound of
  :mod:`repro.core.bounds`, evaluated on the search state with
  precomputed all-pairs distances; a node is cut when the bound exceeds
  the remaining depth.
* **Transposition table** — possession states proven unreachable-to-goal
  within ``d`` steps are memoized, so permuted move orders are not
  re-explored.

The search is exponential (FOCD is NP-complete); :class:`SearchBudget`
guards against runaway instances by raising :class:`SearchExhausted`
after a configurable number of expanded nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import TokenSet

__all__ = [
    "SearchBudget",
    "SearchExhausted",
    "decide_dfocd",
    "solve_focd_bnb",
]

State = Tuple[int, ...]  # possession bitmask per vertex


class SearchExhausted(RuntimeError):
    """The node budget ran out before the search completed."""


@dataclass
class SearchBudget:
    """Caps the search effort; ``nodes`` counts expanded states."""

    max_nodes: int = 2_000_000
    nodes: int = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise SearchExhausted(
                f"branch-and-bound exceeded {self.max_nodes} expanded nodes"
            )


class _Searcher:
    def __init__(self, problem: Problem, budget: SearchBudget) -> None:
        self.problem = problem
        self.budget = budget
        self.want_masks = tuple(w.mask for w in problem.want)
        # dist_to[v][u] = hop distance u -> v, for the admissible bound.
        self.dist_to = list(
            zip(*(problem.distances_from(u) for u in range(problem.num_vertices)))
        )
        self.in_capacity = [
            max(problem.in_capacity(v), 1) for v in range(problem.num_vertices)
        ]
        # memo[state] = largest remaining depth proven insufficient.
        self.memo: Dict[State, int] = {}

    # ------------------------------------------------------------------
    def satisfied(self, state: State) -> bool:
        return all(
            want & ~mask == 0 for want, mask in zip(self.want_masks, state)
        )

    def lower_bound(self, state: State) -> int:
        """Admissible remaining-makespan bound on a search state.

        The radius-closure bound of the paper, computed from precomputed
        distances: a token whose nearest holder sits at distance > i
        cannot arrive within i steps, and arrival is throttled by the
        receiver's total in-capacity.
        """
        best = 0
        n = self.problem.num_vertices
        for v in range(n):
            needed = self.want_masks[v] & ~state[v]
            if not needed:
                continue
            dist_row = self.dist_to[v]
            dists: List[int] = []
            mask = needed
            while mask:
                low = mask & -mask
                token_bit = low
                mask ^= low
                nearest = math.inf
                for u in range(n):
                    if state[u] & token_bit and dist_row[u] != -1:
                        if dist_row[u] < nearest:
                            nearest = dist_row[u]
                            if nearest == 0:
                                break
                if nearest is math.inf:
                    return self.problem.move_bound() + 1  # unreachable: prune
                dists.append(int(nearest))
            dists.sort()
            cap = self.in_capacity[v]
            total = len(dists)
            consumed = 0
            vbest = dists[-1]
            for i in range(dists[-1]):
                while consumed < total and dists[consumed] <= i:
                    consumed += 1
                bound = i + math.ceil((total - consumed) / cap)
                if bound > vbest:
                    vbest = bound
            if vbest > best:
                best = vbest
        return best

    # ------------------------------------------------------------------
    def _arc_choices(
        self, state: State
    ) -> List[Tuple[int, int, List[Tuple[int, ...]]]]:
        """Per useful arc: all full-load token subsets it might carry."""
        choices = []
        for arc in self.problem.arcs:
            useful_mask = state[arc.src] & ~state[arc.dst]
            if not useful_mask:
                continue
            useful = []
            mask = useful_mask
            while mask:
                low = mask & -mask
                useful.append(low.bit_length() - 1)
                mask ^= low
            k = min(arc.capacity, len(useful))
            subsets = [tuple(c) for c in combinations(useful, k)]
            choices.append((arc.src, arc.dst, subsets))
        return choices

    def _timesteps(
        self, state: State, max_combinations: int
    ) -> Iterator[Tuple[Dict[Tuple[int, int], TokenSet], State]]:
        """Enumerate candidate timesteps (sends plus successor state)."""
        choices = self._arc_choices(state)
        if not choices:
            return
        total = 1
        for _src, _dst, subsets in choices:
            total *= len(subsets)
            if total > max_combinations:
                raise SearchExhausted(
                    f"timestep enumeration would exceed {max_combinations} "
                    f"combinations; the instance is too large for exact search"
                )

        def rec(
            idx: int, sends: Dict[Tuple[int, int], TokenSet], masks: List[int]
        ) -> Iterator[Tuple[Dict[Tuple[int, int], TokenSet], State]]:
            if idx == len(choices):
                yield dict(sends), tuple(masks)
                return
            src, dst, subsets = choices[idx]
            for subset in subsets:
                subset_mask = 0
                for token in subset:
                    subset_mask |= 1 << token
                sends[(src, dst)] = TokenSet(subset_mask)
                old = masks[dst]
                masks[dst] = old | subset_mask
                yield from rec(idx + 1, sends, masks)
                masks[dst] = old
                del sends[(src, dst)]

        yield from rec(0, {}, list(state))

    # ------------------------------------------------------------------
    def search(
        self, state: State, depth: int, max_combinations: int
    ) -> Optional[List[Dict[Tuple[int, int], TokenSet]]]:
        """Find a successful suffix of at most ``depth`` timesteps."""
        if self.satisfied(state):
            return []
        if depth == 0:
            return None
        if self.memo.get(state, -1) >= depth:
            return None
        if self.lower_bound(state) > depth:
            self.memo[state] = depth
            return None
        self.budget.spend()
        for sends, nxt in self._timesteps(state, max_combinations):
            if nxt == state:
                continue
            suffix = self.search(nxt, depth - 1, max_combinations)
            if suffix is not None:
                return [sends] + suffix
        self.memo[state] = depth
        return None


def decide_dfocd(
    problem: Problem,
    horizon: int,
    budget: Optional[SearchBudget] = None,
    max_combinations: int = 250_000,
) -> Optional[Schedule]:
    """The decision problem DFOCD: a successful schedule of at most
    ``horizon`` timesteps, or ``None`` when none exists.

    The returned schedule uses full arc loads; prune it with
    :func:`repro.core.pruning.prune_schedule` for a tidy witness.
    """
    if budget is None:
        budget = SearchBudget()
    searcher = _Searcher(problem, budget)
    state = tuple(h.mask for h in problem.have)
    steps = searcher.search(state, horizon, max_combinations)
    if steps is None:
        return None
    return Schedule([Timestep(sends) for sends in steps])


def solve_focd_bnb(
    problem: Problem,
    max_horizon: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
    max_combinations: int = 250_000,
) -> Optional[Tuple[int, Schedule]]:
    """Optimal FOCD makespan with a witness schedule, by iterative
    deepening from the admissible lower bound.

    Returns ``None`` for unsatisfiable instances.
    """
    if problem.is_trivially_satisfied():
        return 0, Schedule([])
    if not problem.is_satisfiable():
        return None
    if max_horizon is None:
        max_horizon = max(problem.move_bound(), 1)
    if budget is None:
        budget = SearchBudget()
    searcher = _Searcher(problem, budget)
    state = tuple(h.mask for h in problem.have)
    depth = max(1, searcher.lower_bound(state))
    while depth <= max_horizon:
        steps = searcher.search(state, depth, max_combinations)
        if steps is not None:
            return depth, Schedule([Timestep(sends) for sends in steps])
        depth += 1
    return None
