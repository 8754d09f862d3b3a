"""Tests for the Section 5.1 lower bounds: exact values on structured
graphs, admissibility (bound <= true optimum) on random instances, and
agreement with the all-pairs BFS forms kept here as oracles."""

import math
import random
from collections import deque
from typing import List, Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    InfeasibleBoundError,
    diameter_knowledge_bound,
    lookahead_bound_of_masks,
    lookahead_timestep_bound,
    remaining_bandwidth,
    remaining_timesteps,
)
from repro.core.problem import Problem, max_eccentricity
from repro.core.tokenset import TokenSet
from repro.exact import solve_focd_bnb

from tests.conftest import problems


class TestRemainingBandwidth:
    def test_counts_wanted_missing(self, path_problem):
        assert remaining_bandwidth(path_problem) == 2

    def test_zero_when_satisfied(self, trivial_problem):
        assert remaining_bandwidth(trivial_problem) == 0

    def test_mid_run_possession(self, path_problem):
        possession = [
            TokenSet.of(0, 1),
            TokenSet.of(0),
            TokenSet.of(0),
        ]
        assert remaining_bandwidth(path_problem, possession) == 1

    def test_wrong_possession_length_raises(self, path_problem):
        with pytest.raises(ValueError):
            remaining_bandwidth(path_problem, [TokenSet()])


class TestRemainingTimesteps:
    def test_path_pipeline_bound_is_tight(self, path_problem):
        # 2 tokens over a distance-2 capacity-1 path: 0 + ceil(2 tokens at
        # distance 2 ... ) -> max_i(i + outside_i) = 1 + 2 = 3.
        assert remaining_timesteps(path_problem) == 3

    def test_diamond(self, diamond_problem):
        assert remaining_timesteps(diamond_problem) == 2

    def test_zero_when_satisfied(self, trivial_problem):
        assert remaining_timesteps(trivial_problem) == 0

    def test_distance_dominates(self):
        # Long path, single token: bound equals the distance.
        arcs = [(i, i + 1, 5) for i in range(4)]
        p = Problem.build(5, 1, arcs, {0: [0]}, {4: [0]})
        assert remaining_timesteps(p) == 4

    def test_capacity_dominates(self):
        # Adjacent sender, 6 tokens, in-capacity 2: needs ceil(6/2) = 3.
        p = Problem.build(
            2, 6, [(0, 1, 2)], {0: list(range(6))}, {1: list(range(6))}
        )
        assert remaining_timesteps(p) == 3

    def test_combined_distance_and_capacity(self):
        # 4 tokens at distance 2, receiver in-capacity 1:
        # i=1: outside=4 -> 1+4 = 5.
        arcs = [(0, 1, 4), (1, 2, 1)]
        p = Problem.build(3, 4, arcs, {0: list(range(4))}, {2: list(range(4))})
        assert remaining_timesteps(p) == 5

    def test_unreachable_raises(self):
        p = Problem.build(2, 1, [(1, 0, 1)], {0: [0]}, {1: [0]})
        with pytest.raises(InfeasibleBoundError):
            remaining_timesteps(p)

    def test_no_incoming_arcs_raises(self):
        p = Problem.build(2, 1, [], {0: [0]}, {1: [0]})
        with pytest.raises(InfeasibleBoundError):
            remaining_timesteps(p)


class TestLookaheadBound:
    def test_one_step_sufficient(self):
        p = Problem.build(2, 1, [(0, 1, 1)], {0: [0]}, {1: [0]})
        assert lookahead_timestep_bound(p) == 1

    def test_capacity_throttled(self):
        p = Problem.build(
            2, 4, [(0, 1, 1)], {0: list(range(4))}, {1: list(range(4))}
        )
        # 1 receivable now, 3 more at 1/step.
        assert lookahead_timestep_bound(p) == 4

    def test_distant_tokens_counted(self, path_problem):
        # Nothing within one hop of vertex 2 initially.
        assert lookahead_timestep_bound(path_problem) == 3

    def test_zero_when_satisfied(self, trivial_problem):
        assert lookahead_timestep_bound(trivial_problem) == 0


class TestDiameterBound:
    def test_matches_graph_diameter(self, diamond_problem):
        assert diameter_knowledge_bound(diamond_problem) == 2


# ----------------------------------------------------------------------
# Admissibility: every bound is <= the exact optimum.
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(problems(max_vertices=5, max_tokens=2))
def test_timestep_bounds_admissible(problem):
    solved = solve_focd_bnb(problem, max_combinations=500_000)
    assert solved is not None
    optimum, witness = solved
    assert witness.is_successful(problem)
    assert remaining_timesteps(problem) <= optimum
    assert lookahead_timestep_bound(problem) <= optimum


@settings(max_examples=25, deadline=None)
@given(problems(max_vertices=5, max_tokens=2))
def test_bandwidth_bound_admissible(problem):
    solved = solve_focd_bnb(problem, max_combinations=500_000)
    assert solved is not None
    _optimum, witness = solved
    from repro.core.pruning import prune_schedule

    pruned, _ = prune_schedule(problem, witness)
    assert remaining_bandwidth(problem) <= pruned.bandwidth or problem.total_demand() == 0


# ----------------------------------------------------------------------
# Differential: the linear-pass bounds and diameters against the
# all-pairs BFS forms they replaced, kept here as oracles.
# ----------------------------------------------------------------------


def _oracle_reverse_distances_to(problem: Problem, dst: int) -> List[int]:
    dist = [-1] * problem.num_vertices
    dist[dst] = 0
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        for arc in problem.in_arcs(v):
            if dist[arc.src] == -1:
                dist[arc.src] = dist[v] + 1
                queue.append(arc.src)
    return dist


def _oracle_vertex_timestep_bound(
    problem: Problem, v: int, needed: TokenSet, possession: Sequence[TokenSet]
) -> int:
    dist_to_v = _oracle_reverse_distances_to(problem, v)
    token_dist: List[int] = []
    for token in needed:
        best = math.inf
        for u in range(problem.num_vertices):
            if token in possession[u] and dist_to_v[u] != -1 and dist_to_v[u] < best:
                best = dist_to_v[u]
        if best is math.inf:
            raise InfeasibleBoundError(
                f"vertex {v} needs token {token}, which no vertex that can "
                f"reach it possesses"
            )
        token_dist.append(int(best))
    if not token_dist:
        return 0
    in_cap = problem.in_capacity(v)
    if in_cap == 0:
        raise InfeasibleBoundError(
            f"vertex {v} still needs tokens but has no incoming arcs"
        )
    token_dist.sort()
    max_dist = token_dist[-1]
    best_bound = 0
    total = len(token_dist)
    consumed = 0
    for i in range(max_dist):
        while consumed < total and token_dist[consumed] <= i:
            consumed += 1
        bound = i + math.ceil((total - consumed) / in_cap)
        if bound > best_bound:
            best_bound = bound
    if max_dist > best_bound:
        best_bound = max_dist
    return best_bound


def _oracle_remaining_timesteps(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """One reverse BFS per vertex plus an O(n) holder scan per token."""
    possession = problem.have if possession is None else possession
    best = 0
    for v in range(problem.num_vertices):
        needed = problem.want[v] - possession[v]
        if needed:
            best = max(
                best, _oracle_vertex_timestep_bound(problem, v, needed, possession)
            )
    return best


def _oracle_lookahead(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """The lookahead bound in TokenSet algebra."""
    possession = problem.have if possession is None else possession
    best = 0
    for v in range(problem.num_vertices):
        needed = problem.want[v] - possession[v]
        if not needed:
            continue
        in_cap = problem.in_capacity(v)
        if in_cap == 0:
            raise InfeasibleBoundError(
                f"vertex {v} still needs tokens but has no incoming arcs"
            )
        one_hop = TokenSet(0)
        for arc in problem.in_arcs(v):
            one_hop = one_hop | (possession[arc.src] & needed)
        rest = len(needed) - min(len(one_hop), in_cap)
        best = max(best, 1 + math.ceil(rest / in_cap) if rest > 0 else 1)
    return best


def _oracle_eccentricity(problem: Problem, undirected: bool) -> int:
    """One BFS per vertex: the old ``Problem.diameter`` (directed) and
    ``FloodThenOptimal._gossip_diameter`` (undirected)."""
    n = problem.num_vertices
    best = 0
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            step = problem.neighbors(u) if undirected else problem.out_neighbors(u)
            for w in step:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        best = max(best, max(dist))
    return best


@st.composite
def instances_with_possession(draw):
    """Any instance shape the bounds accept, with a mid-run possession.

    Random directed graphs are often disconnected; paths are the worst
    case for the diameter's round count; wants are drawn independently
    of haves, so some are infeasible and some vertices need nothing.
    """
    shape = draw(st.sampled_from(["random", "path", "two-way path"]))
    n = draw(st.integers(1, 40 if shape != "random" else 8))
    m = draw(st.integers(0, 4))
    if shape == "random":
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    else:
        links = [(i, i + 1) for i in range(n - 1)]
        if shape == "two-way path":
            links += [(i + 1, i) for i in range(n - 1)]
    arcs = [(u, v, draw(st.integers(1, 3))) for u, v in links]
    masks = st.integers(0, (1 << m) - 1)
    have = [TokenSet(draw(masks)) for _ in range(n)]
    want = [TokenSet(draw(masks)) for _ in range(n)]
    problem = Problem.build(
        n,
        m,
        arcs,
        {v: list(have[v]) for v in range(n)},
        {v: list(want[v]) for v in range(n)},
    )
    possession = [have[v] | TokenSet(draw(masks)) for v in range(n)]
    return problem, possession


def _outcome(bound, *args):
    try:
        return bound(*args)
    except InfeasibleBoundError as exc:
        return f"infeasible: {exc}"


# Vertex 2 is the first that cannot be served: it wants token 1, held
# only at vertex 3, which has no path to it.
_INFEASIBLE_LATER_VERTEX = Problem.build(
    4,
    2,
    [(0, 1, 1), (1, 2, 1), (2, 3, 1)],
    {0: [0], 3: [1]},
    {1: [0], 2: [0, 1], 3: [0, 1]},
)


@settings(max_examples=150, deadline=None)
@given(instances_with_possession())
@example((Problem.build(1, 1, [], {}, {0: [0]}), [TokenSet()]))
@example((_INFEASIBLE_LATER_VERTEX, list(_INFEASIBLE_LATER_VERTEX.have)))
def test_remaining_timesteps_matches_oracle(case):
    problem, possession = case
    assert _outcome(remaining_timesteps, problem) == _outcome(
        _oracle_remaining_timesteps, problem
    )
    assert _outcome(remaining_timesteps, problem, possession) == _outcome(
        _oracle_remaining_timesteps, problem, possession
    )


def test_infeasible_message_names_first_vertex_and_token():
    with pytest.raises(InfeasibleBoundError) as caught:
        remaining_timesteps(_INFEASIBLE_LATER_VERTEX)
    assert str(caught.value) == (
        "vertex 2 needs token 1, which no vertex that can reach it possesses"
    )


@settings(max_examples=150, deadline=None)
@given(instances_with_possession())
def test_lookahead_matches_oracle(case):
    problem, possession = case
    expected = _outcome(_oracle_lookahead, problem, possession)
    assert _outcome(lookahead_timestep_bound, problem, possession) == expected
    assert (
        _outcome(lookahead_bound_of_masks, problem, [p.mask for p in possession])
        == expected
    )
    assert _outcome(lookahead_timestep_bound, problem) == _outcome(
        _oracle_lookahead, problem
    )


def test_lookahead_masks_wrong_length_raises(path_problem):
    with pytest.raises(ValueError, match="possession has 1 entries for 3"):
        lookahead_bound_of_masks(path_problem, [0])


@settings(max_examples=150, deadline=None)
@given(instances_with_possession())
def test_diameters_match_bfs_oracle(case):
    problem, _possession = case
    assert problem.diameter() == _oracle_eccentricity(problem, undirected=False)
    gossip = [problem.neighbors(v) for v in range(problem.num_vertices)]
    assert max_eccentricity(gossip) == _oracle_eccentricity(problem, undirected=True)
