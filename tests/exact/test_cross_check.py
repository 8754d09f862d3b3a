"""Cross-validation of the three exact oracles on random instances.

FOCD optima from the integer program and from branch-and-bound must
agree; the Steiner bandwidth optimum must match the IP's bandwidth at a
long horizon; and every witness must verify.  This is the strongest
correctness evidence in the suite: three independently implemented
solvers computing the same NP-hard quantities.
"""

import random

from hypothesis import given, settings

from repro.core.pruning import prune_schedule
from repro.exact import (
    min_bandwidth_exact,
    min_makespan_ilp,
    solve_eocd_ilp,
    solve_focd_bnb,
)

from tests.conftest import make_random_problem, problems


@settings(max_examples=20, deadline=None)
@given(problems(max_vertices=5, max_tokens=2))
def test_ilp_and_bnb_agree_on_min_makespan(problem):
    bnb = solve_focd_bnb(problem, max_combinations=500_000)
    ilp = min_makespan_ilp(problem, max_horizon=12)
    assert bnb is not None and ilp is not None
    assert bnb[0] == ilp, (problem.to_dict(), bnb[0], ilp)


@settings(max_examples=15, deadline=None)
@given(problems(max_vertices=4, max_tokens=2))
def test_steiner_matches_ilp_at_long_horizon(problem):
    steiner = min_bandwidth_exact(problem)
    assert steiner is not None
    horizon = max(problem.move_bound(), 1)
    ilp = solve_eocd_ilp(problem, horizon)
    assert ilp.feasible
    assert ilp.bandwidth == steiner, (problem.to_dict(), ilp.bandwidth, steiner)


@settings(max_examples=15, deadline=None)
@given(problems(max_vertices=5, max_tokens=2))
def test_witnesses_verify_and_prune_cleanly(problem):
    bnb = solve_focd_bnb(problem, max_combinations=500_000)
    assert bnb is not None
    optimum, witness = bnb
    assert witness.is_successful(problem)
    pruned, _ = prune_schedule(problem, witness)
    assert pruned.is_successful(problem)
    assert pruned.makespan == optimum


def test_heuristics_never_beat_the_optimum():
    """Sanity across the whole stack: no heuristic finishes faster than
    the exact makespan or cheaper than the exact bandwidth."""
    from repro.heuristics import standard_heuristics
    from repro.sim import run_heuristic

    rng = random.Random(2024)
    for _ in range(10):
        problem = make_random_problem(rng, max_vertices=5, max_tokens=2)
        optimum_time = min_makespan_ilp(problem, max_horizon=12)
        optimum_bw = min_bandwidth_exact(problem)
        assert optimum_time is not None and optimum_bw is not None
        for heuristic in standard_heuristics():
            result = run_heuristic(problem, heuristic, seed=5)
            assert result.success
            assert result.makespan >= optimum_time
            pruned, _ = prune_schedule(problem, result.schedule)
            assert pruned.bandwidth >= optimum_bw
