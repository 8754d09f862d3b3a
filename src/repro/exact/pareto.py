"""The time/bandwidth Pareto frontier of an instance.

Figure 1 shows minimizing timesteps and minimizing bandwidth can be at
odds, and §3.4 closes with the hybrid goal ("bandwidth-optimal subject
to the time being no more than some constant factor of the optimal
time, or vice versa") as ongoing work.  This module computes the whole
tradeoff exactly on small instances: for every makespan budget from the
FOCD optimum upward, the minimum achievable bandwidth, truncated once
the unconstrained EOCD optimum is reached (longer budgets cannot
improve further).

The frontier makes every hybrid objective trivial to answer: e.g.
"cheapest schedule at most 1.5x slower than optimal" is a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.problem import Problem
from repro.core.schedule import Schedule
from repro.exact.ilp import min_makespan_ilp, solve_eocd_ilp
from repro.exact.steiner import min_bandwidth_exact

__all__ = ["ParetoPoint", "pareto_frontier", "cheapest_within_factor"]


@dataclass(frozen=True)
class ParetoPoint:
    """One optimal (makespan budget, minimum bandwidth) pair with a
    witness schedule achieving it."""

    horizon: int
    bandwidth: int
    schedule: Schedule


def pareto_frontier(
    problem: Problem,
    max_horizon: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Optional[List[ParetoPoint]]:
    """All Pareto-optimal (time, bandwidth) pairs, fastest first.

    The first point is the FOCD optimum with its cheapest witness (the
    hybrid solution); the last reaches the unconstrained EOCD optimum.
    Intermediate horizons that do not improve bandwidth are dropped, so
    consecutive points strictly trade time for bandwidth.  Returns
    ``None`` for unsatisfiable instances.
    """
    optimum_time = min_makespan_ilp(problem, max_horizon, time_limit=time_limit)
    if optimum_time is None:
        return None
    floor = min_bandwidth_exact(problem)
    assert floor is not None  # satisfiable, so the Steiner costs exist
    if max_horizon is None:
        max_horizon = max(problem.move_bound(), 1)
    frontier: List[ParetoPoint] = []
    horizon = optimum_time
    best_bandwidth: Optional[int] = None
    while horizon <= max_horizon:
        solution = solve_eocd_ilp(problem, horizon, time_limit=time_limit)
        assert solution.feasible  # feasible at optimum_time, so beyond too
        if best_bandwidth is None or solution.bandwidth < best_bandwidth:
            frontier.append(
                ParetoPoint(horizon, solution.bandwidth, solution.schedule)
            )
            best_bandwidth = solution.bandwidth
        if best_bandwidth == floor:
            break
        horizon += 1
    return frontier


def cheapest_within_factor(
    problem: Problem,
    factor: float,
    max_horizon: Optional[int] = None,
) -> Optional[ParetoPoint]:
    """The §3.4 hybrid objective: minimum bandwidth among schedules
    whose makespan is at most ``factor`` times the optimal makespan.

    ``factor = 1.0`` is bandwidth-optimal-among-fastest;
    ``factor = inf`` (or large) degenerates to the EOCD optimum.
    """
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    frontier = pareto_frontier(problem, max_horizon)
    if frontier is None:
        return None
    budget = int(factor * frontier[0].horizon)
    eligible = [p for p in frontier if p.horizon <= budget]
    # The frontier is bandwidth-decreasing, so the last eligible point
    # is the cheapest within budget.
    return eligible[-1] if eligible else frontier[0]
