"""LP relaxations of the Section 3.4 integer program.

The time-indexed IP is exponential to solve exactly, but its *linear
relaxation* is polynomial and still a valid lower bound: every integral
schedule is a feasible fractional solution, so

* if the relaxation at horizon ``τ`` is infeasible, no ``τ``-step
  schedule exists → ``τ + 1`` lower-bounds the FOCD optimum;
* the relaxation's optimal objective lower-bounds the EOCD bandwidth of
  any schedule with makespan ≤ ``τ``.

These bounds sit strictly between the paper's cheap counting bounds
(§5.1) and the exact solvers: polynomial like the former, often much
tighter, e.g. on the Figure 1 gadget the fractional bandwidth bound at
horizon 2 certifies that fast schedules must pay for the relay copies.

Functions return ``math.inf``-free plain values; fractional bandwidth
bounds are rounded up (any integral schedule has integer bandwidth).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from repro.core.bounds import remaining_timesteps
from repro.core.problem import Problem
from repro.exact.ilp import _active_tokens, _build_constraints, _IlpIndex

__all__ = [
    "fractional_bandwidth_bound",
    "fractional_makespan_bound",
]


def _solve_relaxation(problem: Problem, horizon: int) -> Optional[float]:
    """Optimal value of the LP relaxation at ``horizon`` (``None`` when
    the relaxation itself is infeasible)."""
    tokens = _active_tokens(problem)
    if not tokens:
        return 0.0
    if horizon == 0:
        return None
    index = _IlpIndex(problem, horizon, tokens)
    constraints, var_lower = _build_constraints(problem, index)
    objective = np.zeros(index.num_vars)
    for step in range(1, horizon + 1):
        for arc_index in range(index.num_real):
            for token in tokens:
                objective[index.real_var(step, arc_index, token)] = 1.0
    constraint = constraints[0]
    result = linprog(
        c=objective,
        A_ub=constraint.A,
        b_ub=np.asarray(constraint.ub),
        bounds=np.column_stack([var_lower, np.ones(index.num_vars)]),
        method="highs",
    )
    if result.status != 0:
        return None
    return float(result.fun)


def fractional_bandwidth_bound(problem: Problem, horizon: int) -> Optional[int]:
    """Lower bound on the bandwidth of any schedule of makespan ≤
    ``horizon`` (``None`` when even fractionally no such schedule
    exists).

    Always at least the §5.1 remaining-bandwidth count, because every
    wanted-but-missing token contributes at least one unit of incoming
    fractional flow; often strictly larger, because the relaxation also
    pays for relay hops.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    value = _solve_relaxation(problem, horizon)
    if value is None:
        return None
    return math.ceil(value - 1e-9)


def fractional_makespan_bound(
    problem: Problem, max_horizon: Optional[int] = None
) -> Optional[int]:
    """Smallest horizon whose LP relaxation is feasible — a polynomial
    lower bound on the FOCD optimum, at least as strong as the paper's
    radius-closure bound (which it uses as its starting point).

    Returns ``None`` for unsatisfiable instances.
    """
    if problem.is_trivially_satisfied():
        return 0
    if not problem.is_satisfiable():
        return None
    if max_horizon is None:
        max_horizon = max(problem.move_bound(), 1)
    horizon = max(1, remaining_timesteps(problem))
    while horizon <= max_horizon:
        if _solve_relaxation(problem, horizon) is not None:
            return horizon
        horizon += 1
    return None
