"""The time-indexed integer program of Section 3.4.

The paper extends the graph with a self-arc at every vertex (storage) and
creates a 0/1 variable ``x[i, (u, v), t]`` meaning "token ``t`` crosses
arc ``(u, v)`` during timestep ``i``".  With initial conditions
``x[0, (v, v), t] = 1`` iff ``t ∈ h(v)``, the constraints are:

* possession — a token can leave ``u`` at step ``i`` only if some arc
  into ``u`` (including the self-arc) carried it at step ``i - 1``;
* capacity — at most ``c(u, v)`` tokens per real arc per step (self-arcs,
  i.e. storage, are uncapacitated);
* demand — the self-arc of ``v`` holds every wanted token at the final
  step ``τ + 1``.

Minimizing the number of real-arc crossings over steps ``1..τ`` yields a
bandwidth-optimal (EOCD) schedule among all schedules of makespan at most
``τ``; scanning ``τ`` upward until the program becomes feasible yields the
optimal makespan (FOCD), and re-solving at that horizon gives the
min-bandwidth-among-fastest hybrid the paper discusses.

The paper used a generic IP solver; we solve the identical program with
HiGHS through :func:`scipy.optimize.milp`.  Instances are solved exactly —
this is exponential-time in general (the problem is NP-complete), so keep
``n``, ``m``, and ``τ`` small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.bounds import remaining_timesteps
from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import TokenSet

if TYPE_CHECKING:
    from scipy.optimize import LinearConstraint

__all__ = ["IlpSolution", "solve_eocd_ilp", "min_makespan_ilp", "solve_hybrid_ilp"]


#: ``scipy.optimize.milp`` status for a program proven infeasible; status
#: 1 (time or iteration limit) and the rest prove nothing.
_MILP_INFEASIBLE = 2


@dataclass(frozen=True)
class IlpSolution:
    """An exact solution extracted from the integer program."""

    schedule: Schedule
    bandwidth: int
    horizon: int
    feasible: bool


class _IlpIndex:
    """Dense variable indexing for the time-indexed program.

    Variables are laid out as ``[step i][arc a][token t]`` where the arc
    list is the real arcs followed by the ``n`` self-arcs.  Real-arc
    variables exist for steps ``1..τ``; self-arc variables for steps
    ``1..τ + 1``.
    """

    def __init__(self, problem: Problem, horizon: int, tokens: List[int]) -> None:
        self.problem = problem
        self.horizon = horizon
        self.tokens = tokens
        self.token_pos = {t: k for k, t in enumerate(tokens)}
        self.num_real = len(problem.arcs)
        self.num_self = problem.num_vertices
        self.per_step_real = self.num_real * len(tokens)
        self.per_step_self = self.num_self * len(tokens)
        # Steps 1..horizon have real + self variables; step horizon+1 has
        # self variables only.
        self.num_vars = (
            horizon * (self.per_step_real + self.per_step_self) + self.per_step_self
        )
        self.arc_pos = {
            (arc.src, arc.dst): k for k, arc in enumerate(problem.arcs)
        }

    def real_var(self, step: int, arc_index: int, token: int) -> int:
        """Variable id of token ``token`` on real arc ``arc_index`` at
        ``step`` (1-based, must be <= horizon)."""
        base = (step - 1) * (self.per_step_real + self.per_step_self)
        return base + arc_index * len(self.tokens) + self.token_pos[token]

    def self_var(self, step: int, vertex: int, token: int) -> int:
        """Variable id of the storage self-arc of ``vertex`` at ``step``
        (1-based, may be horizon + 1)."""
        if step <= self.horizon:
            base = (
                (step - 1) * (self.per_step_real + self.per_step_self)
                + self.per_step_real
            )
        else:
            base = self.horizon * (self.per_step_real + self.per_step_self)
        return base + vertex * len(self.tokens) + self.token_pos[token]


def _active_tokens(problem: Problem) -> List[int]:
    """Tokens that still need to move: wanted by some vertex lacking them.

    Tokens nobody is missing never appear in a bandwidth-minimal schedule
    (moving them only costs), so they are dropped from the program.
    """
    active = []
    for t in range(problem.num_tokens):
        if any(
            t in problem.want[v] and t not in problem.have[v]
            for v in range(problem.num_vertices)
        ):
            active.append(t)
    return active


def _build_constraints(
    problem: Problem, index: _IlpIndex
) -> Tuple[List[LinearConstraint], np.ndarray]:
    """Assemble the possession, capacity, and demand constraints."""
    # scipy is imported where it solves, not with the package: importing
    # it takes most of ``import repro``'s time and memory.
    from scipy import sparse
    from scipy.optimize import LinearConstraint

    horizon = index.horizon
    tokens = index.tokens
    n_vars = index.num_vars
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    lower: List[float] = []
    upper: List[float] = []
    row = 0

    def add_entry(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # Possession: x[i, (u, .), t] - sum_{(z, u) in E'} x[i-1, (z, u), t] <= rhs
    # where the i = 1 incoming sum is the constant h(u) indicator.
    for step in range(1, horizon + 2):
        for token in tokens:
            for u in range(problem.num_vertices):
                outgoing: List[int] = []
                if step <= horizon:
                    outgoing.extend(
                        index.real_var(step, index.arc_pos[(u, arc.dst)], token)
                        for arc in problem.out_arcs(u)
                    )
                outgoing.append(index.self_var(step, u, token))
                if step == 1:
                    rhs = 1.0 if token in problem.have[u] else 0.0
                    for var in outgoing:
                        add_entry(row, var, 1.0)
                        lower.append(-np.inf)
                        upper.append(rhs)
                        row += 1
                        # each constraint is a single-variable row; new row
                        # per outgoing variable
                    continue
                incoming = [
                    index.self_var(step - 1, u, token),
                ]
                if step - 1 <= horizon:
                    incoming.extend(
                        index.real_var(step - 1, index.arc_pos[(arc.src, u)], token)
                        for arc in problem.in_arcs(u)
                    )
                for var in outgoing:
                    add_entry(row, var, 1.0)
                    for inc in incoming:
                        add_entry(row, inc, -1.0)
                    lower.append(-np.inf)
                    upper.append(0.0)
                    row += 1

    # Capacity: sum_t x[i, (u, v), t] <= c(u, v) for real arcs.
    for step in range(1, horizon + 1):
        for arc_index, arc in enumerate(problem.arcs):
            for token in tokens:
                add_entry(row, index.real_var(step, arc_index, token), 1.0)
            lower.append(-np.inf)
            upper.append(float(arc.capacity))
            row += 1

    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row, n_vars)
    )
    constraints = [LinearConstraint(matrix, np.array(lower), np.array(upper))]

    # Demand: x[horizon + 1, (v, v), t] >= 1 for t in w(v), folded into
    # variable bounds below; returned as a lower-bound vector.
    var_lower = np.zeros(n_vars)
    for v in range(problem.num_vertices):
        for token in problem.want[v]:
            if token in index.token_pos:
                var_lower[index.self_var(horizon + 1, v, token)] = 1.0
    return constraints, var_lower


def _extract_schedule(
    problem: Problem, index: _IlpIndex, solution: np.ndarray
) -> Schedule:
    steps: List[Timestep] = []
    for step in range(1, index.horizon + 1):
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for arc_index, arc in enumerate(problem.arcs):
            mask = 0
            for token in index.tokens:
                if solution[index.real_var(step, arc_index, token)] > 0.5:
                    mask |= 1 << token
            if mask:
                sends[(arc.src, arc.dst)] = TokenSet(mask)
        steps.append(Timestep(sends))
    return Schedule(steps)


def solve_eocd_ilp(
    problem: Problem, horizon: int, time_limit: Optional[float] = None
) -> IlpSolution:
    """Minimum-bandwidth schedule of makespan at most ``horizon``.

    Returns an infeasible :class:`IlpSolution` (empty schedule) when no
    successful schedule of that length exists.  Raises
    :class:`RuntimeError` when HiGHS stops without a verdict (a hit
    ``time_limit`` or iteration limit): that is not a proof of
    infeasibility.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    tokens = _active_tokens(problem)
    if not tokens:
        return IlpSolution(Schedule([]), 0, horizon, feasible=True)
    if horizon == 0:
        return IlpSolution(Schedule([]), 0, 0, feasible=False)
    from scipy.optimize import Bounds, milp

    index = _IlpIndex(problem, horizon, tokens)
    constraints, var_lower = _build_constraints(problem, index)

    objective = np.zeros(index.num_vars)
    for step in range(1, horizon + 1):
        for arc_index in range(index.num_real):
            for token in tokens:
                objective[index.real_var(step, arc_index, token)] = 1.0

    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    result = milp(
        c=objective,
        constraints=constraints,
        integrality=np.ones(index.num_vars),
        bounds=Bounds(var_lower, np.ones(index.num_vars)),
        options=options,
    )
    if result.status == _MILP_INFEASIBLE:
        return IlpSolution(Schedule([]), 0, horizon, feasible=False)
    if not result.success:
        raise RuntimeError(
            f"ILP at horizon {horizon} stopped without a verdict "
            f"(HiGHS status {result.status}: {result.message})"
        )
    schedule = _extract_schedule(problem, index, result.x)
    return IlpSolution(
        schedule=schedule,
        bandwidth=schedule.bandwidth,
        horizon=horizon,
        feasible=True,
    )


def min_makespan_ilp(
    problem: Problem,
    max_horizon: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Optional[int]:
    """Optimal FOCD makespan by scanning horizons with the IP.

    Starts at the :func:`remaining_timesteps` lower bound and increases
    until the program is feasible.  Returns ``None`` when the instance is
    unsatisfiable (or ``max_horizon`` is exhausted); a horizon whose
    solve hits ``time_limit`` raises (see :func:`solve_eocd_ilp`).
    """
    if problem.is_trivially_satisfied():
        return 0
    if not problem.is_satisfiable():
        return None
    if max_horizon is None:
        max_horizon = max(problem.move_bound(), 1)
    horizon = max(1, remaining_timesteps(problem))
    while horizon <= max_horizon:
        if solve_eocd_ilp(problem, horizon, time_limit=time_limit).feasible:
            return horizon
        horizon += 1
    return None


def solve_hybrid_ilp(
    problem: Problem,
    max_horizon: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> Optional[IlpSolution]:
    """Bandwidth-optimal among time-optimal schedules.

    This is the hybrid objective the paper sketches at the end of §3.4
    (bandwidth-optimal subject to optimal time): find the minimum feasible
    makespan, then minimize bandwidth at exactly that horizon.
    """
    horizon = min_makespan_ilp(problem, max_horizon, time_limit=time_limit)
    if horizon is None:
        return None
    return solve_eocd_ilp(problem, horizon, time_limit=time_limit)
