"""Figure 1 — minimizing time and bandwidth are at odds.

Reproduces the caption's exact numbers on the gadget of
:func:`repro.topology.figure1_gadget` with the exact solvers: the
minimum-time schedule takes 2 timesteps and 6 units of bandwidth, while
the minimum-bandwidth schedule uses 4 units but takes 3 timesteps.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.experiments.config import QUICK, Scale
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor, PointSpec, point_function

__all__ = ["run"]

PAPER_NUMBERS = {
    "min_time_steps": 2,
    "min_time_bandwidth": 6,
    "min_bandwidth": 4,
    "min_bandwidth_steps": 3,
}


@point_function("fig1")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """Solve both optima exactly on the fixed gadget."""
    from repro.exact import min_bandwidth_exact, min_makespan_ilp, solve_eocd_ilp
    from repro.topology import figure1_gadget

    del spec  # the gadget is fixed; nothing varies
    problem = figure1_gadget()
    tau_star = min_makespan_ilp(problem)
    assert tau_star is not None, "the gadget is satisfiable by construction"
    fastest = solve_eocd_ilp(problem, tau_star)
    cheapest_bw = min_bandwidth_exact(problem)
    assert cheapest_bw is not None
    # Smallest horizon achieving the global bandwidth optimum.
    horizon = tau_star
    while True:
        sol = solve_eocd_ilp(problem, horizon)
        if sol.feasible and sol.bandwidth == cheapest_bw:
            break
        horizon += 1
    return {
        "min_time_steps": tau_star,
        "min_time_bandwidth": fastest.bandwidth,
        "min_bandwidth": cheapest_bw,
        "min_bandwidth_steps": horizon,
    }


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    """Compute both optima exactly and compare with the caption."""
    del scale  # the gadget is fixed-size; scale does not apply
    executor = executor or Executor()
    result = FigureResult(
        figure="fig1",
        title="time/bandwidth tension on the Figure 1 gadget",
    )
    (measured,) = executor.run([PointSpec.make("fig1", "fig1", 0)])
    for key, paper_value in PAPER_NUMBERS.items():
        result.rows.append(
            {
                "quantity": key,
                "paper": paper_value,
                "measured": measured[key],
                "match": paper_value == measured[key],
            }
        )
    result.add_note(
        "gadget: s->r1->r2->{r3,r4} tree plus relay shortcuts s->x->r3, "
        "s->y->r4; every 2-step schedule pays both relays"
    )
    return result
