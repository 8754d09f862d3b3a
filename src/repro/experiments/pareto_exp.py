"""Pareto experiment — how much bandwidth does patience buy?

Section 3.3 (Figure 1) shows time and bandwidth optima can conflict;
§3.4 leaves the hybrid objective as ongoing work.  With the exact
solvers the entire tradeoff is enumerable on small instances: this
driver computes each instance's time/bandwidth Pareto frontier and
reports how much bandwidth is saved by allowing 1.5x / 2x the optimal
makespan.

Each attempt derives its instance from ``Random(base_seed + attempt)``
(family alternates by attempt index), so attempts are independent sweep
points; the driver keeps requesting batches until ``count`` frontiers
succeed, taking successes in attempt order — the reported numbers are
deterministic regardless of worker count.
"""

from __future__ import annotations

import random
import statistics
from typing import Any, Dict, List, Optional

from repro.experiments.config import QUICK, Scale
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor, PointSpec, point_function

__all__ = ["run"]


def _savings_at(frontier, factor: float) -> float:
    """Fraction of the fastest schedule's bandwidth saved within a
    makespan budget of ``factor`` times optimal."""
    budget = int(factor * frontier[0].horizon)
    eligible = [p for p in frontier if p.horizon <= budget]
    cheapest = eligible[-1].bandwidth
    fastest = frontier[0].bandwidth
    if fastest == 0:
        return 0.0
    return (fastest - cheapest) / fastest


@point_function("pareto")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """One frontier: the gadget, or one random/bottleneck attempt."""
    from repro.exact.branch_and_bound import SearchExhausted
    from repro.exact.pareto import pareto_frontier
    from repro.topology import figure1_gadget
    from repro.topology.generators import bottleneck_instance, random_instance

    family = spec.param("family")
    if family == "gadget":
        frontier = pareto_frontier(figure1_gadget())
        return {
            "ok": True,
            "frontier": " -> ".join(
                f"({p.horizon}s,{p.bandwidth}m)" for p in frontier
            ),
            "points": len(frontier),
            "save15": _savings_at(frontier, 1.5),
            "save20": _savings_at(frontier, 2.0),
        }
    rng = random.Random(spec.seed)
    if family == "random":
        problem = random_instance(rng, max_vertices=5, max_tokens=2)
    else:
        problem = bottleneck_instance(
            rng, cluster_size=2, num_tokens=2, cluster_capacity=2
        )
    try:
        frontier = pareto_frontier(problem, max_horizon=12)
    except SearchExhausted:
        return {"ok": False}
    if frontier is None or not frontier or frontier[0].horizon == 0:
        return {"ok": False}
    return {
        "ok": True,
        "points": len(frontier),
        "save15": _savings_at(frontier, 1.5),
        "save20": _savings_at(frontier, 2.0),
    }


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    count = 10 if scale.name == "quick" else 30
    result = FigureResult(
        figure="pareto",
        title=f"time/bandwidth Pareto frontiers over {count} instances + Figure 1",
    )
    # The canonical example first.
    (gadget,) = executor.run(
        [
            PointSpec.make(
                "pareto", "pareto", 0, params={"family": "gadget"}, seed=0
            )
        ]
    )
    result.rows.append(
        {
            "instance": "figure1_gadget",
            "frontier": gadget["frontier"],
            "points": gadget["points"],
            "save@1.5x": round(gadget["save15"], 3),
            "save@2x": round(gadget["save20"], 3),
        }
    )
    multi_point = 0
    savings_15: List[float] = []
    savings_20: List[float] = []
    produced = 0
    attempt = 0
    while produced < count:
        batch = [
            PointSpec.make(
                "pareto",
                "pareto",
                attempt + offset,
                params={
                    "family": "random" if (attempt + offset) % 2 == 0 else "bottleneck",
                    "attempt": attempt + offset,
                },
                seed=scale.base_seed + attempt + offset,
            )
            for offset in range(count)
        ]
        attempt += count
        for output in executor.run(batch):
            if not output["ok"] or produced >= count:
                continue
            produced += 1
            if output["points"] > 1:
                multi_point += 1
            savings_15.append(output["save15"])
            savings_20.append(output["save20"])
    result.rows.append(
        {
            "instance": f"{count} random/bottleneck",
            "frontier": f"{multi_point}/{count} show a genuine tradeoff",
            "points": "",
            "save@1.5x": round(statistics.fmean(savings_15), 3),
            "save@2x": round(statistics.fmean(savings_20), 3),
        }
    )
    result.add_note(
        "save@k = bandwidth saved (vs the fastest schedule) by allowing "
        "k times the optimal makespan; the Figure 1 gadget saves 1/3 at 1.5x"
    )
    return result
