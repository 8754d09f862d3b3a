"""Optimality-gap study — heuristics against the exact optima.

The paper's motivation (§1): "we had difficulty arguing how well we
were doing relative to how well *any* system could perform."  The small
exact solvers make that question answerable directly on a batch of
random instances: for every heuristic, the ratio of its makespan to the
FOCD optimum and of its pruned bandwidth to the EOCD optimum.

Not a paper figure — the paper only compares heuristics against the
loose §5.1 bounds — but it is the measurement the formulation exists to
enable, and it quantifies how loose those bounds are (the `bound_gap`
column: exact optimum / counting bound).

Instance generation is a pure RNG walk and stays serial; each instance's
exact solve + heuristic runs is one sweep point (the instance itself
rides in the point params, so the point is self-contained).
"""

from __future__ import annotations

import random
import statistics
from typing import Any, Dict, List, Optional

from repro.core.problem import Problem
from repro.experiments.config import QUICK, Scale
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor, PointSpec, point_function
from repro.heuristics import HEURISTIC_FACTORIES
from repro.topology.generators import (
    adversarial_spread_instance,
    bottleneck_instance,
    random_instance,
)

__all__ = ["run"]


def _instances(rng: random.Random, count: int):
    """A mixed batch: generic random, bottleneck, and distance-stressed."""
    for index in range(count):
        family = index % 3
        if family == 0:
            yield random_instance(rng, max_vertices=5, max_tokens=2)
        elif family == 1:
            yield bottleneck_instance(
                rng, cluster_size=2, num_tokens=2, cluster_capacity=2
            )
        else:
            yield adversarial_spread_instance(rng, num_vertices=6, num_tokens=2)


@point_function("gap")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """Exact optima plus every heuristic's ratios on one instance."""
    from repro.core.bounds import remaining_bandwidth, remaining_timesteps
    from repro.core.pruning import prune_schedule
    from repro.exact import min_bandwidth_exact, solve_focd_bnb
    from repro.exact.branch_and_bound import SearchExhausted
    from repro.sim import run_heuristic

    problem = Problem.from_dict(spec.param("problem"))
    try:
        exact = solve_focd_bnb(problem, max_combinations=500_000)
    except SearchExhausted:
        return {"solved": False}
    if exact is None:
        return {"solved": False}
    optimum_time, _witness = exact
    optimum_bw = min_bandwidth_exact(problem)
    if optimum_time == 0 or not optimum_bw:
        return {"solved": False}
    time_ratios: Dict[str, float] = {}
    bw_ratios: Dict[str, float] = {}
    for name in HEURISTIC_FACTORIES:
        run_result = run_heuristic(
            problem, HEURISTIC_FACTORIES[name](), seed=spec.seed
        )
        assert run_result.success
        pruned, _ = prune_schedule(problem, run_result.schedule)
        time_ratios[name] = run_result.makespan / optimum_time
        bw_ratios[name] = pruned.bandwidth / optimum_bw
    return {
        "solved": True,
        "time_ratios": time_ratios,
        "bw_ratios": bw_ratios,
        "bound_time_gap": optimum_time / max(remaining_timesteps(problem), 1),
        "bound_bw_gap": optimum_bw / max(remaining_bandwidth(problem), 1),
        "stats": {"optimum_time": optimum_time, "optimum_bw": optimum_bw},
    }


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    count = 12 if scale.name == "quick" else 40
    rng = random.Random(scale.base_seed)
    result = FigureResult(
        figure="gap",
        title=f"heuristic optimality gaps over {count} random small instances",
    )
    points = [
        PointSpec.make(
            "gap",
            "gap",
            index,
            params={"instance": index, "problem": problem.to_dict()},
            seed=scale.base_seed,
        )
        for index, problem in enumerate(_instances(rng, count))
    ]
    time_ratios: Dict[str, List[float]] = {name: [] for name in HEURISTIC_FACTORIES}
    bw_ratios: Dict[str, List[float]] = {name: [] for name in HEURISTIC_FACTORIES}
    bound_time_gaps: List[float] = []
    bound_bw_gaps: List[float] = []
    solved = 0
    for output in executor.run(points):
        if not output["solved"]:
            continue
        solved += 1
        bound_time_gaps.append(output["bound_time_gap"])
        bound_bw_gaps.append(output["bound_bw_gap"])
        for name in HEURISTIC_FACTORIES:
            time_ratios[name].append(output["time_ratios"][name])
            bw_ratios[name].append(output["bw_ratios"][name])

    for name in HEURISTIC_FACTORIES:
        result.rows.append(
            {
                "heuristic": name,
                "mean_time_ratio": round(statistics.fmean(time_ratios[name]), 3),
                "max_time_ratio": round(max(time_ratios[name]), 3),
                "mean_bw_ratio": round(statistics.fmean(bw_ratios[name]), 3),
                "max_bw_ratio": round(max(bw_ratios[name]), 3),
                "instances": solved,
            }
        )
    result.add_note(
        f"counting-bound looseness on the same batch: optimum/bound means "
        f"{statistics.fmean(bound_time_gaps):.2f}x (time), "
        f"{statistics.fmean(bound_bw_gaps):.2f}x (bandwidth)"
    )
    result.add_note(
        "ratios are heuristic/exact-optimum; 1.0 means the heuristic was "
        "optimal on every instance"
    )
    return result
