"""Figure 4 — moves and bandwidth vs receiver density.

Single source, single file, over random graphs; vertices join the want
set when their random score falls under the x-axis threshold.  The
paper's findings:

* the flooding heuristics (round-robin, random, local, global) consume
  roughly constant bandwidth regardless of how few vertices want the
  file — flooding cannot exploit sparse demand;
* the bandwidth heuristic is slightly slower but uses far less bandwidth
  at small thresholds, staying below random until the threshold returns
  to 1;
* the *pruned* bandwidth of the flooding heuristics is roughly optimal
  (it tracks the wanted-but-missing lower bound).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.experiments.config import QUICK, Scale
from repro.experiments.report import FigureResult
from repro.experiments.runner import (
    collect_trial_sweep,
    records_to_dicts,
    run_trial,
    trial_grid,
    trial_stats,
)
from repro.experiments.sweep import Executor, PointSpec, point_function
from repro.topology import random_graph
from repro.workloads import receiver_density

__all__ = ["run"]


@point_function("fig4")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """One trial of one density threshold."""
    n = spec.param("n")
    threshold = spec.param("threshold")
    file_tokens = spec.param("file_tokens")

    def factory(rng: random.Random):
        topo = random_graph(n, rng)
        return receiver_density(topo, threshold, rng, file_tokens=file_tokens)

    records = run_trial(factory, spec.seed, spec.param("trial"))
    return {"records": records_to_dicts(records), "stats": trial_stats(records)}


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    n = scale.medium_n
    result = FigureResult(
        figure="fig4",
        title=(
            f"moves/bandwidth vs receiver density "
            f"(n={n}, m={scale.file_tokens}, {scale.name} scale)"
        ),
    )
    configs = [
        {"threshold": threshold, "n": n, "file_tokens": scale.file_tokens}
        for threshold in scale.density_thresholds
    ]
    points = trial_grid("fig4", "fig4", configs, scale.trials, scale.base_seed)
    collect_trial_sweep(executor, points, list(scale.density_thresholds), result)
    result.add_note("x is the want-set score threshold (1.0 = all receivers)")
    result.add_note(
        "threshold 0 leaves no demand: moves/bandwidth are 0 for every heuristic"
    )
    return result
