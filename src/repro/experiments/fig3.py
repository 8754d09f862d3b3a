"""Figure 3 — moves and bandwidth vs graph size, transit-stub graphs.

The Figure 2 experiment on GT-ITM-style transit-stub topologies.  The
paper reports the same qualitative behaviour as on random graphs (and
afterwards presents random graphs only, "since as before it is
representative of both") — our EXPERIMENTS.md records the same.
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
from repro.topology import params_for_size, transit_stub_graph
from repro.workloads import single_file

__all__ = ["run"]


@point_function("fig3")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """One trial of one target size on a transit-stub topology."""
    params = params_for_size(max(spec.param("n"), 8))
    file_tokens = spec.param("file_tokens")

    def factory(rng: random.Random):
        return single_file(transit_stub_graph(params, rng), file_tokens=file_tokens)

    records = run_trial(factory, spec.seed, spec.param("trial"))
    return {"records": records_to_dicts(records), "stats": trial_stats(records)}


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    result = FigureResult(
        figure="fig3",
        title=(
            f"moves/bandwidth vs graph size, transit-stub graphs "
            f"(m={scale.file_tokens}, trials={scale.trials}, {scale.name} scale)"
        ),
    )
    configs = [
        {"n": n, "file_tokens": scale.file_tokens} for n in scale.graph_sizes
    ]
    xs = [
        float(params_for_size(max(n, 8)).total_vertices)
        for n in scale.graph_sizes
    ]
    points = trial_grid("fig3", "fig3", configs, scale.trials, scale.base_seed)
    collect_trial_sweep(executor, points, xs, result)
    result.add_note(
        "x is the realized transit-stub vertex count closest to each target size"
    )
    return result
