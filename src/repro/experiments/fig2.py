"""Figure 2 — moves and bandwidth vs graph size, random graphs.

Single source distributing one file to all vertices over G(n, 2 ln n/n)
graphs with capacities uniform in [3, 15].  The paper's findings, which
the shape assertions in the benchmarks check:

* moves (makespan) do not correlate with graph size;
* bandwidth grows roughly linearly with the vertex count;
* round-robin is much slower than the peer-aware heuristics;
* random stays within a constant factor of the smarter heuristics.
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
from repro.workloads import single_file

__all__ = ["run"]


@point_function("fig2")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """One trial of one graph size: all heuristics on one random graph."""
    n = spec.param("n")
    file_tokens = spec.param("file_tokens")

    def factory(rng: random.Random):
        return single_file(random_graph(n, rng), file_tokens=file_tokens)

    records = run_trial(factory, spec.seed, spec.param("trial"))
    return {"records": records_to_dicts(records), "stats": trial_stats(records)}


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    result = FigureResult(
        figure="fig2",
        title=(
            f"moves/bandwidth vs graph size, random graphs "
            f"(m={scale.file_tokens}, trials={scale.trials}, {scale.name} scale)"
        ),
    )
    configs = [
        {"n": n, "file_tokens": scale.file_tokens} for n in scale.graph_sizes
    ]
    points = trial_grid("fig2", "fig2", configs, scale.trials, scale.base_seed)
    collect_trial_sweep(
        executor, points, [float(n) for n in scale.graph_sizes], result
    )
    result.add_note("x is the vertex count n; edge probability is 2 ln n / n")
    return result
