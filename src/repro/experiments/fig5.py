"""Figure 5 — moves and bandwidth vs number of files (single sender).

512 tokens at one source; the x-axis repeatedly halves the file (and
partitions the receivers), from one 512-token file wanted by everyone to
128 four-token files each wanted by one or two vertices.  The total
token mass leaving the source is constant across the sweep.  Findings:

* after an initial drop (the source bottleneck relaxes), the flooding
  heuristics level off: they send everything everywhere regardless of
  the subdivision;
* only the bandwidth heuristic improves as demand becomes more
  constrained, tracking the lower bound and the pruned flooding numbers.
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
from repro.workloads import file_subdivision

__all__ = ["run"]


@point_function("fig5")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """One trial of one file count (serves Figures 5 and 6)."""
    n = spec.param("n")
    num_files = spec.param("num_files")
    total_tokens = spec.param("total_tokens")
    multi_sender = spec.param("multi_sender")

    def factory(rng: random.Random):
        topo = random_graph(n, rng)
        return file_subdivision(
            topo,
            num_files,
            rng=rng,
            total_tokens=total_tokens,
            multi_sender=multi_sender,
        )

    records = run_trial(factory, spec.seed, spec.param("trial"))
    return {"records": records_to_dicts(records), "stats": trial_stats(records)}


def run(
    scale: Scale = QUICK,
    multi_sender: bool = False,
    executor: Optional[Executor] = None,
) -> FigureResult:
    executor = executor or Executor()
    n = scale.medium_n
    kind = "multi-sender" if multi_sender else "single-sender"
    figure = "fig6" if multi_sender else "fig5"
    result = FigureResult(
        figure=figure,
        title=(
            f"moves/bandwidth vs number of files, {kind} "
            f"(n={n}, tokens={scale.subdivision_tokens}, {scale.name} scale)"
        ),
    )
    configs = [
        {
            "num_files": num_files,
            "n": n,
            "total_tokens": scale.subdivision_tokens,
            "multi_sender": multi_sender,
        }
        for num_files in scale.file_counts
    ]
    points = trial_grid(figure, "fig5", configs, scale.trials, scale.base_seed)
    collect_trial_sweep(
        executor, points, [float(f) for f in scale.file_counts], result
    )
    result.add_note("x is the number of files the 512-token mass is split into")
    return result
