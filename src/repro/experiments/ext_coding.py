"""Extension experiment — what threshold coding buys, and when.

The paper's §6 expects coding to pay off "in the face of lossy
channels".  This driver measures exactly that boundary:

* on a *static* loss-free overlay, parity helps only marginally (the
  odd round lost to two senders pushing the same token at one vertex) —
  nearly every arriving token is new, so needing k of k+p finishes about
  when needing k of k does;
* under periodic link outages, parity wins outright and monotonically:
  when an outage strands a specific token, any-k completion substitutes
  whichever coded token got through.

Both sweeps use the Random heuristic (uncoordinated, so stragglers are
realistic) over a unit-capacity random overlay.
"""

from __future__ import annotations

import random
import statistics
from typing import Any, Dict, Optional

from repro.experiments.config import QUICK, Scale
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor, PointSpec, point_function
from repro.extensions.coding import (
    make_coded_single_file,
    run_coded,
    run_coded_dynamic,
)
from repro.extensions.dynamic import periodic_outages
from repro.heuristics import make_heuristic
from repro.topology import random_graph, unit_capacity

__all__ = ["run"]


@point_function("ext_coding")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """One (network, parity, seed) coded run on the shared overlay.

    The overlay is rebuilt from ``spec.seed`` (the scale's base seed),
    so every point sees the identical topology the serial loop shared.
    """
    topo = random_graph(
        spec.param("n"), random.Random(spec.seed), capacity=unit_capacity
    )
    inst = make_coded_single_file(
        topo, spec.param("data_tokens"), spec.param("parity")
    )
    run_seed = spec.param("run_seed")
    if spec.param("flaky"):
        conditions = periodic_outages(inst.problem, period=3, down_for=1, seed=7)
        run_result = run_coded_dynamic(
            inst, conditions, make_heuristic("random"), seed=run_seed
        )
    else:
        run_result = run_coded(inst, make_heuristic("random"), seed=run_seed)
    assert run_result.success
    return {"makespan": run_result.makespan}


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    n = max(15, scale.medium_n // 4)
    data_tokens = max(8, scale.file_tokens // 5)
    seeds = range(scale.trials * 4)
    result = FigureResult(
        figure="ext_coding",
        title=(
            f"any-k completion vs parity, static vs flaky links "
            f"(n={n}, k={data_tokens}, {scale.name} scale)"
        ),
    )
    grid = [
        (network, flaky, parity)
        for network, flaky in (("static", False), ("outages 1/3", True))
        for parity in (0, data_tokens // 2, data_tokens)
    ]
    points = [
        PointSpec.make(
            "ext_coding",
            "ext_coding",
            index,
            params={
                "network": network,
                "flaky": flaky,
                "parity": parity,
                "run_seed": seed,
                "n": n,
                "data_tokens": data_tokens,
            },
            seed=scale.base_seed,
        )
        for index, (network, flaky, parity, seed) in enumerate(
            (nw, fl, p, s) for nw, fl, p in grid for s in seeds
        )
    ]
    outputs = executor.run(points)
    cursor = 0
    for network, _flaky, parity in grid:
        times = [outputs[cursor + s]["makespan"] for s in range(len(seeds))]
        cursor += len(seeds)
        result.rows.append(
            {
                "network": network,
                "data": data_tokens,
                "parity": parity,
                "mean_completion": round(statistics.fmean(times), 2),
                "max_completion": max(times),
                "seeds": len(times),
            }
        )
    result.add_note(
        "static loss-free links: parity saves at most the odd duplicate-"
        "collision round; flaky links: parity cuts completion further and "
        "monotonically, matching the paper's lossy-channel intuition"
    )
    return result
