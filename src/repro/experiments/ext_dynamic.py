"""Extension experiment — distribution under changing network conditions.

Sweeps link uptime (periodic outages) and cross-traffic fluctuation
depth on the Figure 2 workload, reporting the online heuristics'
slowdown relative to the static network; and on small trap instances
compares the online adaptive runs against the clairvoyant oracle.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.core.problem import Problem
from repro.experiments.config import QUICK, Scale
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor, PointSpec, point_function
from repro.extensions.dynamic import (
    CapacitySchedule,
    constant_conditions,
    oracle_makespan,
    periodic_outages,
    random_fluctuations,
    run_dynamic,
)
from repro.heuristics import make_heuristic
from repro.topology import random_graph
from repro.workloads import single_file

__all__ = ["run"]

_HEURISTICS = ("random", "local", "global")

_CONDITIONS: Dict[str, Callable[[Problem, int], CapacitySchedule]] = {
    "static": lambda p, t: constant_conditions(p),
    "uptime 3/4": lambda p, t: periodic_outages(p, 4, 1, seed=t),
    "uptime 1/2": lambda p, t: periodic_outages(p, 2, 1, seed=t),
    "cross-traffic 50-100%": lambda p, t: random_fluctuations(p, seed=t, low=0.5),
    "cross-traffic 20-100%": lambda p, t: random_fluctuations(p, seed=t, low=0.2),
}
_CONDITION_ORDER = (
    "static",
    "uptime 3/4",
    "uptime 1/2",
    "cross-traffic 50-100%",
    "cross-traffic 20-100%",
)


@point_function("ext_dynamic")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """One (conditions, heuristic, trial) dynamic run."""
    trial = spec.param("trial")
    label = spec.param("conditions")
    name = spec.param("heuristic")
    rng = random.Random(spec.seed + trial)
    problem = single_file(
        random_graph(spec.param("n"), rng), file_tokens=spec.param("tokens")
    )
    conditions = _CONDITIONS[label](problem, trial)
    run_result = run_dynamic(conditions, make_heuristic(name), seed=trial)
    assert run_result.success, (label, name)
    return {"makespan": run_result.makespan}


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    n = max(20, scale.medium_n // 2)
    tokens = max(10, scale.file_tokens // 2)
    trials = scale.trials
    result = FigureResult(
        figure="ext_dynamic",
        title=(
            f"slowdown under outages and fluctuations "
            f"(n={n}, m={tokens}, {scale.name} scale)"
        ),
    )
    points = [
        PointSpec.make(
            "ext_dynamic",
            "ext_dynamic",
            index,
            params={
                "conditions": label,
                "heuristic": name,
                "trial": trial,
                "n": n,
                "tokens": tokens,
            },
            seed=scale.base_seed,
        )
        for index, (label, name, trial) in enumerate(
            (c, h, t)
            for c in _CONDITION_ORDER
            for h in _HEURISTICS
            for t in range(trials)
        )
    ]
    outputs = executor.run(points)
    static_makespans: Dict[str, float] = {}
    cursor = 0
    for label in _CONDITION_ORDER:
        for name in _HEURISTICS:
            makespans = [
                outputs[cursor + t]["makespan"] for t in range(trials)
            ]
            cursor += trials
            mean = sum(makespans) / len(makespans)
            if label == "static":
                static_makespans[name] = mean
            result.rows.append(
                {
                    "conditions": label,
                    "heuristic": name,
                    "moves": round(mean, 2),
                    "slowdown": round(mean / static_makespans[name], 2),
                    "trials": trials,
                }
            )

    # Clairvoyance gap on the future-outage trap.
    trap = Problem.build(
        4,
        1,
        [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)],
        {0: [0]},
        {3: [0]},
    )

    def trap_caps(step, arc):
        return 0 if (arc.src, arc.dst) == (1, 3) and step >= 1 else arc.capacity

    conditions = CapacitySchedule(trap, trap_caps, name="trap")
    oracle = oracle_makespan(conditions, 8)
    online = run_dynamic(conditions, make_heuristic("bandwidth"), seed=0)
    result.add_note(
        f"future-outage trap: oracle {oracle} rounds vs online adaptive "
        f"{online.makespan} rounds — clairvoyance routes around the outage"
    )
    return result
