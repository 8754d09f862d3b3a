"""Theorem 4 measurements — online algorithms against the adversary.

Not a numbered figure, but the paper's Section 4 makes two measurable
claims this driver checks on the guessing family:

* no practical online algorithm is c-competitive for a constant c: the
  flooding algorithms' worst-case ratio grows without bound as the decoy
  count grows;
* an additive-diameter algorithm exists (Section 4.2): flood-then-optimal
  stays at ratio ``(D + OPT) / OPT`` — exactly 2 on this family — no
  matter how many decoys are added, matching the deterministic lower
  bound the family forces on every LOCD algorithm.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.experiments.config import QUICK, Scale
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor, PointSpec, point_function
from repro.locd import (
    FloodThenOptimal,
    LocalRandom,
    LocalRarest,
    LocalRoundRobin,
    deterministic_lower_bound,
)

__all__ = ["run"]

_ALGORITHMS: Dict[str, Callable[[], Any]] = {
    "round_robin": LocalRoundRobin,
    "random": LocalRandom,
    "rarest": LocalRarest,
    "flood_then_optimal": lambda: FloodThenOptimal(planner="exact"),
}
_ALGORITHM_ORDER = ("round_robin", "random", "rarest", "flood_then_optimal")


@point_function("locd")
def _point(spec: PointSpec) -> Dict[str, Any]:
    """One algorithm against the adversary at one decoy count."""
    from repro.locd import adversarial_ratio

    outcome = adversarial_ratio(
        _ALGORITHMS[spec.param("algorithm")],
        separation=spec.param("separation"),
        num_decoys=spec.param("decoys"),
        seed=spec.seed,
    )
    return {
        "worst_makespan": outcome.worst_makespan,
        "optimum": outcome.optimum,
        "ratio": outcome.ratio,
    }


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    executor = executor or Executor()
    separation = 3
    decoy_counts = (4, 8, 16) if scale.name == "quick" else (4, 8, 16, 32, 64)
    result = FigureResult(
        figure="locd",
        title=(
            f"Theorem 4: adversarial competitive ratios on the guessing "
            f"family (separation={separation})"
        ),
    )
    points = [
        PointSpec.make(
            "locd",
            "locd",
            index,
            params={
                "decoys": decoys,
                "algorithm": name,
                "separation": separation,
            },
            seed=scale.base_seed,
        )
        for index, (decoys, name) in enumerate(
            (d, a) for d in decoy_counts for a in _ALGORITHM_ORDER
        )
    ]
    for spec, output in zip(points, executor.run(points)):
        decoys = spec.param("decoys")
        result.rows.append(
            {
                "decoys": decoys,
                "algorithm": spec.param("algorithm"),
                "worst_makespan": output["worst_makespan"],
                "optimum": output["optimum"],
                "ratio": round(output["ratio"], 3),
                "det_lower_bound": round(
                    deterministic_lower_bound(separation, decoys), 3
                ),
            }
        )
    result.add_note(
        "flooding ratios grow with the decoy count; flood-then-optimal is "
        "pinned at the deterministic lower bound"
    )
    return result
