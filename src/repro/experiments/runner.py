"""Shared sweep machinery for the figure drivers.

One *configuration* is a point on a figure's x-axis (a graph size, a
threshold, a file count).  For each configuration the runner builds the
problem per trial, runs every heuristic, prunes its schedule, evaluates
the paper's lower bounds, and aggregates over trials.  The rows it
produces are the figures' series.

The unit of execution is one *trial* (:func:`run_trial`): the figure
drivers declare their sweeps as grids of :class:`~repro.experiments.sweep.PointSpec`
values — one per (configuration, trial) — and hand them to an
:class:`~repro.experiments.sweep.Executor`, which may fan them out over
worker processes and serve repeats from the result cache.  Every seed is
derived from (base_seed, trial, heuristic index) alone, so a trial's
records are a pure function of its spec and parallel results are
bit-identical to serial ones.

Under an ambient :class:`repro.obs.MetricsRegistry` (the sweep's
``profile``), a trial times its two bound evaluations as the
``bounds`` phase and each heuristic's pruning as the ``pruning`` phase,
beside the engines' own phases.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.bounds import remaining_bandwidth, remaining_timesteps
from repro.core.problem import Problem
from repro.core.pruning import prune_schedule
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor, PointSpec
from repro.heuristics import HEURISTIC_FACTORIES
from repro.obs.metrics import current_metrics, null_timer
from repro.sim.engine import Engine

__all__ = [
    "TrialRecord",
    "SeriesPoint",
    "run_trial",
    "run_configuration",
    "aggregate",
    "trial_stats",
    "records_to_dicts",
    "records_from_dicts",
    "trial_grid",
    "collect_trial_sweep",
]


@dataclass(frozen=True)
class TrialRecord:
    """One heuristic on one problem instance."""

    heuristic: str
    trial: int
    makespan: int
    bandwidth: int
    pruned_bandwidth: int
    success: bool
    bound_bandwidth: int
    bound_timesteps: int


@dataclass(frozen=True)
class SeriesPoint:
    """One aggregated (x, heuristic) point of a figure."""

    x: float
    heuristic: str
    moves: float
    moves_stdev: float
    bandwidth: float
    pruned_bandwidth: float
    bound_bandwidth: float
    bound_timesteps: float
    trials: int
    all_successful: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "x": self.x,
            "heuristic": self.heuristic,
            "moves": round(self.moves, 2),
            "moves_stdev": round(self.moves_stdev, 2),
            "bandwidth": round(self.bandwidth, 1),
            "pruned_bandwidth": round(self.pruned_bandwidth, 1),
            "bound_bandwidth": round(self.bound_bandwidth, 1),
            "bound_timesteps": round(self.bound_timesteps, 2),
            "trials": self.trials,
            "ok": self.all_successful,
        }


def run_trial(
    problem_factory: Callable[[random.Random], Problem],
    base_seed: int,
    trial: int,
    heuristics: Optional[Sequence[str]] = None,
    max_steps: Optional[int] = None,
) -> List[TrialRecord]:
    """Run every heuristic on one fresh instance — the sweep's pure unit.

    All randomness derives from ``(base_seed, trial, heuristic index)``,
    so the records are a deterministic function of the arguments and the
    trial can run in any process, in any order.
    """
    if heuristics is None:
        heuristics = list(HEURISTIC_FACTORIES)
    instance_rng = random.Random(base_seed + trial)
    problem = problem_factory(instance_rng)
    metrics = current_metrics()
    timer = null_timer if metrics is None else metrics.timer
    with timer("bounds"):
        bound_bw = remaining_bandwidth(problem)
    with timer("bounds"):
        bound_ts = remaining_timesteps(problem)
    records: List[TrialRecord] = []
    for h_index, name in enumerate(heuristics):
        heuristic = HEURISTIC_FACTORIES[name]()
        # h_index, not hash(name): string hashes are per-process
        # randomized, which made sweep results irreproducible.
        engine = Engine(
            problem,
            heuristic,
            rng=random.Random(base_seed * 31 + trial * 7 + h_index * 101),
            max_steps=max_steps,
        )
        result = engine.run()
        with timer("pruning"):
            pruned, _stats = prune_schedule(problem, result.schedule)
        records.append(
            TrialRecord(
                heuristic=name,
                trial=trial,
                makespan=result.makespan,
                bandwidth=result.bandwidth,
                pruned_bandwidth=pruned.bandwidth,
                success=result.success,
                bound_bandwidth=bound_bw,
                bound_timesteps=bound_ts,
            )
        )
    return records


def run_configuration(
    problem_factory: Callable[[random.Random], Problem],
    trials: int,
    base_seed: int,
    heuristics: Optional[Sequence[str]] = None,
    max_steps: Optional[int] = None,
) -> List[TrialRecord]:
    """Run every heuristic on ``trials`` fresh instances.

    ``problem_factory`` draws a problem from an RNG, so each trial sees a
    fresh topology/score draw (the paper generates several instances per
    size and repeats heuristics per instance; we fold both into trials).
    """
    records: List[TrialRecord] = []
    for trial in range(trials):
        records.extend(
            run_trial(
                problem_factory,
                base_seed,
                trial,
                heuristics=heuristics,
                max_steps=max_steps,
            )
        )
    return records


def trial_stats(records: Sequence[TrialRecord]) -> Dict[str, int]:
    """Per-point stats: total moves/bandwidth over a trial."""
    return {
        "moves": sum(r.makespan for r in records),
        "bandwidth": sum(r.bandwidth for r in records),
        "timesteps": max((r.makespan for r in records), default=0),
    }


def records_to_dicts(records: Sequence[TrialRecord]) -> List[Dict[str, Any]]:
    """JSON-able form of trial records for cache/IPC transport."""
    return [asdict(r) for r in records]


def records_from_dicts(rows: Iterable[Mapping[str, Any]]) -> List[TrialRecord]:
    """Inverse of :func:`records_to_dicts`."""
    return [TrialRecord(**row) for row in rows]


def trial_grid(
    figure: str,
    kind: str,
    configs: Sequence[Mapping[str, Any]],
    trials: int,
    base_seed: int,
) -> List[PointSpec]:
    """The standard figure grid: one point per (configuration, trial).

    Configuration ``i`` keeps the historical seed derivation
    ``base_seed + i * 1000``; the trial index rides in the params so the
    point function can reproduce exactly what the serial loop computed.
    """
    points: List[PointSpec] = []
    for i, params in enumerate(configs):
        for trial in range(trials):
            points.append(
                PointSpec.make(
                    figure=figure,
                    kind=kind,
                    index=len(points),
                    params={**params, "config": i, "trial": trial},
                    seed=base_seed + i * 1000,
                )
            )
    return points


def collect_trial_sweep(
    executor: Executor,
    points: Sequence[PointSpec],
    xs: Sequence[float],
    result: FigureResult,
) -> None:
    """Run a trial grid and append aggregated series rows in grid order.

    Results are grouped by configuration index and aggregated exactly as
    the historical serial loop did, so the emitted rows are byte-identical
    regardless of worker count or cache state.
    """
    outputs = executor.run(points)
    by_config: Dict[int, List[TrialRecord]] = {}
    for spec, output in zip(points, outputs):
        config = int(spec.param("config"))
        by_config.setdefault(config, []).extend(
            records_from_dicts(output["records"])
        )
    for i, x in enumerate(xs):
        for point in aggregate(x, by_config.get(i, [])):
            result.rows.append(point.as_row())


def aggregate(x: float, records: Iterable[TrialRecord]) -> List[SeriesPoint]:
    """Collapse trial records into per-heuristic series points."""
    by_heuristic: Dict[str, List[TrialRecord]] = {}
    for record in records:
        by_heuristic.setdefault(record.heuristic, []).append(record)
    points = []
    for name, recs in by_heuristic.items():
        moves = [r.makespan for r in recs]
        points.append(
            SeriesPoint(
                x=x,
                heuristic=name,
                moves=statistics.fmean(moves),
                moves_stdev=statistics.pstdev(moves) if len(moves) > 1 else 0.0,
                bandwidth=statistics.fmean(r.bandwidth for r in recs),
                pruned_bandwidth=statistics.fmean(r.pruned_bandwidth for r in recs),
                bound_bandwidth=statistics.fmean(r.bound_bandwidth for r in recs),
                bound_timesteps=statistics.fmean(r.bound_timesteps for r in recs),
                trials=len(recs),
                all_successful=all(r.success for r in recs),
            )
        )
    return points
