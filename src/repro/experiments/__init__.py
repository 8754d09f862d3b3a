"""Drivers that regenerate every figure of the paper's evaluation.

Each ``figN.run(scale, executor=...)`` returns a :class:`FigureResult`
whose rows are the figure's series; ``ALL_EXPERIMENTS`` maps experiment
ids to drivers for the CLI and the benchmark harness.  ``locd`` covers
the Theorem 4 measurements (not a numbered figure).

Drivers declare their sweeps as grids of
:class:`~repro.experiments.sweep.PointSpec` values handed to an
:class:`~repro.experiments.sweep.Executor` (parallel fan-out, result
caching, run ledger); calling a driver with no executor runs serially
with caching off, which reproduces the historical behaviour exactly.
Importing this package registers every driver's point function, which
is how spawn-started worker processes find them.
"""

from typing import Callable, Dict

from repro.experiments import (
    ext_coding,
    ext_dynamic,
    fig1,
    gap,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    locd_exp,
    pareto_exp,
)
from repro.experiments.config import (
    PAPER,
    QUICK,
    Scale,
    default_executor_config,
    default_scale,
)
from repro.experiments.report import FigureResult, format_table
from repro.experiments.runner import (
    SeriesPoint,
    TrialRecord,
    aggregate,
    run_configuration,
    run_trial,
)
from repro.experiments.sweep import (
    Executor,
    ExecutorConfig,
    PointOutcome,
    PointSpec,
    SweepError,
    point_function,
)

ExperimentDriver = Callable[..., FigureResult]

ALL_EXPERIMENTS: Dict[str, ExperimentDriver] = {
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "locd": locd_exp.run,
    "ext_dynamic": ext_dynamic.run,
    "ext_coding": ext_coding.run,
    "gap": gap.run,
    "pareto": pareto_exp.run,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "Executor",
    "ExecutorConfig",
    "ExperimentDriver",
    "FigureResult",
    "PAPER",
    "PointOutcome",
    "PointSpec",
    "QUICK",
    "Scale",
    "SeriesPoint",
    "SweepError",
    "TrialRecord",
    "aggregate",
    "default_executor_config",
    "default_scale",
    "format_table",
    "point_function",
    "run_configuration",
    "run_trial",
]
