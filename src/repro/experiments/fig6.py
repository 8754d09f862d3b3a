"""Figure 6 — moves and bandwidth vs number of files, random senders.

The Figure 5 sweep with each file placed at a random vertex that does
not want it.  The paper observes the same trends as Figure 5, showing
the heuristics behave alike whether files start at a single place or at
many.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.config import QUICK, Scale
from repro.experiments.fig5 import run as _run_fig5
from repro.experiments.report import FigureResult
from repro.experiments.sweep import Executor

__all__ = ["run"]


def run(
    scale: Scale = QUICK, executor: Optional[Executor] = None
) -> FigureResult:
    return _run_fig5(scale, multi_sender=True, executor=executor)
