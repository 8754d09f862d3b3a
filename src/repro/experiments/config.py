"""Experiment scales.

Every figure driver accepts a :class:`Scale`, defaulting to ``QUICK``.
``PAPER`` is the exact parameterization of Section 5 (graphs to 1000
vertices, 200- and 512-token files, 3 trials); ``QUICK`` preserves
every series and the shape of every sweep at a size that runs in
seconds, and is what the benchmarks and CI use.  ``ocd-repro run
--paper-scale`` selects ``PAPER``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Scale",
    "QUICK",
    "PAPER",
]


@dataclass(frozen=True)
class Scale:
    """Sweep parameters for the evaluation figures."""

    name: str
    #: Figure 2/3 graph sizes.
    graph_sizes: Sequence[int]
    #: Single-file token count (paper: 200).
    file_tokens: int
    #: Figure 4 receiver-density thresholds.
    density_thresholds: Sequence[float]
    #: Figure 4/5/6 vertex count (paper: 200).
    medium_n: int
    #: Figure 5/6 total token count (paper: 512).
    subdivision_tokens: int
    #: Figure 5/6 file counts (paper: 1..128 by doubling).
    file_counts: Sequence[int]
    #: Independent trials per configuration (paper: 3).
    trials: int
    #: Base seed; trial t of configuration i uses seed base + i * 1000 + t.
    base_seed: int = 20050518  # the tech report's publication date


QUICK = Scale(
    name="quick",
    graph_sizes=(20, 40, 80),
    file_tokens=40,
    density_thresholds=(0.0, 0.25, 0.5, 0.75, 1.0),
    medium_n=60,
    subdivision_tokens=64,
    file_counts=(1, 2, 4, 8, 16),
    trials=2,
)

PAPER = Scale(
    name="paper",
    graph_sizes=(20, 50, 100, 200, 400, 700, 1000),
    file_tokens=200,
    density_thresholds=(0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
    medium_n=200,
    subdivision_tokens=512,
    file_counts=(1, 2, 4, 8, 16, 32, 64, 128),
    trials=3,
)

