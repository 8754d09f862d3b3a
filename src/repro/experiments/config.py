"""Experiment scales and executor defaults.

Every figure driver accepts a :class:`Scale`.  ``PAPER`` is the exact
parameterization of Section 5 (graphs to 1000 vertices, 200- and
512-token files, 3 trials); ``QUICK`` preserves every series and the
shape of every sweep at a size that runs in seconds, and is what the
benchmarks and CI use.  ``REPRO_PAPER_SCALE=1`` switches the default.

Executor defaults come from the environment so scripts inherit CLI-less
configuration: ``REPRO_WORKERS`` (process count; <=1 means serial),
``REPRO_NO_CACHE=1`` (disable the result cache), ``REPRO_FORCE=1``
(recompute despite cached entries), ``REPRO_CACHE_DIR`` (cache root,
default ``results/cache``), ``REPRO_TRACE_DIR`` (write per-point run
traces there; off by default), ``REPRO_LEDGER`` (append the run
ledger there; default ``<cache-dir>/ledger.jsonl`` while the cache is
on, off without it), ``REPRO_HEARTBEAT_S`` (seconds between worker
heartbeats, default 5), ``REPRO_PROFILE_SWEEP=1`` (aggregate a
sweep-level metrics profile).  A malformed ``REPRO_WORKERS`` or
``REPRO_HEARTBEAT_S`` raises ``ValueError`` naming the variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

from repro.experiments.sweep import ExecutorConfig

__all__ = [
    "Scale",
    "QUICK",
    "PAPER",
    "default_scale",
    "default_executor_config",
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


def default_scale() -> Scale:
    """``PAPER`` when ``REPRO_PAPER_SCALE=1`` is set, else ``QUICK``."""
    return PAPER if os.environ.get("REPRO_PAPER_SCALE") == "1" else QUICK


_Number = TypeVar("_Number", int, float)


def _env_number(name: str, parse: Callable[[str], _Number], default: _Number) -> _Number:
    """``parse`` of environment variable ``name``, or ``default`` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid {parse.__name__}") from None


def default_executor_config(
    workers: Optional[int] = None,
    use_cache: Optional[bool] = None,
    force: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
    ledger_path: Optional[str] = None,
    heartbeat_s: Optional[float] = None,
    profile: Optional[bool] = None,
) -> ExecutorConfig:
    """Executor knobs from the environment, with explicit overrides.

    Arguments that are ``None`` fall back to the ``REPRO_WORKERS`` /
    ``REPRO_NO_CACHE`` / ``REPRO_FORCE`` / ``REPRO_CACHE_DIR`` /
    ``REPRO_TRACE_DIR`` / ``REPRO_LEDGER`` / ``REPRO_HEARTBEAT_S`` /
    ``REPRO_PROFILE_SWEEP`` environment variables, then to the library
    defaults (serial, cache on, no tracing, the run ledger at
    ``<cache-dir>/ledger.jsonl`` — this is the CLI-facing default;
    programmatic driver calls that construct a bare ``Executor()`` stay
    cache- and ledger-free).  A ``--no-cache`` run without an explicit
    ledger path writes no ledger.
    """
    if workers is None:
        workers = _env_number("REPRO_WORKERS", int, 1)
    if use_cache is None:
        use_cache = os.environ.get("REPRO_NO_CACHE") != "1"
    if force is None:
        force = os.environ.get("REPRO_FORCE") == "1"
    if cache_dir is None:
        cache_dir = os.environ.get(
            "REPRO_CACHE_DIR", os.path.join("results", "cache")
        )
    if trace_dir is None:
        trace_dir = os.environ.get("REPRO_TRACE_DIR") or None
    if ledger_path is None:
        ledger_path = os.environ.get("REPRO_LEDGER") or None
    if ledger_path is None and use_cache:
        ledger_path = os.path.join(cache_dir, "ledger.jsonl")
    if heartbeat_s is None:
        heartbeat_s = _env_number("REPRO_HEARTBEAT_S", float, 5.0)
    if profile is None:
        profile = os.environ.get("REPRO_PROFILE_SWEEP") == "1"
    return ExecutorConfig(
        workers=max(1, workers),
        use_cache=use_cache,
        force=force,
        cache_dir=cache_dir,
        progress=True,
        trace_dir=trace_dir,
        ledger_path=ledger_path,
        heartbeat_s=heartbeat_s,
        profile=profile,
    )
