"""Shared fixtures for the figure benchmarks.

Each benchmark regenerates one of the paper's figures at QUICK scale
(every series present, reduced sweep sizes; see
``repro.experiments.config``) and asserts the *shape* findings the paper
reports.  Pass ``PAPER`` to the ``repro.experiments`` drivers (or run
``ocd-repro run --paper-scale``) for the full-parameter runs recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import pytest

from repro.experiments import QUICK, FigureResult
from repro.experiments.config import Scale


@pytest.fixture(scope="session")
def scale() -> Scale:
    return QUICK


def bench_rng(label: str) -> random.Random:
    """One stable RNG per benchmark workload, keyed by a label.

    The benchmark files used to seed ``random.Random`` with ad-hoc
    literals chosen per file.  Deriving the seed from a sha256 of the
    workload label keeps every bench instance stable across files and
    Python versions (the digest, unlike ``hash()``, is unsalted) and
    makes the seed's provenance greppable.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def best_times(
    fns: Sequence[Callable[[], Any]], repeats: int
) -> Tuple[List[float], List[Any]]:
    """Best-of-``repeats`` wall time of each of ``fns``, and a result.

    The calls take turns, in an order rotated on each repeat, so no
    function always runs first (cold caches) and a window of
    shared-machine noise, or a drift in machine speed, lands on every
    function's sample alike.  The result kept is each function's last.
    """
    best = [float("inf")] * len(fns)
    results: List[Any] = [None] * len(fns)
    for repeat in range(repeats):
        for k in range(len(fns)):
            i = (repeat + k) % len(fns)
            results[i] = None  # free the last result outside the timed call
            t0 = time.perf_counter()
            result = fns[i]()
            best[i] = min(best[i], time.perf_counter() - t0)
            results[i] = result
    return best, results


def series_map(result: FigureResult, y: str) -> Dict[str, List[tuple]]:
    """Per-heuristic ``(x, y)`` series from a figure's rows."""
    out: Dict[str, List[tuple]] = {}
    for row in result.rows:
        name = row.get("heuristic")
        if name is None:
            continue
        out.setdefault(name, []).append((row["x"], row[y]))
    for series in out.values():
        series.sort()
    return out
