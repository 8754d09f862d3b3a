"""Gate: the CLI's default sweep path — run ledger on — costs <= 2%.

``ocd-repro run`` writes the run ledger to ``<cache-dir>/ledger.jsonl``
whenever the result cache is on, so the monitored sweep is the default
one.  The monitoring contract (docs/OBSERVABILITY.md) has two halves:
disabled monitoring costs *nothing* (no ledger path, no writer — the
unmonitored code path is unchanged), and enabled monitoring — the
worker's ``point_start`` append and the parent's ``point_end`` and
sweep rows — stays within ``LEDGER_OVERHEAD_TOLERANCE`` of the
unmonitored sweep.  This benchmark gates the second half, i.e. it
bounds the CLI's default path.

The two variants are different programs (unlike disabled tracing,
which runs the same instructions either way and is checked by a test,
not a timing), so only a timing can bound the difference.  They run
back-to-back within each repeat, in an order that alternates between
repeats (``conftest.best_times``), and the gate compares each variant's
best time,
``min(monitored) / min(unmonitored) - 1``.
Shared-machine noise moves single samples both ways by several percent,
so a single paired ratio can hide a real cost; each variant's minimum
converges to its true cost instead.  If the gate flakes, raise
``--repeats``, not the tolerance.

Run from the repository root::

    PYTHONPATH=src python benchmarks/sweep_ledger_overhead.py
    PYTHONPATH=src python benchmarks/sweep_ledger_overhead.py --repeats 7
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import best_times  # noqa: E402

from repro.experiments.sweep import (  # noqa: E402
    Executor,
    ExecutorConfig,
    PointSpec,
    point_function,
)
from repro.heuristics import HEURISTIC_FACTORIES  # noqa: E402
from repro.sim import run_heuristic  # noqa: E402
from repro.topology.generators import random_instance  # noqa: E402

#: Enabled monitoring may slow a sweep by at most this much.
LEDGER_OVERHEAD_TOLERANCE = 0.02


@point_function("_ledger_bench")
def _ledger_bench_point(spec: PointSpec) -> dict:
    """One CPU-bound sweep point: the local heuristic on a random graph."""
    rng = random.Random(spec.seed)
    problem = random_instance(
        rng,
        max_vertices=spec.param("size"),
        max_tokens=spec.param("tokens"),
    )
    result = run_heuristic(
        problem, HEURISTIC_FACTORIES["local"](), seed=spec.seed
    )
    return {
        "success": result.success,
        "makespan": result.makespan,
        "bandwidth": result.bandwidth,
    }


def _specs(points: int, size: int, tokens: int) -> list:
    return [
        PointSpec.make(
            "ledger_bench",
            "_ledger_bench",
            i,
            {"size": size, "tokens": tokens},
            seed=100 + i,
        )
        for i in range(points)
    ]


def check_ledger_overhead(repeats: int, points: int, size: int, tokens: int) -> int:
    specs = _specs(points, size, tokens)
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        calls = itertools.count()

        def sweep(monitored: bool) -> list:
            # A fresh ledger file per monitored call.
            ledger_path = os.path.join(tmp, f"ledger-{next(calls)}.jsonl")
            config = ExecutorConfig(
                workers=1, ledger_path=ledger_path if monitored else None
            )
            return Executor(config, stream=sink).run(specs)

        (t_plain, t_monitored), (plain, monitored) = best_times(
            [lambda: sweep(False), lambda: sweep(True)], repeats
        )
    if monitored != plain:
        raise AssertionError("monitoring perturbed sweep results")
    overhead = t_monitored / t_plain - 1.0
    status = "ok" if overhead <= LEDGER_OVERHEAD_TOLERANCE else "OVERHEAD"
    print(
        f"sweep ledger overhead {overhead:+.1%} over {points} "
        f"point(s), best of {repeats}: unmonitored {t_plain * 1e3:.1f}ms, "
        f"monitored {t_monitored * 1e3:.1f}ms "
        f"(limit {LEDGER_OVERHEAD_TOLERANCE:.0%}) -> {status}"
    )
    return 0 if overhead <= LEDGER_OVERHEAD_TOLERANCE else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--points", type=int, default=6)
    # Sized so one point costs ~10ms — the small end of real sweep
    # points (quick-scale fig2 points are ~25ms).  The fixed monitoring
    # cost per point (a worker-side ledger open and write, and a
    # parent-side write) must amortize against real work, not a toy.
    parser.add_argument("--size", type=int, default=200)
    parser.add_argument("--tokens", type=int, default=128)
    args = parser.parse_args()
    return check_ledger_overhead(args.repeats, args.points, args.size, args.tokens)


if __name__ == "__main__":
    raise SystemExit(main())
