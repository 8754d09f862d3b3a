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

Methodology mirrors ``engine_perf.py --trace-overhead``: the monitored
and unmonitored variants run back-to-back within each repeat, in an
order that alternates between repeats, and the gate compares each
variant's best time, ``min(monitored) / min(unmonitored) - 1``.
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
import os
import random
import tempfile
import time

from repro.experiments.sweep import (
    Executor,
    ExecutorConfig,
    PointSpec,
    point_function,
)
from repro.heuristics import HEURISTIC_FACTORIES
from repro.sim import run_heuristic
from repro.topology.generators import random_instance

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
    best = {False: float("inf"), True: float("inf")}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            order = (False, True) if repeat % 2 == 0 else (True, False)
            for monitored in order:
                ledger_path = os.path.join(tmp, f"ledger-{repeat}.jsonl")
                config = ExecutorConfig(
                    workers=1, ledger_path=ledger_path if monitored else None
                )
                t0 = time.perf_counter()
                results[monitored] = Executor(config, stream=sink).run(specs)
                best[monitored] = min(best[monitored], time.perf_counter() - t0)
    if results[True] != results[False]:
        raise AssertionError("monitoring perturbed sweep results")
    overhead = best[True] / best[False] - 1.0
    status = "ok" if overhead <= LEDGER_OVERHEAD_TOLERANCE else "OVERHEAD"
    print(
        f"sweep ledger overhead {overhead:+.1%} over {points} "
        f"point(s), best of {repeats}: unmonitored {best[False] * 1e3:.1f}ms, "
        f"monitored {best[True] * 1e3:.1f}ms "
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
