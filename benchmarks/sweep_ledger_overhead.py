"""Gate: the CLI's default sweep path — run ledger on — costs <= 2%.

``ocd-repro run`` writes the run ledger to ``<cache-dir>/ledger.jsonl``
whenever the result cache is on, so the monitored sweep is the default
one.  The monitoring contract (docs/OBSERVABILITY.md) has two halves:
disabled monitoring costs *nothing* (no ledger path, no writer, no
heartbeat thread — the unmonitored code path is unchanged), and enabled
monitoring — ledger appends plus the per-point heartbeat thread — stays
within ``LEDGER_OVERHEAD_TOLERANCE`` of the unmonitored sweep.  This
benchmark gates the second half, i.e. it bounds the CLI's default path.

Methodology mirrors ``engine_perf.py --trace-overhead``: the monitored
and unmonitored variants run back-to-back within each repeat and the
*paired* ratio is compared, keeping the cleanest (minimum) pair.
Shared-machine noise inflates individual samples by several percent but
cannot deflate one — if even a single interleaved repeat shows the two
variants at the same speed, the monitoring work is within budget,
whereas a real regression inflates every repeat.

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


def check_ledger_overhead(
    repeats: int, points: int, size: int, tokens: int, heartbeat_s: float
) -> int:
    specs = _specs(points, size, tokens)
    sink = io.StringIO()
    ratios = []
    baseline = monitored = None
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            ledger_path = os.path.join(tmp, f"ledger-{repeat}.jsonl")
            off = ExecutorConfig(workers=1)
            on = ExecutorConfig(
                workers=1, ledger_path=ledger_path, heartbeat_s=heartbeat_s
            )
            t0 = time.perf_counter()
            baseline = Executor(off, stream=sink).run(specs)
            t1 = time.perf_counter()
            monitored = Executor(on, stream=sink).run(specs)
            t2 = time.perf_counter()
            ratios.append((t2 - t1) / (t1 - t0))
    if monitored != baseline:
        raise AssertionError("monitoring perturbed sweep results")
    overhead = min(ratios) - 1.0
    status = "ok" if overhead <= LEDGER_OVERHEAD_TOLERANCE else "OVERHEAD"
    print(
        f"sweep ledger+heartbeat overhead {overhead:+.1%} over {points} "
        f"point(s) x {repeats} repeat(s) "
        f"(limit {LEDGER_OVERHEAD_TOLERANCE:.0%}) -> {status}"
    )
    return 0 if overhead <= LEDGER_OVERHEAD_TOLERANCE else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--points", type=int, default=6)
    # Sized so one point costs ~10ms — the small end of real sweep
    # points (quick-scale fig2 points are ~25ms).  The ~150us fixed
    # monitoring cost per point (ledger open + two writes + heartbeat
    # thread spawn/join) must amortize against real work, not a toy.
    parser.add_argument("--size", type=int, default=200)
    parser.add_argument("--tokens", type=int, default=128)
    parser.add_argument(
        "--heartbeat-s",
        type=float,
        default=0.2,
        help="heartbeat cadence for the monitored variant (default 0.2, "
        "aggressive on purpose so heartbeats actually fire)",
    )
    args = parser.parse_args()
    return check_ledger_overhead(
        args.repeats, args.points, args.size, args.tokens, args.heartbeat_s
    )


if __name__ == "__main__":
    raise SystemExit(main())
