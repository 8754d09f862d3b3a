"""Gates: attribution stays off the engine hot path, and on budget.

The causal-attribution layer (``repro.obs.analyze.causal`` /
``attribution``) is post-hoc by design — it replays finished traces and
must cost the *engine* nothing.  Two paired gates:

1. **Tracer hot path unchanged (<= 2%).**  The engine's default
   disabled-tracing run against an explicit :class:`~repro.obs.
   NullTracer` on the n=10^3 attribution workload: variants run
   back-to-back within each repeat and the *paired* minimum ratio is
   compared (see :func:`check_hot_path`).  Shared-machine noise
   inflates individual samples but cannot deflate one, so a single
   clean pair proves no attribution payload work leaked out of the
   ``if tracing:`` guard.

2. **Attribution budget (n=10^3).**  Wall time of
   :func:`~repro.obs.analyze.attribute_events` over the recorded trace,
   expressed as the machine-robust ratio ``run_wall / attribute_wall``
   and recorded in ``BENCH_engine.json`` under ``attribution/n=1000``
   (the ``speedup`` field, like every other case).  ``--check``
   re-measures and fails when the ratio falls below half the committed
   value — i.e. attribution got twice as expensive relative to the run
   it explains.

Usage::

    PYTHONPATH=src python benchmarks/attribution_overhead.py            # gates only
    PYTHONPATH=src python benchmarks/attribution_overhead.py --check    # + baseline gate
    PYTHONPATH=src python benchmarks/attribution_overhead.py --write    # update baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import bench_rng  # noqa: E402

from repro.core.problem import Problem  # noqa: E402
from repro.heuristics import HEURISTIC_FACTORIES  # noqa: E402
from repro.obs import NullTracer, RecordingTracer  # noqa: E402
from repro.obs.analyze import attribute_events  # noqa: E402
from repro.sim import run_heuristic  # noqa: E402
from repro.topology import random_graph  # noqa: E402
from repro.workloads import single_file  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

LABEL = "attribution/n=1000"
HEURISTIC = "local"
N_VERTICES = 1000
FILE_TOKENS = 50

#: The engine's disabled-tracing path may slow by at most this much.
HOT_PATH_TOLERANCE = 0.02

#: The committed run/attribute ratio may halve before --check fails
#: (attribution finishes in ~1s, so the ratio is as noisy as the
#: sub-second vector-path pairs gated at the same factor).
BUDGET_TOLERANCE = 0.5


def case_problem() -> Problem:
    """The n=10^3 workload, label-seeded like every engine_perf case."""
    return single_file(
        random_graph(N_VERTICES, bench_rng(f"attribution_overhead/{LABEL}")),
        file_tokens=FILE_TOKENS,
    )


def check_hot_path(problem: Problem, repeats: int) -> int:
    """Gate 1: default run vs NullTracer run, noise-robust minimum.

    The two variants run back-to-back within each repeat, alternating
    order so neither side systematically pays the cold-cache sample.
    The gate keeps the *smallest* of two statistics — the best paired
    ratio (any single clean repeat proves the code paths equal) and the
    ratio of per-side minima (each side's best sample converges to its
    true cost) — because shared-machine noise inflates samples but
    cannot deflate a whole measurement: a real leak inflates every
    repeat and both statistics with it.
    """
    times: Dict[bool, list] = {False: [], True: []}
    pair_ratios = []
    base = null = None
    for repeat in range(max(repeats, 5)):
        order = (False, True) if repeat % 2 == 0 else (True, False)
        elapsed = {}
        for with_null in order:
            t0 = time.perf_counter()
            result = run_heuristic(
                problem,
                HEURISTIC_FACTORIES[HEURISTIC](),
                seed=1,
                tracer=NullTracer() if with_null else None,
            )
            elapsed[with_null] = time.perf_counter() - t0
            times[with_null].append(elapsed[with_null])
            if with_null:
                null = result
            else:
                base = result
        pair_ratios.append(elapsed[True] / elapsed[False])
    assert base is not None and null is not None
    if null.schedule != base.schedule:
        raise AssertionError(f"{LABEL}: tracer choice perturbed the schedule")
    overhead = (
        min(min(pair_ratios), min(times[True]) / min(times[False])) - 1.0
    )
    status = "ok" if overhead <= HOT_PATH_TOLERANCE else "OVERHEAD"
    print(
        f"{LABEL}: disabled-tracing overhead {overhead:+.1%} "
        f"(limit {HOT_PATH_TOLERANCE:.0%}) -> {status}"
    )
    return 0 if overhead <= HOT_PATH_TOLERANCE else 1


def measure_budget(problem: Problem, repeats: int) -> Dict[str, object]:
    """Gate 2's measurement: best-of-N run wall vs attribution wall."""
    best_run = best_attr = float("inf")
    entry: Dict[str, object] = {}
    for _ in range(repeats):
        tracer = RecordingTracer()
        t0 = time.perf_counter()
        result = run_heuristic(
            problem, HEURISTIC_FACTORIES[HEURISTIC](), seed=1, tracer=tracer
        )
        t_run = time.perf_counter() - t0
        t0 = time.perf_counter()
        report = attribute_events(tracer.events)
        t_attr = time.perf_counter() - t0
        (attribution,) = report.runs
        if attribution.makespan != result.schedule.makespan:
            raise AssertionError(
                f"{LABEL}: attribution disagrees with the engine "
                f"({attribution.makespan} vs {result.schedule.makespan})"
            )
        if attribution.path.length != attribution.makespan:
            raise AssertionError(f"{LABEL}: critical path does not tile the run")
        best_run = min(best_run, t_run)
        best_attr = min(best_attr, t_attr)
        entry = {
            "moves": result.schedule.bandwidth,
            "timesteps": result.schedule.makespan,
            "old_engine": "vector+tracer",
            "new_engine": "trace-attribute",
            "run_ms": round(best_run * 1e3, 1),
            "attribute_ms": round(best_attr * 1e3, 1),
            "speedup": round(best_run / best_attr, 3),
        }
    print(
        f"{LABEL}: run {entry['run_ms']}ms, attribute {entry['attribute_ms']}ms "
        f"-> ratio {entry['speedup']}x"
    )
    return entry


def _load_baseline() -> Tuple[dict, Dict[str, dict]]:
    data = json.loads(BASELINE_PATH.read_text())
    return data, data["cases"]


def write_entry(entry: Dict[str, object]) -> None:
    data, cases = _load_baseline()
    cases[LABEL] = entry
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {LABEL} into {BASELINE_PATH}")


def check_entry(entry: Dict[str, object]) -> int:
    _data, cases = _load_baseline()
    committed = cases.get(LABEL)
    if committed is None:
        print(f"{LABEL}: no committed baseline; run with --write first")
        return 2
    floor = float(committed["speedup"]) * BUDGET_TOLERANCE
    observed = float(entry["speedup"])
    status = "ok" if observed >= floor else "REGRESSION"
    print(
        f"{LABEL}: committed {committed['speedup']}x, observed {observed}x, "
        f"floor {floor:.3f}x -> {status}"
    )
    return 0 if observed >= floor else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check",
        action="store_true",
        help="also gate the run/attribute ratio against the committed "
        f"BENCH_engine.json entry (fail below {BUDGET_TOLERANCE:.0%} of it)",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"update the {LABEL!r} entry in BENCH_engine.json",
    )
    args = parser.parse_args()
    problem = case_problem()
    rc = check_hot_path(problem, args.repeats)
    entry = measure_budget(problem, args.repeats)
    if args.write:
        write_entry(entry)
    elif args.check:
        rc = max(rc, check_entry(entry))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
