"""Gate: attribution stays on budget relative to the run it explains.

The causal-attribution layer (``repro.obs.analyze.causal`` /
``attribution``) is post-hoc by design — it replays finished traces.
That it costs the *engine* nothing while tracing is off is a test, not
a timing: ``tests/obs/test_tracer.py::TestNoOpEquivalence`` runs every
driver under a disabled tracer that fails on any event.

**Attribution budget (n=10^3).**  Wall time of
:func:`~repro.obs.analyze.attribute_events` over the recorded trace,
expressed as the machine-robust ratio ``run_wall / attribute_wall``
and recorded in ``BENCH_engine.json`` under ``attribution/n=1000``
(the ``speedup`` field, like every other case).  ``--check``
re-measures and fails when the ratio falls below half the committed
value — i.e. attribution got twice as expensive relative to the run
it explains.

Usage::

    PYTHONPATH=src python benchmarks/attribution_overhead.py            # measure only
    PYTHONPATH=src python benchmarks/attribution_overhead.py --check    # + baseline gate
    PYTHONPATH=src python benchmarks/attribution_overhead.py --write    # update baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import bench_rng, best_times  # noqa: E402

from repro.core.problem import Problem  # noqa: E402
from repro.heuristics import HEURISTIC_FACTORIES  # noqa: E402
from repro.obs import RecordingTracer  # noqa: E402
from repro.obs.analyze import attribute_events  # noqa: E402
from repro.sim import RunResult, run_heuristic  # noqa: E402
from repro.topology import random_graph  # noqa: E402
from repro.workloads import single_file  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

LABEL = "attribution/n=1000"
HEURISTIC = "local"
N_VERTICES = 1000
FILE_TOKENS = 50

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


def measure_budget(problem: Problem, repeats: int) -> Dict[str, object]:
    """The gate's measurement: best-of-N run wall vs attribution wall.

    The traced run and the attribution of its events take turns
    (:func:`conftest.best_times`); one untimed run first supplies the
    events, which every run reproduces.
    """

    def traced_run() -> Tuple[RunResult, RecordingTracer]:
        tracer = RecordingTracer()
        heuristic = HEURISTIC_FACTORIES[HEURISTIC]()
        return run_heuristic(problem, heuristic, seed=1, tracer=tracer), tracer

    events = traced_run()[1].events
    (t_run, t_attr), ((result, _tracer), report) = best_times(
        [traced_run, lambda: attribute_events(events)], repeats
    )
    (attribution,) = report.runs
    if attribution.makespan != result.schedule.makespan:
        raise AssertionError(
            f"{LABEL}: attribution disagrees with the engine "
            f"({attribution.makespan} vs {result.schedule.makespan})"
        )
    if attribution.path.length != attribution.makespan:
        raise AssertionError(f"{LABEL}: critical path does not tile the run")
    entry: Dict[str, object] = {
        "moves": result.schedule.bandwidth,
        "timesteps": result.schedule.makespan,
        "old_engine": "vector+tracer",
        "new_engine": "trace-attribute",
        "run_ms": round(t_run * 1e3, 1),
        "attribute_ms": round(t_attr * 1e3, 1),
        "speedup": round(t_run / t_attr, 3),
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
    entry = measure_budget(case_problem(), args.repeats)
    if args.write:
        write_entry(entry)
    elif args.check:
        return check_entry(entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
