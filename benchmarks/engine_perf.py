"""Engine perf harness: the frozen reference against the live engine.

Measures moves/second (schedule bandwidth over wall time, best-of-N) for
both sides of every case on identical workloads and records them in
``BENCH_engine.json`` at the repo root.  The old side is the frozen
pre-kernel loop and ``propose`` bodies (``reference``,
:mod:`repro.sim.reference`); the new side is :class:`repro.sim.Engine`
running the heuristic on its ``propose_vector`` path (``vector``), the
only path Round-Robin, Random and Local have:

* ``local/n<=200`` and ``random/n=150`` are the original incremental
  kernel workloads on the paper's [3, 15] capacities;
* ``round_robin/n>=1000`` and ``local/n>=1000`` are large enough for
  array ops to pay.  The Round-Robin vector lap is a fixed number of
  whole-array passes (one k-th-set-bit select per cursor-advancing
  arc).  The local-rarest vector path is RNG-bound: it draws the
  engine RNG directly in the reference's order, so its speedup is
  bounded by the shared shuffle/draw cost (docs/MODEL.md §8).  The big
  local cases use many-token files on unit-capacity arcs on sparse
  paper-probability overlays: that is the regime the vector screen is
  built for (supplier bitmasks built in bulk, request budgets
  exhausting early, so the draw loop visits only the suppliers with
  budget left).

Instances are seeded from the *case label* (``bench_rng`` on
``engine_perf/<label>``), never from the engine side, so both sides of
every pair run the exact same workload.  Both sides' schedules are
asserted identical before any number is recorded.

Because both implementations are timed in the same process on the same
machine, their *ratio* (the speedup) is machine-independent enough to
gate in CI: ``--check`` re-measures and fails when any case's speedup
drops below its tolerance of the committed baseline (75% for the
original kernel workloads, 50% for the rest) — i.e. someone has slowed
the live path down relative to the known-equivalent frozen one.

Usage::

    PYTHONPATH=src python benchmarks/engine_perf.py            # rewrite baseline
    PYTHONPATH=src python benchmarks/engine_perf.py --cases local/n=1000  # one entry
    PYTHONPATH=src python benchmarks/engine_perf.py --check    # CI regression gate
    PYTHONPATH=src python benchmarks/engine_perf.py --check --cases round_robin
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import bench_rng, best_times  # noqa: E402

from repro.core.problem import Problem  # noqa: E402
from repro.heuristics import HEURISTIC_FACTORIES  # noqa: E402
from repro.sim import RunResult, run_heuristic  # noqa: E402
from repro.sim.reference import (  # noqa: E402
    make_reference_heuristic,
    reference_run_heuristic,
)
from repro.topology import random_graph, sparse_random_graph  # noqa: E402
from repro.topology.weights import unit_capacity  # noqa: E402
from repro.workloads import single_file  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: The committed speedup may shrink this much before --check fails.
REGRESSION_TOLERANCE = 0.75

#: Floor factor for the large cases: their vector side finishes in
#: fractions of a second, so allocator and cache state move their ratio
#: by 2-3x more than the original pairs'.
VECTOR_REGRESSION_TOLERANCE = 0.5

#: The old and the new engine side of every case (:func:`side_runner`).
ENGINE_SIDES = ("reference", "vector")


@dataclass(frozen=True)
class BenchCase:
    """One paired workload: the new side is gated against the old."""

    heuristic: str
    n: int
    file_tokens: int
    #: The fraction of the committed speedup --check requires.
    tolerance: float = REGRESSION_TOLERANCE
    #: Draw the instance with the O(edges) Batagelj–Brandes sampler
    #: (required beyond a few thousand vertices, where per-pair G(n, p)
    #: sampling alone would dwarf the simulation).
    sparse: bool = False
    #: Per-case override of the best-of-N repeat count.
    repeats: Optional[int] = None
    #: Draw every arc with capacity 1 instead of the paper's [3, 15]
    #: range.  The big local cases use this: unit budgets exhaust after
    #: one grant per arc, which is the regime where the vector screen's
    #: early exhaustion pays most.
    unit_caps: bool = False


CASES: Dict[str, BenchCase] = {
    # The original incremental kernel workloads.
    "local/n=50": BenchCase("local", 50, 50),
    "local/n=100": BenchCase("local", 100, 50),
    "local/n=200": BenchCase("local", 200, 50),
    "random/n=150": BenchCase("random", 150, 60),
    # Round-Robin's vector lap; at these sizes the reference's per-arc
    # Python lap dominates its run.
    "round_robin/n=1000": BenchCase(
        "round_robin", 1000, 50, tolerance=VECTOR_REGRESSION_TOLERANCE
    ),
    "round_robin/n=10000": BenchCase(
        "round_robin", 10000, 50, tolerance=VECTOR_REGRESSION_TOLERANCE
    ),
    # RNG-bound vector paths: the local-rarest assignment loop drawing
    # the engine RNG in the reference's order, on sparse
    # paper-probability overlays with many-token files and unit arcs.
    "local/n=1000": BenchCase(
        "local",
        1000,
        256,
        tolerance=VECTOR_REGRESSION_TOLERANCE,
        sparse=True,
        unit_caps=True,
    ),
    "local/n=10000": BenchCase(
        "local",
        10000,
        256,
        tolerance=VECTOR_REGRESSION_TOLERANCE,
        sparse=True,
        repeats=2,
        unit_caps=True,
    ),
}


def case_problem(label: str, case: BenchCase) -> Problem:
    """The case's workload, seeded from its label only.

    The engine side never feeds the seed, so every side of a pair
    simulates the identical instance.
    """
    sampler = sparse_random_graph if case.sparse else random_graph
    kwargs = {}
    if case.unit_caps:
        kwargs["capacity"] = unit_capacity
    return single_file(
        sampler(case.n, bench_rng(f"engine_perf/{label}"), **kwargs),
        file_tokens=case.file_tokens,
    )


def side_runner(
    side: str, problem: Problem, heuristic: str
) -> Callable[[], RunResult]:
    if side == "reference":
        return lambda: reference_run_heuristic(
            problem, make_reference_heuristic(heuristic), seed=1
        )
    return lambda: run_heuristic(problem, HEURISTIC_FACTORIES[heuristic](), seed=1)


def select_cases(case_filter: Optional[str]) -> Dict[str, BenchCase]:
    terms = case_filter.split(",") if case_filter else []
    if terms and all(term in CASES for term in terms):
        # Exact labels beat substrings ("n=1000" is a substring of
        # "n=10000", so exact selection must win).
        selected = {term: CASES[term] for term in terms}
    else:
        selected = {
            label: case
            for label, case in CASES.items()
            if not terms or any(term in label for term in terms)
        }
    if not selected:
        raise SystemExit(f"no benchmark case matches {case_filter!r}")
    return selected


def _step_sends(timestep):
    """``{arc: mask}`` of one timestep, without materializing lazy
    vector timesteps into TokenSet dicts (the n=10^4 cases would pay
    hundreds of megabytes for a comparison that only needs the raw
    masks).

    A mapping, not an ordered list: the frozen reference oracle
    predates the kernel's send-order conventions (Local inserts in
    grant order there), so pairs agree on *which* sends each step
    makes, not on enumeration order.  The send order rule is pinned by
    ``tests/sim/test_batch_equivalence.py``.
    """
    stream = getattr(timestep, "iter_sends_masks", None)
    if stream is not None:
        return dict(stream())
    return {key: tokens.mask for key, tokens in timestep.sends.items()}


def schedules_equal(a, b) -> bool:
    """Step-by-step send equality, streamed from lazy timesteps."""
    if len(a.steps) != len(b.steps):
        return False
    return all(
        _step_sends(sa) == _step_sends(sb) for sa, sb in zip(a.steps, b.steps)
    )


def measure(
    repeats: int, case_filter: Optional[str] = None
) -> Dict[str, Dict[str, object]]:
    cases: Dict[str, Dict[str, object]] = {}
    old_side, new_side = ENGINE_SIDES
    for label, case in select_cases(case_filter).items():
        reps = case.repeats if case.repeats is not None else repeats
        problem = case_problem(label, case)
        (t_new, t_old), (new, old) = best_times(
            [
                side_runner(new_side, problem, case.heuristic),
                side_runner(old_side, problem, case.heuristic),
            ],
            reps,
        )
        if not schedules_equal(old.schedule, new.schedule):
            raise AssertionError(
                f"{label}: {old_side} and {new_side} engines disagree "
                f"({old.schedule.bandwidth} vs {new.schedule.bandwidth} moves)"
            )
        moves = new.schedule.bandwidth
        cases[label] = {
            "moves": moves,
            "timesteps": new.schedule.makespan,
            "old_engine": old_side,
            "new_engine": new_side,
            "old_moves_per_sec": round(moves / t_old),
            "new_moves_per_sec": round(moves / t_new),
            "speedup": round(t_old / t_new, 2),
        }
        print(
            f"{label}: {moves} moves, {old_side} {moves / t_old / 1e3:.0f}k mv/s, "
            f"{new_side} {moves / t_new / 1e3:.0f}k mv/s, "
            f"speedup {t_old / t_new:.2f}x"
        )
    return cases


def write_baseline(repeats: int, case_filter: Optional[str] = None) -> None:
    measured = measure(repeats, case_filter)
    cases: Dict[str, Dict[str, object]] = {}
    if BASELINE_PATH.exists():
        # Committed entries keep their place; those not re-measured
        # (unselected cases, and entries owned by other harnesses such
        # as benchmarks/attribution_overhead.py) survive regeneration
        # as they are.
        previous = json.loads(BASELINE_PATH.read_text())["cases"]
        for label, entry in previous.items():
            cases[label] = measured.get(label, entry)
            if label not in measured:
                print(f"{label}: kept committed entry")
    cases.update(measured)
    payload = {
        "_comment": (
            "Engine throughput: per-case old-vs-new engine pairs (frozen "
            "reference vs the SimState kernel's vector proposal path), "
            "best-of-N wall time on identical label-seeded workloads. "
            "Regenerate with: PYTHONPATH=src python benchmarks/engine_perf.py"
        ),
        "repeats": repeats,
        "cases": cases,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")


def check_against_baseline(repeats: int, case_filter: Optional[str]) -> int:
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run without --check first")
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())["cases"]
    measured = measure(repeats, case_filter)
    failures = []
    for label, observed_entry in measured.items():
        if label not in baseline:
            print(f"{label}: no committed baseline; regenerate BENCH_engine.json")
            failures.append(label)
            continue
        committed = baseline[label]["speedup"]
        observed = observed_entry["speedup"]
        floor = committed * CASES[label].tolerance
        status = "ok" if observed >= floor else "REGRESSION"
        print(
            f"{label}: committed {committed:.2f}x, observed {observed:.2f}x, "
            f"floor {floor:.2f}x -> {status}"
        )
        if observed < floor:
            failures.append(label)
    if failures:
        print(f"speedup regression in: {', '.join(failures)}")
        return 1
    print("all cases within tolerance")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh measurement against the committed baseline "
        "(fail below each case's tolerance of the committed speedup: "
        f"{REGRESSION_TOLERANCE:.0%} or {VECTOR_REGRESSION_TOLERANCE:.0%})",
    )
    parser.add_argument(
        "--cases",
        metavar="SUBSTRING",
        default=None,
        help="only run cases whose label contains SUBSTRING "
        "(comma-separated alternatives; exact labels win over substrings); "
        "when rewriting the baseline, other committed entries are kept",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="best-of-N timing repeats per case (default 5)",
    )
    args = parser.parse_args()
    if args.check:
        return check_against_baseline(args.repeats, args.cases)
    write_baseline(args.repeats, args.cases)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
