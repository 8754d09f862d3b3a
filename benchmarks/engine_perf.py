"""Engine perf harness: paired old-vs-new engine runs per case.

Measures moves/second (schedule bandwidth over wall time, best-of-N) for
pairs of engine sides on identical workloads and records both sides in
``BENCH_engine.json`` at the repo root.  The sides are the frozen
pre-kernel loop (``reference``, :mod:`repro.sim.reference`) and the two
proposal paths of the one :class:`repro.sim.SimState` kernel:
``scalar`` (the heuristic's ``propose_vector`` hidden, so the engine
runs ``propose``) and ``vector`` (the engine's default for a heuristic
with ``propose_vector``).  Each case names its own pair:

* the original cases pit the incremental kernel's scalar path against
  the reference loop;
* the ``round_robin/n>=1000`` and ``local/n>=1000`` cases pit the
  vector path against the scalar path on workloads large enough for
  array ops to pay — including the RNG-bound local-rarest vector path
  (direct engine-RNG draws in scalar order, so its speedup is bounded
  by the shared shuffle/draw cost — see docs/MODEL.md §8) and a heavy
  ``round_robin/n=100000`` swarm case (sparse O(E) instances, measured
  with ``--heavy`` and recorded rather than gated).  The big local
  cases use many-token files on unit-capacity arcs: that is the regime
  the vector screen is built for (entry extraction dominates, request
  budgets exhaust early).

Instances are seeded from the *case label* (``bench_rng`` on
``engine_perf/<label>``), never from the engine side, so both sides of
every pair run the exact same workload.  Both sides' schedules are
asserted identical before any number is recorded.

Because both implementations are timed in the same process on the same
machine, their *ratio* (the speedup) is machine-independent enough to
gate in CI: ``--check`` re-measures and fails when any case's speedup
drops more than 25% below the committed baseline — i.e. someone has
slowed the new path down relative to the known-equivalent old one.

``--trace-overhead`` gates the observability layer instead: it times
the engine on its default disabled-tracing path against an explicitly
passed :class:`~repro.obs.NullTracer` (the identical code path, so the
comparison is machine-robust) and fails if the disabled path is more
than 2% slower — i.e. someone has put payload construction outside the
``if tracing:`` guard.  The slowdown with tracing fully enabled is
printed informationally.

Usage::

    PYTHONPATH=src python benchmarks/engine_perf.py            # rewrite baseline
    PYTHONPATH=src python benchmarks/engine_perf.py --check    # CI regression gate
    PYTHONPATH=src python benchmarks/engine_perf.py --check --cases round_robin
    PYTHONPATH=src python benchmarks/engine_perf.py --trace-overhead
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import bench_rng  # noqa: E402

from repro.core.problem import Problem  # noqa: E402
from repro.heuristics import HEURISTIC_FACTORIES, Heuristic  # noqa: E402
from repro.obs import NullTracer, RecordingTracer  # noqa: E402
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

#: Floor factor for vector-path cases: their fast side finishes in
#: fractions of a second, so the measured ratio is noisier (allocator
#: and cache state move it by 2-3x more than the reference pairs).
VECTOR_REGRESSION_TOLERANCE = 0.5

#: Max slowdown --trace-overhead tolerates for the disabled-tracing path.
TRACE_OVERHEAD_TOLERANCE = 0.02

#: Engine sides a case may pit against each other: the frozen pre-kernel
#: oracle, or one proposal path of the kernel (:func:`side_runner`).
ENGINE_SIDES = ("reference", "scalar", "vector")


@dataclass(frozen=True)
class BenchCase:
    """One paired workload: ``new`` is gated against ``old``."""

    heuristic: str
    n: int
    file_tokens: int
    old: str = "reference"
    new: str = "scalar"
    #: Draw the instance with the O(edges) Batagelj–Brandes sampler
    #: (required beyond a few thousand vertices, where per-pair G(n, p)
    #: sampling alone would dwarf the simulation).
    sparse: bool = False
    #: Heavy cases (minutes of scalar wall time) are excluded from
    #: default runs and ``--check``; select them exactly by label or
    #: pass ``--heavy``.  Their committed entries survive baseline
    #: regeneration without ``--heavy``.
    heavy: bool = False
    #: Per-case override of the best-of-N repeat count.
    repeats: Optional[int] = None
    #: Draw every arc with capacity 1 instead of the paper's [3, 15]
    #: range.  The big local cases use this: unit budgets exhaust after
    #: one grant per arc, which is the regime where the vector screen's
    #: early-exhaustion advantage over the scalar inversion is largest.
    unit_caps: bool = False

    @property
    def tolerance(self) -> float:
        if "vector" in (self.old, self.new):
            return VECTOR_REGRESSION_TOLERANCE
        return REGRESSION_TOLERANCE


CASES: Dict[str, BenchCase] = {
    # The incremental kernel's scalar path vs the frozen pre-kernel
    # reference.
    "local/n=50": BenchCase("local", 50, 50),
    "local/n=100": BenchCase("local", 100, 50),
    "local/n=200": BenchCase("local", 200, 50),
    "random/n=150": BenchCase("random", 150, 60),
    # The vector path vs the scalar path.  Round-robin is the vector-path
    # client; at these sizes the per-arc Python lap dominates the scalar
    # run.
    "round_robin/n=1000": BenchCase("round_robin", 1000, 50, "scalar", "vector"),
    "round_robin/n=10000": BenchCase(
        "round_robin", 10000, 50, "scalar", "vector"
    ),
    # RNG-bound vector paths: the local-rarest assignment loop drawing
    # the engine RNG in scalar order, vs its scalar twin, on sparse
    # paper-probability overlays with many-token files and unit arcs.
    "local/n=1000": BenchCase(
        "local", 1000, 256, "scalar", "vector", sparse=True, unit_caps=True
    ),
    "local/n=10000": BenchCase(
        "local",
        10000,
        256,
        "scalar",
        "vector",
        sparse=True,
        repeats=2,
        unit_caps=True,
    ),
    # The 10^5 swarm regime.  The scalar side alone takes minutes, so
    # the case is measured once and recorded, not gated per-push.
    "round_robin/n=100000": BenchCase(
        "round_robin",
        100000,
        50,
        "scalar",
        "vector",
        sparse=True,
        heavy=True,
        repeats=1,
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


def side_heuristic(side: str, heuristic: str) -> Heuristic:
    """A fresh ``heuristic`` for a kernel side: ``scalar`` hides its
    ``propose_vector``, so the engine runs ``propose``."""
    fresh = HEURISTIC_FACTORIES[heuristic]()
    if side == "scalar":
        fresh.propose_vector = None
    return fresh


def side_runner(
    side: str, problem: Problem, heuristic: str
) -> Callable[[], RunResult]:
    if side == "reference":
        return lambda: reference_run_heuristic(
            problem, make_reference_heuristic(heuristic), seed=1
        )
    return lambda: run_heuristic(problem, side_heuristic(side, heuristic), seed=1)


def select_cases(
    case_filter: Optional[str],
    include_heavy: bool = False,
) -> Dict[str, BenchCase]:
    terms = case_filter.split(",") if case_filter else []
    if terms and all(term in CASES for term in terms):
        # Exact labels beat substrings ("n=1000" is a substring of
        # "n=10000", so exact selection must win); exact selection also
        # opts into heavy cases.
        selected = {term: CASES[term] for term in terms}
    else:
        selected = {
            label: case
            for label, case in CASES.items()
            if (not terms or any(term in label for term in terms))
            and (include_heavy or not case.heavy)
        }
    if not selected:
        raise SystemExit(f"no benchmark case matches {case_filter!r}")
    return selected


def _best_times(
    fns: Sequence[Callable[[], RunResult]], repeats: int
) -> Tuple[List[float], List[RunResult]]:
    """Best-of-``repeats`` wall time of each of ``fns``, and its result.

    The runs go back to back in an order rotated on each repeat, so no
    side always runs first (cold caches) and a window of shared-machine
    noise lands on every side alike instead of on one side's repeats.
    """
    best = [float("inf")] * len(fns)
    results: list = [None] * len(fns)
    for repeat in range(repeats):
        for k in range(len(fns)):
            i = (repeat + k) % len(fns)
            results[i] = None  # free the last result outside the timed call
            t0 = time.perf_counter()
            result = fns[i]()
            best[i] = min(best[i], time.perf_counter() - t0)
            results[i] = result
    assert all(result is not None for result in results)
    return best, results


def _step_sends(timestep):
    """``{arc: mask}`` of one timestep, without materializing lazy
    vector timesteps into TokenSet dicts (the 10^5 cases would pay
    gigabytes for a comparison that only needs the raw masks).

    A mapping, not an ordered list: the frozen reference oracle
    predates the kernel's proposal-dict insertion-order conventions, so
    reference pairs agree on *which* sends each step makes, not on
    enumeration order.  Byte-level send order between the scalar and
    vector paths is pinned separately by the differential trace suite.
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
    repeats: int,
    case_filter: Optional[str] = None,
    include_heavy: bool = False,
) -> Dict[str, Dict[str, object]]:
    cases: Dict[str, Dict[str, object]] = {}
    for label, case in select_cases(case_filter, include_heavy).items():
        new_side = case.new
        reps = case.repeats if case.repeats is not None else repeats
        problem = case_problem(label, case)
        (t_new, t_old), (new, old) = _best_times(
            [
                side_runner(new_side, problem, case.heuristic),
                side_runner(case.old, problem, case.heuristic),
            ],
            reps,
        )
        if not schedules_equal(old.schedule, new.schedule):
            raise AssertionError(
                f"{label}: {case.old} and {new_side} engines disagree "
                f"({old.schedule.bandwidth} vs {new.schedule.bandwidth} moves)"
            )
        moves = new.schedule.bandwidth
        cases[label] = {
            "moves": moves,
            "timesteps": new.schedule.makespan,
            "old_engine": case.old,
            "new_engine": new_side,
            "old_moves_per_sec": round(moves / t_old),
            "new_moves_per_sec": round(moves / t_new),
            "speedup": round(t_old / t_new, 2),
        }
        print(
            f"{label}: {moves} moves, {case.old} {moves / t_old / 1e3:.0f}k mv/s, "
            f"{new_side} {moves / t_new / 1e3:.0f}k mv/s, "
            f"speedup {t_old / t_new:.2f}x"
        )
    return cases


def write_baseline(repeats: int, include_heavy: bool) -> None:
    cases = measure(repeats, include_heavy=include_heavy)
    if BASELINE_PATH.exists():
        previous = json.loads(BASELINE_PATH.read_text())["cases"]
        for label, entry in previous.items():
            if label in cases:
                continue
            if label not in CASES:
                # Entries owned by other harnesses (e.g. benchmarks/
                # attribution_overhead.py) must survive regeneration.
                cases[label] = entry
                print(f"{label}: kept entry owned by another harness")
            elif CASES[label].heavy and not include_heavy:
                # Heavy entries are measured rarely, with --heavy; keep
                # them instead of silently dropping them.
                cases[label] = entry
                print(f"{label}: kept committed entry (rerun with --heavy)")
    payload = {
        "_comment": (
            "Engine throughput: per-case old-vs-new engine pairs (frozen "
            "reference vs the SimState kernel's scalar path; scalar vs "
            "vector proposal path), best-of-N wall time on identical label-seeded "
            "workloads. Regenerate with: "
            "PYTHONPATH=src python benchmarks/engine_perf.py [--heavy]"
        ),
        "repeats": repeats,
        "cases": cases,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")


def check_against_baseline(
    repeats: int,
    case_filter: Optional[str],
    include_heavy: bool = False,
) -> int:
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run without --check first")
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())["cases"]
    measured = measure(repeats, case_filter, include_heavy)
    failures = []
    for label, observed_entry in measured.items():
        if label not in baseline:
            print(f"{label}: no committed baseline; regenerate BENCH_engine.json")
            failures.append(label)
            continue
        committed = baseline[label]["speedup"]
        observed = observed_entry["speedup"]
        tolerance = (
            CASES[label].tolerance if label in CASES else REGRESSION_TOLERANCE
        )
        floor = committed * tolerance
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


def check_trace_overhead(repeats: int, case_filter: Optional[str]) -> int:
    """Gate: a NullTracer-equipped run is as fast as the default run.

    Both sides execute the same instructions (``tracer.enabled`` is
    false either way and the engine hoists it once per run), so any
    measured gap beyond noise means event-payload work has leaked out
    of the ``if tracing:`` guard.  The full-tracing slowdown (in-memory
    :class:`RecordingTracer` sink) is reported but not gated — it is
    allowed to cost whatever faithful per-step events cost.  Runs on
    each case's *new*-side engine, so the vector cases also gate the
    vector path's tracing guard.
    """
    failures = []
    for label, case in select_cases(case_filter).items():
        if case.new == "reference":  # the frozen oracle has no tracer
            continue
        problem = case_problem(label, case)

        def run_with(tracer_factory) -> RunResult:
            return run_heuristic(
                problem,
                side_heuristic(case.new, case.heuristic),
                seed=1,
                tracer=tracer_factory() if tracer_factory else None,
            )

        # Best-of-N per variant in rotating order (_best_times).  Shared-
        # machine noise moves single samples both ways by several
        # percent, so neither one paired ratio nor one sample proves
        # anything; each variant's minimum converges to its true cost,
        # and a real leak raises the NullTracer variant's minimum.
        best, (base, null_run, full_run) = _best_times(
            [partial(run_with, tracer) for tracer in (None, NullTracer, RecordingTracer)],
            repeats,
        )
        for other in (null_run, full_run):
            if other.schedule != base.schedule:
                raise AssertionError(
                    f"{label}: tracer choice perturbed the schedule"
                )
        overhead = best[1] / best[0] - 1.0
        status = "ok" if overhead <= TRACE_OVERHEAD_TOLERANCE else "OVERHEAD"
        print(
            f"{label}: best of {repeats}: default {best[0] * 1e3:.1f}ms, "
            f"NullTracer {best[1] * 1e3:.1f}ms, full {best[2] * 1e3:.1f}ms; "
            f"disabled-tracing overhead {overhead:+.1%} "
            f"(limit {TRACE_OVERHEAD_TOLERANCE:.0%}) -> {status}; "
            f"full tracing {best[2] / best[0]:.2f}x [informational]"
        )
        if overhead > TRACE_OVERHEAD_TOLERANCE:
            failures.append(label)
    if failures:
        print(f"disabled-tracing overhead exceeded in: {', '.join(failures)}")
        return 1
    print("tracing disabled is free in all cases")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh measurement against the committed baseline "
        f"(fail below {REGRESSION_TOLERANCE:.0%} of the committed speedup)",
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="compare the default disabled-tracing path against an "
        "explicit NullTracer "
        f"(fail if slower by more than {TRACE_OVERHEAD_TOLERANCE:.0%})",
    )
    parser.add_argument(
        "--cases",
        metavar="SUBSTRING",
        default=None,
        help="only run cases whose label contains SUBSTRING "
        "(comma-separated alternatives; exact labels win over substrings)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="best-of-N timing repeats per case (default 5)",
    )
    parser.add_argument(
        "--heavy",
        action="store_true",
        help="include heavy cases (minutes of scalar wall time); they "
        "are otherwise skipped unless selected exactly by label",
    )
    args = parser.parse_args()
    if args.trace_overhead:
        return check_trace_overhead(args.repeats, args.cases)
    if args.check:
        return check_against_baseline(args.repeats, args.cases, args.heavy)
    if args.cases:
        parser.error("--cases only applies to --check / --trace-overhead "
                     "(the committed baseline must cover every case)")
    write_baseline(args.repeats, args.heavy)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
