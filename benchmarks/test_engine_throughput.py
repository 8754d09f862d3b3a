"""Raw simulator throughput — how the engine scales with instance size.

Not a paper figure; operational benchmarks for the library itself.
Reported as moves/second by pytest-benchmark; the assertions only check
the work was done (throughput numbers are machine-dependent).
"""

import pytest
from conftest import bench_rng

from repro.heuristics import LocalRarestHeuristic, RandomHeuristic
from repro.sim import run_heuristic
from repro.topology import random_graph
from repro.workloads import single_file


@pytest.mark.parametrize("n", [50, 100, 200])
def test_local_rarest_throughput(benchmark, n):
    topo = random_graph(n, bench_rng("engine_throughput/local_rarest"))
    problem = single_file(topo, file_tokens=50)

    result = benchmark.pedantic(
        lambda: run_heuristic(problem, LocalRarestHeuristic(), seed=1),
        rounds=1,
        iterations=1,
    )
    assert result.success
    benchmark.extra_info["moves"] = result.bandwidth
    benchmark.extra_info["timesteps"] = result.makespan


def test_random_heuristic_throughput(benchmark):
    topo = random_graph(150, bench_rng("engine_throughput/random"))
    problem = single_file(topo, file_tokens=60)

    result = benchmark.pedantic(
        lambda: run_heuristic(problem, RandomHeuristic(), seed=1),
        rounds=1,
        iterations=1,
    )
    assert result.success
    benchmark.extra_info["moves"] = result.bandwidth


def test_schedule_validation_throughput(benchmark):
    """The Theorem 3 verifier on a real mid-size schedule."""
    topo = random_graph(120, bench_rng("engine_throughput/validate"))
    problem = single_file(topo, file_tokens=40)
    schedule = run_heuristic(problem, LocalRarestHeuristic(), seed=2).schedule

    history = benchmark(lambda: schedule.validate(problem))
    assert len(history) == schedule.makespan + 1


# ----------------------------------------------------------------------
# Committed perf baseline (BENCH_engine.json, written by engine_perf.py)
# ----------------------------------------------------------------------
def _baseline():
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    return json.loads(path.read_text())


def test_committed_baseline_covers_every_perf_case():
    """BENCH_engine.json must stay in sync with engine_perf.CASES so the
    CI regression gate (engine_perf.py --check) exercises all of them.
    The one other entry is attribution_overhead.py's, which
    engine_perf.write_baseline keeps on regeneration."""
    from attribution_overhead import LABEL as ATTRIBUTION_LABEL
    from engine_perf import CASES, ENGINE_SIDES

    baseline = _baseline()
    assert set(baseline["cases"]) == set(CASES) | {ATTRIBUTION_LABEL}
    for label, entry in baseline["cases"].items():
        if label == ATTRIBUTION_LABEL:
            continue
        case = CASES[label]
        assert entry["moves"] > 0, label
        assert entry["old_moves_per_sec"] > 0, label
        assert entry["new_moves_per_sec"] > 0, label
        assert entry["speedup"] > 0, label
        assert entry["old_engine"] == case.old, label
        assert entry["new_engine"] == case.new, label
        assert entry["old_engine"] in ENGINE_SIDES, label
        assert entry["new_engine"] in ENGINE_SIDES, label
    entry = baseline["cases"][ATTRIBUTION_LABEL]
    assert entry["moves"] > 0
    assert entry["timesteps"] > 0
    assert entry["old_engine"] == "vector+tracer"
    assert entry["new_engine"] == "trace-attribute"
    assert entry["run_ms"] > 0
    assert entry["attribute_ms"] > 0
    # speedup is run/attribute wall time, from the unrounded timings.
    assert entry["speedup"] == pytest.approx(
        entry["run_ms"] / entry["attribute_ms"], abs=0.01
    )


def test_committed_speedup_meets_incremental_kernel_target():
    """The incremental kernel's acceptance bar: >= 3x moves/sec over the
    frozen pre-kernel reference on the n=200 local-rarest workload."""
    baseline = _baseline()
    assert baseline["cases"]["local/n=200"]["speedup"] >= 3.0


def test_committed_speedup_meets_vector_path_target():
    """The vector path's acceptance bar: >= 3x moves/sec over the
    kernel's scalar path on the n=10^4 round-robin workload."""
    baseline = _baseline()
    entry = baseline["cases"]["round_robin/n=10000"]
    assert entry["old_engine"] == "scalar"
    assert entry["new_engine"] == "vector"
    assert entry["speedup"] >= 3.0
