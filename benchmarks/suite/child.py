"""One workload in one fresh process: set up, measure, check, report.

``run.py`` starts this script, writes one JSON object (built by its
``run_workload``) to its standard input and reads the JSON object it
prints as its last line.

The clock for ``setup_s`` starts in the parent, just before it spawns
this process, so set-up covers interpreter start, imports and instance
generation.  The measurement is a closed loop: operation ``k + 1``
starts when operation ``k`` and its checks are done, until the next one
would end past the time budget.  Checks and digests run after the timer
stops.  With tracing on, half the budget runs the plain operations and
half their traced replays, over the same inputs, so the two can be
compared operation by operation.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List

from spans import Spans, check_nesting, count_totals, layer_totals

ROOT = Path(__file__).resolve().parents[2]

#: Layers whose self time is reported; time in any other span (the
#: operation itself, the executor, an engine's own loop) is unattributed.
REPORTED_LAYERS = (
    "topology.gen",
    "workloads.build",
    "core.bounds",
    "core.pruning",
    "heuristics.select",
    "sim.apply",
    "locd.decide",
    "locd.flood",
    "obs.emit",
    "obs.analyze.read",
    "obs.analyze.validate",
    "obs.analyze.attribute",
    "obs.analyze.forest",
    "obs.analyze.blocking",
    "obs.analyze.critical_path",
    "obs.analyze.slack",
)

#: Parts of attribution the traced run calls again on their own, to
#: split ``attribute_events``; the plain operation does not, so they are
#: left out of the tracing overhead.
RETIMED_LAYERS = (
    "obs.analyze.forest",
    "obs.analyze.blocking",
    "obs.analyze.critical_path",
    "obs.analyze.slack",
)

#: Operations whose output digests are recorded for the default seed.
DIGEST_OPS = 4

#: Layers whose time happens in set-up for some workloads (instances
#: built once) and inside operations for others (the sweeps).
SETUP_LAYERS = ("topology.gen", "workloads.build")


def measure(
    workload: Any,
    seconds: float,
    traced: bool,
    expected: Dict[str, str],
    record: bool,
) -> List[Dict[str, Any]]:
    """Run operations back to back for ``seconds``; one dict per operation."""
    ops: List[Dict[str, Any]] = []
    iterations: List[float] = []
    k = 0
    while True:
        began = checked = time.monotonic()
        op: Dict[str, Any] = {"k": k, "failures": []}
        try:
            if traced:
                spans = Spans()
                with spans.span("op") as root:
                    out = workload.run_traced(k, spans)
                op["wall"] = root["end"] - root["start"]
                op["spans"] = spans.records
            else:
                t0 = time.monotonic()
                out = workload.run(k)
                op["wall"] = time.monotonic() - t0
            op["moves"] = out["moves"]
            op["failures"] += workload.check(k, out)
            op["summary"] = workload.summary(out)
            for key in ("point_walls", "trace_events", "trace_bytes"):
                if key in out:
                    op[key] = out[key]
            checked = time.monotonic()
            if (record and k < DIGEST_OPS) or str(k) in expected:
                op["digest"] = workload.digest(out)
                if not record and op["digest"] != expected[str(k)]:
                    op["failures"].append(
                        f"operation {k}: output digest {op['digest'][:12]} does "
                        f"not match the expected {expected[str(k)][:12]}"
                    )
            del out
        except Exception:  # noqa: BLE001 — counted as a failed operation
            op.setdefault("wall", time.monotonic() - began)
            op["failures"].append(traceback.format_exc())
            checked = time.monotonic()
        for failure in op["failures"][:3]:
            print(f"[{workload.name}] op {k}: {failure}", file=sys.stderr)
        ops.append(op)
        # Digests are not part of the budget: with the default seed they
        # would otherwise crowd out operations on the large workloads.
        iterations.append(checked - began)
        k += 1
        if sum(iterations) + statistics.median(iterations) > seconds:
            return ops


def end_to_end(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over operations, so one hard instance cannot move them."""
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": statistics.median(op["wall"] for op in ops),
        "moves_per_s": statistics.median(op.get("moves", 0) / op["wall"] for op in ops),
        "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
    }


def per_layer(
    ops: List[Dict[str, Any]],
    plain: List[Dict[str, Any]],
    setup_spans: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Per-operation layer self times and counts of the traced run."""
    ops = [op for op in ops if "spans" in op]
    if not ops:
        raise RuntimeError("no traced operation completed")
    n = len(ops)
    seconds: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for op in ops:
        totals = layer_totals(op["spans"])
        for layer, value in totals.items():
            seconds[layer] += value / n
        for name, value in count_totals(op["spans"]).items():
            counts[name] += value / n
        op["retimed"] = sum(totals.get(layer, 0.0) for layer in RETIMED_LAYERS)
    setup = layer_totals(setup_spans)
    wall = sum(op["wall"] for op in ops) / n
    layers = {layer: seconds.get(layer, 0.0) for layer in REPORTED_LAYERS}
    unattributed = wall - sum(layers.values())
    for layer in SETUP_LAYERS:
        layers[layer] += setup.get(layer, 0.0)

    point_walls = sorted(w for op in ops for w in op.get("point_walls", []))
    pairs = [
        (t["wall"] - t["retimed"]) / p["wall"] for t, p in zip(ops, plain) if p["wall"] > 0
    ]

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    # attribute_events validates, builds forests, tables blocking, finds
    # critical paths and slack, and evaluates the bound curve; the last
    # is what remains after the parts timed on their own.
    parts = ("validate", "forest", "blocking", "critical_path", "slack")
    attribute = layers["obs.analyze.attribute"]
    bound_curve = 0.0
    if attribute:
        bound_curve = attribute - sum(layers[f"obs.analyze.{p}"] for p in parts)
    metrics = {
        "core.bounds.s": layers["core.bounds"],
        "core.bounds.calls": counts["core.bounds.calls"],
        "core.pruning.s": layers["core.pruning"],
        "core.pruning.useful_frac": ratio("core.pruning.kept", "core.pruning.moves"),
        "heuristics.select_s": layers["heuristics.select"],
        "heuristics.select_calls": counts["heuristics.select_calls"],
        "sim.apply_s": layers["sim.apply"],
        "sim.steps": counts["sim.steps"],
        "sim.moves": counts["sim.moves"],
        "sim.useful_frac": ratio("sim.deficit", "sim.moves"),
        "locd.decide_s": layers["locd.decide"],
        "locd.flood_s": layers["locd.flood"],
        "locd.facts_learned": counts["locd.facts_learned"],
        "obs.emit_s": layers["obs.emit"],
        "obs.events": sum(op.get("trace_events", 0) for op in ops) / n,
        "obs.trace_bytes": sum(op.get("trace_bytes", 0) for op in ops) / n,
        **{f"obs.analyze.{p}_s": layers[f"obs.analyze.{p}"] for p in ("read", *parts)},
        "obs.analyze.attribute_s": attribute,
        "obs.analyze.bound_curve_s": bound_curve,
        "experiments.sweep.points": counts["experiments.sweep.points"],
        "experiments.sweep.point_s_p50": statistics.median(point_walls)
        if point_walls
        else 0.0,
        "experiments.sweep.point_s_max": max(point_walls, default=0.0),
        "experiments.sweep.worker_idle_s": counts["experiments.sweep.worker_idle_s"],
        "topology.gen_s": layers["topology.gen"],
        "workloads.build_s": layers["workloads.build"],
        "unattributed_s": unattributed,
        "trace_overhead_frac": statistics.median(pairs) - 1.0 if pairs else 0.0,
    }
    return {
        "metrics": metrics,
        "wall": wall,
        "plain_wall": sum(op["wall"] for op in plain) / len(plain),
        "retimed_s": sum(op["retimed"] for op in ops) / n,
        "self_s": {layer: seconds.get(layer, 0.0) for layer in REPORTED_LAYERS},
        "unattributed_s": unattributed,
    }


def main() -> int:
    cfg = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{cfg['workload']}-", dir=tmp_root)
    try:
        setup_spans = Spans()
        workload = workloads.WORKLOADS[cfg["workload"]](
            cfg["seed"], cfg["size"], tmp, setup_spans
        )
        report: Dict[str, Any] = {"setup_s": time.monotonic() - cfg["started"]}
        if cfg["setup_only"]:
            print(json.dumps(report))
            return 0
        expected = cfg["digests"] or {}
        record = cfg["record_digests"]
        if not cfg["trace"]:
            ops = measure(workload, cfg["seconds"], False, expected, record)
            report["metrics"] = end_to_end(ops)
            runs = ops
        else:
            plain = measure(workload, cfg["seconds"] / 2, False, expected, record)
            ops = measure(workload, cfg["seconds"] / 2, True, expected, record)
            for op, base in zip(ops, plain):
                if "summary" in op and op["summary"] != base.get("summary"):
                    op["failures"].append(
                        f"operation {op['k']}: the traced replay's outputs differ "
                        "from the operation's"
                    )
            for op in ops:
                problems = check_nesting(op.get("spans", []))
                op["failures"] += problems[:3]
            report.update(per_layer(ops, plain, setup_spans.records))
            if cfg["spans_out"]:
                Path(cfg["spans_out"]).parent.mkdir(parents=True, exist_ok=True)
                payload = {
                    "setup": setup_spans.records,
                    "ops": [op.get("spans", []) for op in ops],
                }
                Path(cfg["spans_out"]).write_text(json.dumps(payload))
            runs = plain + ops
        report["attempted"] = len(runs)
        report["failed"] = sum(1 for op in runs if op["failures"])
        report["walls"] = [op["wall"] for op in ops]
        if record:
            report["digests"] = {str(op["k"]): op["digest"] for op in ops if "digest" in op}
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
