"""End-to-end benchmark suite: four workloads, one fresh process each.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py                      # all four workloads
    python3 benchmarks/suite/run.py --workload fig2-n1000 --seed 7
    python3 benchmarks/suite/run.py --trace 1            # per-layer breakdown
    python3 benchmarks/suite/run.py --out runs.jsonl     # append results

Each workload runs in its own child process (``child.py``), one after
another.  The child sets up, then one closed-loop client issues
operations back to back for ``--seconds`` and checks every output.  Set
up is repeated in ``SETUPS`` fresh processes and ``setup_s`` is their
median.  With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``
are printed; with ``--trace 1`` the per-layer metrics, the layers'
shares of an operation and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every operation
passed its checks and 1 otherwise; set-up errors exit 2 without a
result.  Everything the suite writes stays inside the repository
(``.bench_tmp/`` while running, spans under ``.bench_out/``).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = SUITE / "digests.json"

DEFAULT_SEED = 20050518
#: Fresh processes timed for ``setup_s``; the last one also measures.
SETUPS = 5
SETUP_TIMEOUT_S = 60
#: Budget for one measuring child beyond its ``--seconds``.
CHILD_SLACK_S = 90


class SuiteError(RuntimeError):
    """The suite could not produce a result (not a failed operation)."""


def fingerprint() -> Dict[str, Any]:
    """The machine and toolchain a result was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
    }


def spawn(cfg: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run ``child.py`` with ``cfg``; return the JSON object it prints."""
    cfg = {**cfg, "started": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(SUITE / "child.py")],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(json.dumps(cfg), timeout=timeout)
    except BaseException:
        # A timeout or an interrupt: stop the child and its executor
        # workers (one process group), then wait for them.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SuiteError(
            f"{cfg['workload']}: child exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    digests = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        table = json.loads(Path(args.digests).read_text())
        digests = table.get(args.size, {}).get(name, {})
    cfg = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "digests": digests,
        "record_digests": args.record_digests,
        "spans_out": str(Path(args.spans_out) / f"spans-{name}-{args.seed}.json")
        if args.trace
        else None,
        "setup_only": True,
    }
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(spawn(cfg, SETUP_TIMEOUT_S)["setup_s"])
    result = spawn({**cfg, "setup_only": False}, args.seconds + CHILD_SLACK_S)
    setups.append(result["setup_s"])
    result["setup_walls"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def report(
    name: str, result: Dict[str, Any], spec: Dict[str, Any], args: argparse.Namespace
) -> Dict[str, Any]:
    """Print one workload's metrics; return them in the result-line form."""
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for metric in spec[section]:
        if metric["name"] not in result["metrics"]:
            raise SuiteError(f"{name}: no value for metric {metric['name']}")
        metrics[metric["name"]] = {
            "value": result["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
    fail_frac = result["failed"] / result["attempted"]
    print(
        f"{name}: seed {args.seed}, {result['attempted']} operations, "
        f"{result['failed']} failed (fail_frac {fail_frac:g})"
    )
    for metric_name, entry in metrics.items():
        print(f"  {metric_name:<34} {entry['value']:>14.6g} {entry['unit']}")
    if args.trace:
        wall = result["wall"]
        print(f"  self time per operation (traced wall {wall:.4f} s):")
        shares = sorted(result["self_s"].items(), key=lambda kv: -kv[1])
        for layer, seconds in shares:
            if seconds > 0:
                print(f"    {layer:<28} {seconds:>10.4f} s {seconds / wall:>7.1%}")
        unattributed = result["unattributed_s"]
        print(f"    {'unattributed':<28} {unattributed:>10.4f} s {unattributed / wall:>7.1%}")
        overhead = result["metrics"]["trace_overhead_frac"]
        retimed = result["retimed_s"]
        retimed_note = f" less {retimed:.4f} s re-timed attribution parts" if retimed else ""
        print(
            f"  tracing overhead: {overhead:+.1%} per operation (traced "
            f"{wall:.4f} s{retimed_note}, untraced {result['plain_wall']:.4f} s)"
        )
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measuring time per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON line per workload to this file")
    parser.add_argument(
        "--spans-out", default=str(ROOT / ".bench_out"),
        help="directory for the traced run's spans (default: .bench_out)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument(
        "--digests", default=str(DIGESTS),
        help="expected default-seed output digests (default: digests.json here)",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help="write the observed default-seed digests to --digests instead of checking",
    )
    args = parser.parse_args(argv)
    args.size = "smoke" if args.smoke else "full"
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("--record-digests records the default seed only")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = fingerprint()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    selected = [args.workload] if args.workload else names
    results = {}
    try:
        for name in selected:
            results[name] = run_workload(name, args)
    except (SuiteError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    line_metrics: Dict[str, Any] = {}
    try:
        for name, result in results.items():
            result["metrics"] = report(name, result, spec, args)
            prefix = "" if args.workload else f"{name}/"
            line_metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    except SuiteError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    if args.record_digests:
        table = json.loads(Path(args.digests).read_text())
        for name, result in results.items():
            table.setdefault(args.size, {})[name] = result["digests"]
        Path(args.digests).write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            for name, result in results.items():
                record = {
                    "workload": name,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "size": args.size,
                    "fingerprint": machine,
                    **{k: v for k, v in result.items() if k != "digests"},
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": line_metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
