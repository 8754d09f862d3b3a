"""Compare two sets of suite results, workload by workload.

Usage (from the repository root)::

    python3 benchmarks/suite/compare.py A.jsonl B.jsonl [--json OUT]

``A`` and ``B`` are files written by ``run.py --out``: one JSON line per
workload run, each file one set of runs (several seeds, or repeats of
one seed).  For every (workload, metric) pair in both sets it prints the
median and quartiles of each set and a verdict against the metric's
bound in ``BENCHMARK.json``:

* ``unresolved`` — a set's quartile spread (third minus first quartile,
  over the median) is wider than the bound, and neither set's runs all
  read better than every run of the other;
* ``worse`` / ``better`` — B's median is worse / better than A's by
  more than the bound (or, when unresolved by spread, every run of B
  reads worse / better than every run of A);
* ``within bound`` — otherwise.

Per-layer metrics have no bound and get no verdict.  The exit code is 1
when any pair is worse or unresolved, else 0.  ``--json OUT`` writes the
medians, quartiles and verdicts, the form ``baseline.json`` is kept in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Values = Dict[Tuple[str, str], List[float]]


def load_set(path: str) -> Tuple[Values, List[Dict[str, Any]]]:
    """Metric values by (workload, metric), and the machines measured on."""
    values: Values = defaultdict(list)
    machines: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, entry in run["metrics"].items():
                values[(run["workload"], name)].append(float(entry["value"]))
            if run["fingerprint"] not in machines:
                machines.append(run["fingerprint"])
    return values, machines


def summarize(values: List[float]) -> Dict[str, Any]:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def verdict(
    a: List[float], b: List[float], bound: Optional[float], better: str
) -> str:
    if bound is None:
        return "-"
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    # Positive: B is worse than A, as a share of A's median.
    change = sign * (sb["median"] - sa["median"]) / abs(sa["median"]) if sa["median"] else 0.0
    if max(sa["spread"], sb["spread"]) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results of the base set (run.py --out)")
    parser.add_argument("b", help="results of the set compared with it")
    parser.add_argument("--json", help="write medians, quartiles and verdicts here")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    (a, machines_a), (b, machines_b) = load_set(args.a), load_set(args.b)
    pairs = sorted(set(a) & set(b))
    if not pairs:
        print("error: the two sets share no (workload, metric) pair", file=sys.stderr)
        return 2

    summary: Dict[str, Any] = {
        "A": {},
        "B": {},
        "verdicts": {},
        "machines": {"A": machines_a, "B": machines_b},
    }
    failing = 0
    print(f"{'workload':<12} {'metric':<13} {'A median [q1, q3]':>40} "
          f"{'B median [q1, q3]':>40}  verdict")
    for workload, metric in pairs:
        sa, sb = summarize(a[(workload, metric)]), summarize(b[(workload, metric)])
        result = verdict(
            a[(workload, metric)],
            b[(workload, metric)],
            bounds.get(metric),
            better.get(metric, "lower"),
        )
        failing += result in ("worse", "unresolved")
        summary["A"].setdefault(workload, {})[metric] = sa
        summary["B"].setdefault(workload, {})[metric] = sb
        summary["verdicts"].setdefault(workload, {})[metric] = result

        def cell(s: Dict[str, Any]) -> str:
            return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"

        print(f"{workload:<12} {metric:<13} {cell(sa):>40} {cell(sb):>40}  {result}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
