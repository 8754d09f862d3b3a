"""Smoke test of the end-to-end suite at its ``--smoke`` size.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

from spans import check_nesting, layer_totals, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_suite(*args: str) -> Tuple[int, List[str]]:
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def git_status() -> str:
    proc = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    return proc.stdout


@pytest.fixture(scope="module")
def status_before() -> str:
    return git_status()


def test_metric_names_and_units_match_benchmark_json(status_before: str) -> None:
    code, lines = run_suite("--workload", "locd-gossip", "--seconds", "0.3")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = [line.split() for line in lines if line.startswith("  ")]
    assert {words[0]: words[-1] for words in printed} == expected


def test_tampered_digest_fails_every_operation(tmp_path: Path) -> None:
    digests = {"smoke": {"fig2-n1000": {str(k): "0" * 64 for k in range(10000)}}}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    code, lines = run_suite(
        "--workload", "fig2-n1000", "--seconds", "0.2", "--digests", str(path)
    )
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def test_traced_spans_nest_with_nonnegative_self_times(tmp_path: Path) -> None:
    code, lines = run_suite("--trace", "1", "--seconds", "0.4", "--spans-out", str(tmp_path))
    assert code == 0, lines
    result = json.loads(lines[-1])
    expected = {f"{w}/{m['name']}" for w in WORKLOADS for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == expected
    files = sorted(tmp_path.glob("spans-*.json"))
    assert len(files) == len(WORKLOADS)
    for path in files:
        payload = json.loads(path.read_text())
        for spans in payload["ops"]:
            assert spans, path
            assert check_nesting(spans) == []
            assert all(v >= 0 for v in self_times(spans).values())
            totals = layer_totals(spans)
            assert all(v >= -1e-9 for v in totals.values()), totals
            (root,) = [s for s in spans if s["name"] == "op"]
            assert sum(totals.values()) == pytest.approx(root["end"] - root["start"])


def test_repository_is_left_as_it_was(status_before: str) -> None:
    assert git_status() == status_before
