"""Tests for the all-metrics heuristic comparison."""

import random

import pytest

from repro.analysis.comparison import compare_heuristics
from repro.heuristics import SequentialHeuristic
from repro.topology import random_graph
from repro.workloads import single_file


@pytest.fixture(scope="module")
def problem():
    return single_file(random_graph(20, random.Random(2)), file_tokens=10)


class TestCompareHeuristics:
    def test_default_field_is_the_paper_five(self, problem):
        rows = compare_heuristics(problem, seed=1)
        assert [r.heuristic for r in rows] == [
            "round_robin",
            "random",
            "local",
            "bandwidth",
            "global",
        ]

    def test_all_rows_successful_and_bounded(self, problem):
        for row in compare_heuristics(problem, seed=1):
            assert row.success
            assert row.makespan_gap >= 1.0
            assert row.bandwidth_gap >= 1.0
            assert 0.0 <= row.upload_jain <= 1.0
            assert 0.0 <= row.redundancy <= 1.0
            assert row.pruned_bandwidth <= row.bandwidth

    def test_custom_field(self, problem):
        rows = compare_heuristics(problem, heuristics=[SequentialHeuristic()], seed=1)
        assert len(rows) == 1
        assert rows[0].heuristic == "sequential"
        assert rows[0].success

    def test_round_robin_most_redundant(self, problem):
        rows = {r.heuristic: r for r in compare_heuristics(problem, seed=1)}
        assert rows["round_robin"].redundancy == max(
            r.redundancy for r in rows.values()
        )

    def test_as_dict_keys(self, problem):
        row = compare_heuristics(problem, seed=1)[0]
        assert set(row.as_dict()) == {
            "heuristic",
            "ok",
            "makespan",
            "bandwidth",
            "pruned_bw",
            "time_gap",
            "bw_gap",
            "jain",
            "redundancy",
            "startup",
        }

    def test_deterministic(self, problem):
        a = compare_heuristics(problem, seed=5)
        b = compare_heuristics(problem, seed=5)
        assert a == b
