"""Smoke and contract tests for the figure drivers, runner, and report."""

import csv
import inspect
import random

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    PAPER,
    QUICK,
    FigureResult,
    Scale,
    aggregate,
    format_table,
    run_configuration,
)
from repro.experiments import fig1, fig7, locd_exp
from repro.topology import star_topology
from repro.workloads import single_file

TINY = Scale(
    name="quick",  # drivers branch on the name for sample counts
    graph_sizes=(10, 16),
    file_tokens=6,
    density_thresholds=(0.0, 0.5, 1.0),
    medium_n=14,
    subdivision_tokens=8,
    file_counts=(1, 2, 4),
    trials=1,
)


class TestRegistry:
    def test_all_experiments_present(self):
        assert sorted(ALL_EXPERIMENTS) == [
            "ext_coding",
            "ext_dynamic",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "gap",
            "locd",
            "pareto",
        ]

    def test_every_driver_defaults_to_quick_scale(self):
        # The scale is an argument, not ambient state: no environment
        # variable switches a driver to PAPER.
        for name, driver in ALL_EXPERIMENTS.items():
            assert inspect.signature(driver).parameters["scale"].default is QUICK, name

    def test_paper_scale_matches_paper_parameters(self):
        assert PAPER.file_tokens == 200
        assert PAPER.subdivision_tokens == 512
        assert PAPER.medium_n == 200
        assert PAPER.trials == 3
        assert max(PAPER.graph_sizes) == 1000
        assert max(PAPER.file_counts) == 128


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_every_driver_produces_rows(name):
    result = ALL_EXPERIMENTS[name](TINY)
    assert isinstance(result, FigureResult)
    assert result.rows
    assert result.figure == name


class TestFig1:
    def test_matches_paper_exactly(self):
        result = fig1.run()
        assert all(row["match"] for row in result.rows)


class TestFig7:
    def test_no_mismatches(self):
        result = fig7.run(TINY)
        assert all(row["match"] for row in result.rows)
        assert any(row["focd_2step"] for row in result.rows)
        assert any(not row["focd_2step"] for row in result.rows)


class TestLocd:
    def test_flooding_worse_than_flood_then_optimal(self):
        result = locd_exp.run(TINY)
        by_algo = {}
        for row in result.rows:
            by_algo.setdefault(row["algorithm"], []).append(row["ratio"])
        assert max(by_algo["round_robin"]) > max(by_algo["flood_then_optimal"])


class TestGapDriver:
    def test_ratios_at_least_one(self):
        result = ALL_EXPERIMENTS["gap"](TINY)
        for row in result.rows:
            assert row["mean_time_ratio"] >= 1.0
            assert row["mean_bw_ratio"] >= 1.0
            assert row["max_time_ratio"] >= row["mean_time_ratio"]
            assert row["instances"] > 0

    def test_bound_looseness_note_present(self):
        result = ALL_EXPERIMENTS["gap"](TINY)
        assert any("looseness" in note for note in result.notes)


class TestExtensionDrivers:
    def test_dynamic_slowdowns_at_least_one(self):
        result = ALL_EXPERIMENTS["ext_dynamic"](TINY)
        for row in result.rows:
            assert row["slowdown"] >= 1.0 or row["conditions"] == "static"
        static_rows = [r for r in result.rows if r["conditions"] == "static"]
        assert all(r["slowdown"] == 1.0 for r in static_rows)

    def test_coding_outages_benefit(self):
        result = ALL_EXPERIMENTS["ext_coding"](TINY)
        flaky = {
            row["parity"]: row["mean_completion"]
            for row in result.rows
            if row["network"] != "static"
        }
        parities = sorted(flaky)
        assert flaky[parities[-1]] <= flaky[parities[0]]


class TestParetoDriver:
    def test_figure1_row_exact(self):
        result = ALL_EXPERIMENTS["pareto"](TINY)
        gadget = result.rows[0]
        assert gadget["instance"] == "figure1_gadget"
        assert gadget["frontier"] == "(2s,6m) -> (3s,4m)"
        assert gadget["save@1.5x"] == pytest.approx(1 / 3, abs=1e-3)

    def test_batch_savings_are_fractions(self):
        result = ALL_EXPERIMENTS["pareto"](TINY)
        batch = result.rows[1]
        assert 0.0 <= batch["save@1.5x"] <= batch["save@2x"] <= 1.0


class TestRunner:
    def _factory(self, rng: random.Random):
        return single_file(star_topology(5, capacity=2), file_tokens=4)

    def test_records_all_heuristics(self):
        records = run_configuration(self._factory, trials=2, base_seed=1)
        names = {r.heuristic for r in records}
        assert names == {"round_robin", "random", "local", "bandwidth", "global"}
        assert len(records) == 10

    def test_heuristic_subset(self):
        records = run_configuration(
            self._factory, trials=1, base_seed=1, heuristics=["local"]
        )
        assert len(records) == 1
        assert records[0].heuristic == "local"

    def test_records_are_successful_and_bounded(self):
        for record in run_configuration(self._factory, trials=1, base_seed=2):
            assert record.success
            assert record.pruned_bandwidth <= record.bandwidth
            assert record.bound_bandwidth <= record.pruned_bandwidth
            assert record.makespan >= record.bound_timesteps

    def test_aggregate_means(self):
        records = run_configuration(self._factory, trials=3, base_seed=3)
        points = aggregate(5.0, records)
        assert len(points) == 5
        for point in points:
            assert point.x == 5.0
            assert point.trials == 3
            assert point.all_successful
            row = point.as_row()
            assert row["heuristic"] == point.heuristic


class TestReport:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert "no data" in format_table([])

    def test_to_text_includes_notes(self):
        result = FigureResult("figX", "demo", rows=[{"a": 1}], notes=["hello"])
        text = result.to_text()
        assert "figX" in text and "hello" in text

    def test_to_csv(self, tmp_path):
        result = FigureResult("figX", "demo", rows=[{"a": 1, "b": 2}])
        path = tmp_path / "out.csv"
        result.to_csv(str(path))
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert rows == [{"a": "1", "b": "2"}]

    def test_to_csv_empty_raises(self, tmp_path):
        with pytest.raises(ValueError):
            FigureResult("figX", "demo").to_csv(str(tmp_path / "x.csv"))

    def test_series_extraction(self):
        result = FigureResult(
            "figX",
            "demo",
            rows=[
                {"x": 1, "heuristic": "local", "moves": 4},
                {"x": 2, "heuristic": "local", "moves": 5},
                {"x": 1, "heuristic": "random", "moves": 6},
            ],
        )
        assert result.series("local") == [(1, 4), (2, 5)]
