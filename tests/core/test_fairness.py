"""Tests for contribution accounting and fairness metrics."""

import random

import pytest

from repro.core.fairness import account_schedule, jain_index
from repro.core.problem import Problem
from repro.core.schedule import Move, Schedule
from repro.heuristics import RoundRobinHeuristic, standard_heuristics
from repro.sim import run_heuristic
from repro.topology import star_topology
from repro.workloads import single_file


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_contributor_is_one_over_n(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_index([0, 0, 0]) == 1.0

    def test_monotone_in_imbalance(self):
        assert jain_index([6, 4]) > jain_index([9, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1, -1])


class TestAccounting:
    def test_simple_relay(self, path_problem):
        schedule = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        report = account_schedule(path_problem, schedule)
        assert report.vertex(0).uploaded == 2
        assert report.vertex(1).uploaded == 2
        assert report.vertex(1).downloaded_useful == 2
        assert report.vertex(2).downloaded_useful == 2
        assert report.vertex(2).uploaded == 0
        assert report.redundancy == 0.0

    def test_redundant_deliveries_counted(self):
        p = Problem.build(
            3, 1, [(0, 2, 1), (1, 2, 1)], {0: [0], 1: [0]}, {2: [0]}
        )
        schedule = Schedule.from_move_lists([[Move(0, 2, 0), Move(1, 2, 0)]])
        report = account_schedule(p, schedule)
        assert report.vertex(2).downloaded_useful == 1
        assert report.vertex(2).downloaded_redundant == 1
        assert report.redundancy == pytest.approx(0.5)

    def test_redelivery_across_steps_redundant(self):
        p = Problem.build(2, 1, [(0, 1, 1)], {0: [0]}, {1: [0]})
        schedule = Schedule.from_move_lists([[Move(0, 1, 0)], [Move(0, 1, 0)]])
        report = account_schedule(p, schedule)
        assert report.vertex(1).downloaded_useful == 1
        assert report.vertex(1).downloaded_redundant == 1

    def test_share_ratio(self, path_problem):
        schedule = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        report = account_schedule(path_problem, schedule)
        assert report.vertex(1).share_ratio == pytest.approx(1.0)
        assert report.vertex(0).share_ratio is None  # pure seeder

    def test_participation_and_share(self, path_problem):
        schedule = Schedule.from_move_lists([[Move(0, 1, 0)]])
        report = account_schedule(path_problem, schedule)
        assert report.participation == pytest.approx(1 / 3)
        assert report.max_upload_share == 1.0

    def test_empty_schedule(self, trivial_problem):
        report = account_schedule(trivial_problem, Schedule())
        assert report.upload_jain == 1.0
        assert report.redundancy == 0.0
        assert report.max_upload_share == 0.0


class TestFairnessOfHeuristics:
    def test_star_hub_does_all_the_work(self):
        """On a star, every *useful* upload comes from the hub, so the
        demand-aware heuristics concentrate all upload there (Jain's
        index near 1/n).  Round-Robin is excluded: its leaves blindly
        upload tokens back to the hub, which only adds redundancy."""
        problem = single_file(star_topology(6, capacity=2), file_tokens=4)
        for heuristic in standard_heuristics():
            if heuristic.name == "round_robin":
                continue
            result = run_heuristic(problem, heuristic, seed=1)
            assert result.success
            report = account_schedule(problem, result.schedule)
            assert report.max_upload_share == 1.0
            assert report.upload_jain <= 1 / 6 + 0.01

    def test_round_robin_leaves_upload_uselessly_on_star(self):
        problem = single_file(star_topology(6, capacity=2), file_tokens=4)
        result = run_heuristic(problem, RoundRobinHeuristic(), seed=1)
        report = account_schedule(problem, result.schedule)
        leaf_uploads = sum(report.vertex(v).uploaded for v in range(1, 6))
        assert leaf_uploads > 0  # blind back-uploads...
        assert report.vertex(0).downloaded_useful == 0  # ...all redundant

    def test_swarm_spreads_contribution(self):
        """On a well-connected overlay the smart heuristics spread upload
        across many vertices."""
        from repro.topology import random_graph

        problem = single_file(random_graph(20, random.Random(3)), file_tokens=10)
        from repro.heuristics import LocalRarestHeuristic

        result = run_heuristic(problem, LocalRarestHeuristic(), seed=2)
        assert result.success
        report = account_schedule(problem, result.schedule)
        assert report.participation > 0.5
        assert report.upload_jain > 0.3

    def test_round_robin_redundancy_dwarfs_local(self):
        """Accounting quantifies the paper's RR complaint: most of its
        downloads are redundant re-sends."""
        from repro.topology import random_graph
        from repro.heuristics import LocalRarestHeuristic

        problem = single_file(random_graph(15, random.Random(4)), file_tokens=8)
        rr = account_schedule(
            problem, run_heuristic(problem, RoundRobinHeuristic(), seed=1).schedule
        )
        local = account_schedule(
            problem, run_heuristic(problem, LocalRarestHeuristic(), seed=1).schedule
        )
        assert rr.redundancy > 0.5
        assert local.redundancy < 0.1
