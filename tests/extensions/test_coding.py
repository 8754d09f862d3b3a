"""Tests for the threshold-coding extension (§6)."""

import random

import pytest

from repro.core.tokenset import TokenSet
from repro.extensions.coding import (
    CodedFile,
    coded_completion_step,
    make_coded_single_file,
    run_coded,
)
from repro.heuristics import make_heuristic
from repro.topology import path_topology, random_graph


class TestCodedFile:
    def test_reconstruction_threshold(self):
        f = CodedFile(0, TokenSet.of(0, 1, 2, 3), threshold=2)
        assert not f.reconstructed_by(TokenSet.of(0))
        assert f.reconstructed_by(TokenSet.of(0, 3))
        assert f.reconstructed_by(TokenSet.of(0, 1, 2, 3))

    def test_irrelevant_tokens_ignored(self):
        f = CodedFile(0, TokenSet.of(0, 1), threshold=2)
        assert not f.reconstructed_by(TokenSet.of(5, 6, 7))

    def test_parity(self):
        assert CodedFile(0, TokenSet.of(0, 1, 2), threshold=2).parity == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            CodedFile(0, TokenSet.of(0, 1), threshold=3)
        with pytest.raises(ValueError):
            CodedFile(0, TokenSet.of(0, 1), threshold=0)


class TestBuilder:
    def test_make_coded_single_file(self):
        inst = make_coded_single_file(path_topology(3), 2, 1)
        assert inst.problem.num_tokens == 3
        assert inst.files[0].threshold == 2
        assert set(inst.subscriptions) == {1, 2}

    def test_zero_parity_is_classic_ocd(self):
        inst = make_coded_single_file(path_topology(3), 3, 0)
        assert inst.files[0].threshold == 3
        # Reconstruction == full want satisfaction.
        full = [TokenSet.full(3)] * 3
        assert inst.is_reconstructed(full)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_coded_single_file(path_topology(3), 0, 1)
        with pytest.raises(ValueError):
            make_coded_single_file(path_topology(3), 2, -1)


class TestPredicate:
    def test_partial_reconstruction_insufficient(self):
        inst = make_coded_single_file(path_topology(3), 2, 1)
        possession = [TokenSet.full(3), TokenSet.of(0), TokenSet.of(1, 2)]
        assert not inst.is_reconstructed(possession)  # vertex 1 has only 1

    def test_any_k_suffices(self):
        inst = make_coded_single_file(path_topology(3), 2, 1)
        possession = [TokenSet.full(3), TokenSet.of(0, 2), TokenSet.of(1, 2)]
        assert inst.is_reconstructed(possession)

    def test_uncoded_equivalent_strict(self):
        inst = make_coded_single_file(path_topology(3), 2, 1)
        strict = inst.uncoded_equivalent()
        possession = [TokenSet.full(3), TokenSet.of(0, 2), TokenSet.of(1, 2)]
        assert not strict.is_reconstructed(possession)


class TestRuns:
    def test_coded_run_stops_at_threshold(self):
        inst = make_coded_single_file(path_topology(4, capacity=1), 3, 2)
        result = run_coded(inst, make_heuristic("random"), seed=3)
        assert result.success
        final = result.schedule.validate(inst.problem)[-1]
        assert inst.is_reconstructed(final)

    def test_coded_never_slower_than_uncoded(self):
        """Parity can only help: same heuristic, same seed, the coded
        stop condition triggers no later than the uncoded one."""
        rng = random.Random(10)
        for trial in range(5):
            topo = random_graph(10, rng)
            inst = make_coded_single_file(topo, 4, 2)
            coded = run_coded(inst, make_heuristic("random"), seed=trial)
            uncoded = run_coded(
                inst.uncoded_equivalent(), make_heuristic("random"), seed=trial
            )
            assert coded.success and uncoded.success
            assert coded.makespan <= uncoded.makespan

    def test_parity_helps_on_bottleneck(self):
        """On a capacity-1 path the last stragglers dominate; any-k
        completion strictly beats all-k for some seed."""
        topo = path_topology(5, capacity=1)
        inst = make_coded_single_file(topo, 4, 3)
        wins = 0
        for seed in range(5):
            coded = run_coded(inst, make_heuristic("random"), seed=seed)
            uncoded = run_coded(
                inst.uncoded_equivalent(), make_heuristic("random"), seed=seed
            )
            if coded.makespan < uncoded.makespan:
                wins += 1
        assert wins > 0

    def test_completion_step_consistent(self):
        inst = make_coded_single_file(path_topology(4, capacity=2), 3, 1)
        uncoded_run = run_coded(
            inst.uncoded_equivalent(), make_heuristic("local"), seed=0
        )
        step = coded_completion_step(inst, uncoded_run)
        assert step is not None
        assert step <= uncoded_run.makespan

    def test_coded_dynamic_outage_benefit(self):
        """Under outages, generous parity completes no later than the
        uncoded baseline on every seed, and strictly earlier on some."""
        from repro.extensions.dynamic import periodic_outages
        from repro.extensions.coding import run_coded_dynamic
        from repro.topology import unit_capacity

        topo = random_graph(15, random.Random(2), capacity=unit_capacity)
        uncoded = make_coded_single_file(topo, 8, 0)
        coded = make_coded_single_file(topo, 8, 8)
        wins = 0
        for seed in range(6):
            base_conditions = periodic_outages(uncoded.problem, 3, 1, seed=7)
            coded_conditions = periodic_outages(coded.problem, 3, 1, seed=7)
            base = run_coded_dynamic(
                uncoded, base_conditions, make_heuristic("random"), seed=seed
            )
            rich = run_coded_dynamic(
                coded, coded_conditions, make_heuristic("random"), seed=seed
            )
            assert base.success and rich.success
            if rich.makespan < base.makespan:
                wins += 1
        assert wins > 0

    def test_coded_dynamic_rejects_foreign_conditions(self):
        from repro.extensions.dynamic import constant_conditions
        from repro.extensions.coding import run_coded_dynamic

        inst = make_coded_single_file(path_topology(3), 2, 1)
        other = make_coded_single_file(path_topology(4), 2, 1)
        with pytest.raises(ValueError, match="this instance"):
            run_coded_dynamic(
                inst,
                constant_conditions(other.problem),
                make_heuristic("random"),
            )

    def test_completion_step_none_when_never(self):
        inst = make_coded_single_file(path_topology(3, capacity=1), 2, 0)
        from repro.core.schedule import Schedule

        empty = type(run_coded(inst, make_heuristic("local"), seed=0))(
            problem=inst.problem,
            heuristic_name="none",
            schedule=Schedule(),
            success=False,
        )
        assert coded_completion_step(inst, empty) is None
