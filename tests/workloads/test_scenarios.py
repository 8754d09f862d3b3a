"""Tests for the Section 5.2/5.3 workload builders."""

import random

import pytest

from repro.workloads.scenarios import (
    PAPER_SINGLE_FILE_TOKENS,
    PAPER_SUBDIVISION_TOKENS,
    file_subdivision,
    receiver_density,
    single_file,
)
from repro.topology import path_topology, random_graph


@pytest.fixture
def topo():
    return random_graph(20, random.Random(0))


class TestSingleFile:
    def test_paper_defaults(self, topo):
        p = single_file(topo)
        assert p.num_tokens == PAPER_SINGLE_FILE_TOKENS
        assert sorted(p.have[0]) == list(range(200))

    def test_all_non_source_vertices_want_everything(self, topo):
        p = single_file(topo, file_tokens=5)
        for v in range(1, 20):
            assert sorted(p.want[v]) == [0, 1, 2, 3, 4]
        assert not p.want[0]

    def test_custom_source(self, topo):
        p = single_file(topo, file_tokens=3, source=7)
        assert sorted(p.have[7]) == [0, 1, 2]
        assert not p.want[7]
        assert sorted(p.want[0]) == [0, 1, 2]

    def test_source_out_of_range(self, topo):
        with pytest.raises(ValueError):
            single_file(topo, source=99)

    def test_satisfiable(self, topo):
        assert single_file(topo, file_tokens=4).is_satisfiable()


class TestReceiverDensity:
    def test_threshold_zero_no_receivers(self, topo):
        p = receiver_density(topo, 0.0, random.Random(1), file_tokens=4)
        assert p.total_demand() == 0

    def test_threshold_one_all_receivers(self, topo):
        p = receiver_density(topo, 1.0, random.Random(1), file_tokens=4)
        assert p.total_demand() == 19 * 4

    def test_threshold_monotone_in_expectation(self, topo):
        low = receiver_density(topo, 0.2, random.Random(2), file_tokens=1)
        high = receiver_density(topo, 0.8, random.Random(2), file_tokens=1)
        assert low.total_demand() <= high.total_demand()

    def test_invalid_threshold(self, topo):
        with pytest.raises(ValueError):
            receiver_density(topo, 1.5, random.Random(0))

    def test_source_never_wants(self, topo):
        p = receiver_density(topo, 1.0, random.Random(3), file_tokens=2)
        assert not p.want[0]


class TestFileSubdivision:
    def test_paper_defaults(self, topo):
        p = file_subdivision(topo, 1, total_tokens=PAPER_SUBDIVISION_TOKENS)
        assert p.num_tokens == 512
        assert sorted(p.have[0]) == list(range(512))

    def test_constant_token_mass(self, topo):
        """The sweep's invariant: the source always holds all tokens."""
        for k in (1, 2, 4):
            p = file_subdivision(topo, k, total_tokens=16)
            assert len(p.have[0]) == 16

    def test_partition_is_exact(self, topo):
        p = file_subdivision(topo, 4, total_tokens=16)
        seen = {}
        for v in range(1, 20):
            file_id = min(p.want[v]) // 4
            assert sorted(p.want[v]) == list(range(file_id * 4, file_id * 4 + 4))
            seen.setdefault(file_id, []).append(v)
        assert sorted(seen) == [0, 1, 2, 3]
        # Groups are balanced within one vertex.
        sizes = [len(g) for g in seen.values()]
        assert max(sizes) - min(sizes) <= 1

    def test_each_vertex_wants_exactly_one_file(self, topo):
        p = file_subdivision(topo, 2, total_tokens=8)
        for v in range(1, 20):
            assert len(p.want[v]) == 4

    def test_indivisible_tokens_rejected(self, topo):
        with pytest.raises(ValueError, match="divide"):
            file_subdivision(topo, 3, total_tokens=16)

    def test_too_many_files_rejected(self):
        small = path_topology(3)
        with pytest.raises(ValueError, match="receiver vertices"):
            file_subdivision(small, 4, total_tokens=8)

    def test_invalid_num_files(self, topo):
        with pytest.raises(ValueError):
            file_subdivision(topo, 0, total_tokens=8)


class TestMultiSender:
    def test_requires_rng(self, topo):
        with pytest.raises(ValueError, match="rng"):
            file_subdivision(topo, 2, total_tokens=8, multi_sender=True)

    def test_each_file_has_one_sender_outside_its_group(self, topo):
        rng = random.Random(5)
        p = file_subdivision(topo, 4, rng=rng, total_tokens=16, multi_sender=True)
        for file_id in range(4):
            file_tokens = set(range(file_id * 4, file_id * 4 + 4))
            holders = [
                v
                for v in range(20)
                if file_tokens <= set(p.have[v])
            ]
            assert len(holders) == 1
            # The sender does not want its own file.
            assert not (file_tokens & set(p.want[holders[0]]))

    def test_satisfiable(self, topo):
        rng = random.Random(6)
        p = file_subdivision(topo, 2, rng=rng, total_tokens=8, multi_sender=True)
        assert p.is_satisfiable()
