"""Bitplane layout round-trips and batched reads vs the TokenSet oracle.

:mod:`repro.core.bitplanes` is the single authority on the batch kernel's
dense layout (bit ``t % 64`` of plane ``t // 64`` in row ``v``).  These
tests pin the conversions and the batched reads against the
``TokenSet``/frozenset oracle on handwritten edges (empty, full,
single-token, >64-token spill) and fuzzed universes up to three planes
(four for the k-th-set-bit select).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitplanes import (
    lowmask_rows,
    mask_to_planes,
    masks_to_matrix,
    matrix_to_masks,
    plane_count,
    planes_to_mask,
    popcount_rows,
    select_rows,
    token_columns,
)
from repro.core.tokenset import TokenSet


# ----------------------------------------------------------------------
# Pure-python pieces
# ----------------------------------------------------------------------
class TestPlaneCount:
    def test_edges(self):
        assert plane_count(0) == 1
        assert plane_count(1) == 1
        assert plane_count(64) == 1
        assert plane_count(65) == 2
        assert plane_count(128) == 2
        assert plane_count(129) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            plane_count(-1)


class TestMaskPlaneRoundTrip:
    @pytest.mark.parametrize(
        "mask,planes",
        [
            (0, 1),
            (1, 1),
            ((1 << 64) - 1, 1),
            (1 << 64, 2),
            ((1 << 70) | 5, 2),
            ((1 << 130) | (1 << 64) | 1, 3),
        ],
    )
    def test_round_trip(self, mask, planes):
        row = mask_to_planes(mask, planes)
        assert len(row) == planes
        assert all(0 <= p < (1 << 64) for p in row)
        assert planes_to_mask(row) == mask

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            mask_to_planes(1 << 64, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask_to_planes(-1, 1)

    def test_fuzzed_round_trip(self):
        rng = random.Random(42)
        for _ in range(200):
            m = rng.randint(1, 190)
            mask = rng.getrandbits(m)
            planes = plane_count(m)
            assert planes_to_mask(mask_to_planes(mask, planes)) == mask


# ----------------------------------------------------------------------
# Matrix round-trips
# ----------------------------------------------------------------------
class TestMatrixRoundTrip:
    def test_empty_sets(self):
        matrix = masks_to_matrix([0] * 4, 10)
        assert matrix.shape == (4, 1)
        assert not matrix.any()
        assert matrix_to_masks(matrix) == [0] * 4

    def test_full_single_plane(self):
        full = (1 << 64) - 1
        matrix = masks_to_matrix([full], 64)
        assert matrix.shape == (1, 1)
        assert matrix_to_masks(matrix) == [full]

    def test_single_token_positions(self):
        for t in (0, 1, 63, 64, 65, 127, 128, 150):
            s = TokenSet.from_iterable([t])
            matrix = masks_to_matrix([s.mask], t + 1)
            assert matrix.shape == (1, plane_count(t + 1))
            # layout: bit t % 64 of plane t // 64
            assert int(matrix[0, t // 64]) == 1 << (t % 64)
            assert matrix_to_masks(matrix) == [s.mask]

    def test_spill_beyond_64_tokens(self):
        # 70-token universe: two planes, tokens straddling the boundary.
        tokens = [0, 5, 63, 64, 66, 69]
        s = TokenSet.from_iterable(tokens)
        matrix = masks_to_matrix([s.mask, 0], 70)
        assert matrix.shape == (2, 2)
        assert matrix_to_masks(matrix) == [s.mask, 0]
        assert sorted(TokenSet(matrix_to_masks(matrix)[0])) == tokens

    def test_zero_token_universe_has_one_plane(self):
        matrix = masks_to_matrix([0, 0, 0], 0)
        assert matrix.shape == (3, 1)
        assert matrix_to_masks(matrix) == [0, 0, 0]

    def test_fuzzed_round_trip_multi_plane(self):
        rng = random.Random(7)
        for _ in range(100):
            m = rng.randint(1, 190)
            masks = [rng.getrandbits(m) for _ in range(rng.randint(1, 8))]
            matrix = masks_to_matrix(masks, m)
            assert matrix.shape == (len(masks), plane_count(m))
            assert matrix_to_masks(matrix) == masks

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            matrix_to_masks(np.zeros(3, dtype=np.uint64))


# ----------------------------------------------------------------------
# Batched popcount vs the TokenSet oracle
# ----------------------------------------------------------------------
class TestPlaneAlgebra:
    def test_popcount_rows(self):
        rng = random.Random(13)
        for _ in range(60):
            m = rng.randint(1, 190)
            a_masks = [rng.getrandbits(m) for _ in range(rng.randint(1, 6))]
            a = masks_to_matrix(a_masks, m)
            counts = popcount_rows(a)
            assert counts.tolist() == [len(TokenSet(x)) for x in a_masks]


class TestTokenColumns:
    @pytest.mark.parametrize("m", [0, 1, 5, 63, 64, 65, 128, 130])
    def test_matches_tokenset_membership(self, m):
        rng = random.Random(m)
        masks = [0, (1 << m) - 1] + [rng.getrandbits(m) if m else 0 for _ in range(8)]
        columns = token_columns(masks_to_matrix(masks, m), m)
        assert columns.dtype == bool and columns.shape == (len(masks), m)
        for row, mask in zip(columns.tolist(), masks):
            assert [t for t, bit in enumerate(row) if bit] == sorted(TokenSet(mask))

    def test_reads_a_strided_view(self):
        # The emitter passes ``masks[:, None]`` views and row gathers.
        vector = np.array([5, 1 << 63, 0], dtype=np.uint64)
        columns = token_columns(vector[:, None][::-1], 64)
        assert [np.flatnonzero(row).tolist() for row in columns] == [[], [63], [0, 2]]

    def test_bit_order_is_little_endian_within_and_across_planes(self):
        matrix = masks_to_matrix([1 << 8, 1 << 64 | 1 << 71], 72)
        assert [np.flatnonzero(row).tolist() for row in token_columns(matrix, 72)] == [
            [8],
            [64, 71],
        ]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="num_tokens"):
            token_columns(masks_to_matrix([1], 64), 65)
        with pytest.raises(ValueError, match="matrix"):
            token_columns(np.zeros(3, dtype=np.uint64), 3)


@st.composite
def rows_with_ranks(draw):
    """1-4 plane rows, each nonempty, with a rank in 1..popcount per row."""
    planes = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=64 * (planes - 1) + 1, max_value=64 * planes))
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << m) - 1), min_size=1, max_size=6)
    )
    ranks = [draw(st.integers(min_value=1, max_value=mask.bit_count())) for mask in masks]
    return m, masks, ranks


class TestSelectRows:
    """``select_rows`` is the highest member of ``TokenSet.take(k)``."""

    def test_edges(self):
        m = 130  # three planes
        masks = [1, 1 << 63, 1 << 64, 1 << 129, (1 << 130) - 1, (1 << 130) - 1, 0b1010]
        ranks = [1, 1, 1, 1, 64, 130, 2]
        got = select_rows(masks_to_matrix(masks, m), np.array(ranks)).tolist()
        assert got == [0, 63, 64, 129, 63, 129, 3]

    @given(rows_with_ranks())
    @settings(max_examples=200, deadline=None)
    def test_matches_tokenset_take(self, case):
        m, masks, ranks = case
        got = select_rows(masks_to_matrix(masks, m), np.array(ranks)).tolist()
        assert got == [TokenSet(mask).take(k).max() for mask, k in zip(masks, ranks)]

    def test_every_rank_of_a_dense_row(self):
        # Every byte position of every plane, including the top bit of
        # each word, where the bytewise prefix counts reach 64.
        mask = (1 << 256) - 1
        matrix = masks_to_matrix([mask] * 256, 256)
        got = select_rows(matrix, np.arange(1, 257)).tolist()
        assert got == list(range(256))

    def test_top_rank_is_bit_length(self):
        # At rank == popcount the select is the highest set bit.
        m = 130  # three planes
        masks = [1, 1 << 63, 1 << 64, 1 << 129, (1 << 130) - 1, 0b1010]
        ranks = [mask.bit_count() for mask in masks]
        got = select_rows(masks_to_matrix(masks, m), np.array(ranks)).tolist()
        assert got == [mask.bit_length() - 1 for mask in masks]

    def test_top_rank_fuzzed_vs_bit_length(self):
        rng = random.Random(8)
        for _ in range(100):
            m = rng.randint(1, 256)
            masks = [rng.getrandbits(m) | 1 << rng.randrange(m) for _ in range(6)]
            ranks = np.array([mask.bit_count() for mask in masks])
            got = select_rows(masks_to_matrix(masks, m), ranks).tolist()
            assert got == [mask.bit_length() - 1 for mask in masks], m

    @pytest.mark.parametrize("rank", [0, 3])
    def test_rank_outside_popcount_rejected(self, rank):
        matrix = masks_to_matrix([0b101], 3)
        with pytest.raises(ValueError):
            select_rows(matrix, np.array([rank]))

    def test_shape_mismatch_rejected(self):
        matrix = masks_to_matrix([3, 1], 2)
        with pytest.raises(ValueError):
            select_rows(matrix, np.array([1]))


class TestLowmaskRows:
    def test_edges(self):
        planes = 3
        counts = np.array([0, 1, 63, 64, 65, 128, 192], dtype=np.int64)
        got = matrix_to_masks(lowmask_rows(counts, planes))
        for i, c in enumerate(counts.tolist()):
            assert got[i] == (1 << c) - 1, c

    def test_fuzzed_vs_bigint(self):
        rng = random.Random(7)
        for _ in range(100):
            planes = rng.randint(1, 4)
            counts = np.array(
                [rng.randint(0, 64 * planes) for _ in range(8)],
                dtype=np.int64,
            )
            got = matrix_to_masks(lowmask_rows(counts, planes))
            for i, c in enumerate(counts.tolist()):
                assert got[i] == (1 << c) - 1, (planes, c)


# ----------------------------------------------------------------------
# numpy is a hard dependency
# ----------------------------------------------------------------------
class TestNumpyRequired:
    def test_import_without_numpy_fails(self):
        """A process that cannot import numpy cannot import repro.sim."""
        code = (
            "import sys\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' or name.startswith('numpy.'):\n"
            "            raise ModuleNotFoundError(name=name)\n"
            "sys.meta_path.insert(0, Block())\n"
            "try:\n"
            "    import repro.sim\n"
            "except ModuleNotFoundError as e:\n"
            "    assert e.name == 'numpy', e.name\n"
            "else:\n"
            "    raise SystemExit('repro.sim imported without numpy')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
