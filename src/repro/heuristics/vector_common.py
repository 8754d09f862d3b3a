"""Shared batched request extraction for the RNG-bound vector paths.

The request-subdividing heuristic (Local, and Sequential, which only
reorders its requests) runs one receiver-side screen every step: find
the vertices whose in-neighbors supply tokens they lack, then — per
candidate — the ascending list of lacking tokens (the request list)
and, per request, the supplier slots that hold it.  This module
computes it for *every candidate at once* from the kernel's bitplane
matrix and the heuristic's :class:`InArcTables`:

1. OR each vertex's in-arc segment of source rows into its supply
   union (one gather, one grouped ``reduceat``) and keep the vertices
   lacking a supplied token as candidates,
2. expand each candidate's in-arc segment into (candidate, slot) pairs,
3. intersect each pair's supplier possession row with the candidate's
   lacking row and expand the result to (pair, token) entries with a
   bit scan (``unpackbits`` plus a boolean ``flatnonzero``) over the
   nonzero bytes only, so the work follows the entries that exist,
4. fold the entries into one supplier-slot bitmask per (candidate,
   token): bit ``i`` is set iff slot ``i`` holds the token.  Each
   (candidate, token, slot) entry is unique, so the grouped OR is an
   exact integer ``add.at`` into a zeroed ``(candidates * width,
   words)`` table — no sort.  The groups are the candidates' lacking
   bits in row-major order, (candidate, token-ascending): per
   candidate, exactly its request list.

The assignment loop then draws only over ``suppliers[g] & live``, where
``live`` holds the slots with request budget left; its bits ascend in
slot order, the in-arc order the frozen supplier scan in
:mod:`repro.sim.reference` draws in.  Local shuffles through
:func:`list_shuffler`, which inlines ``Random.shuffle``, and
:func:`pack_assignments` folds the grants into sends.

Everything is returned as plain Python lists: the consuming inner loops
index them at C speed without per-element numpy scalar boxing.  The
layout is proven against the frozen reference by the batch-equivalence
differential grid and the RNG-stream suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.core.bitplanes import matrix_to_masks, np
from repro.core.problem import Problem
from repro.sim.state import SimState, VectorProposal

__all__ = [
    "InArcTables",
    "GroupedRequests",
    "build_in_tables",
    "grouped_requests",
    "empty_vector_proposal",
    "list_shuffler",
]


@dataclass(frozen=True)
class InArcTables:
    """Global arc ids grouped by destination, in ``in_arcs`` order.

    Positions ``starts[v]:starts[v + 1]`` of ``arc_ids`` are the arcs
    into vertex ``v``, in ``problem.in_arcs(v)`` order (the stable dst
    sort preserves arc-table order within a destination, which is how
    ``in_arcs`` is built); a position's offset from ``starts[v]`` is its
    supplier *slot*.  ``src_sorted`` carries the matching source vertex
    per position for the supply union and the pair gather, and ``fed``
    lists the vertices with at least one in-arc.  ``slot_words`` is the
    number of uint64 words a supplier-slot bitmask of the largest
    in-degree needs.
    """

    arc_ids: List[int]
    arc_ids_arr: Any  # (A,) int64 ndarray mirror of ``arc_ids``
    starts: List[int]
    starts_arr: Any  # (V + 1,) int64 ndarray mirror of ``starts``
    src_sorted: Any  # (A,) int64 ndarray of arc sources, dst-grouped
    fed: Any  # int64 ndarray of the vertices with in-arcs, ascending
    slot_words: int


@dataclass(frozen=True)
class GroupedRequests:
    """One step's candidate/request/supplier structure, as flat lists.

    Candidate ``r`` (vertex ``cand[r]``) owns groups
    ``group_ranges[r]:group_ranges[r + 1]``; group ``g`` is one request:
    token ``tokens[g]``, held by the supplier slots set in the bitmask
    ``suppliers[g]``.  Groups within a candidate are token-ascending, so
    ``tokens[gs:ge]`` *is* the candidate's request list before ordering.
    ``tokens_arr`` mirrors ``tokens`` as an int64 ndarray so consumers
    can gather per-request attributes (e.g. rarity ranks) in one vector
    op instead of a Python loop per group.
    """

    cand: List[int]
    group_ranges: List[int]
    tokens: List[int]
    suppliers: List[int]
    tokens_arr: Any


def build_in_tables(problem: Problem) -> InArcTables:
    """Build the dst-grouped in-arc tables for ``problem``."""
    arcs = problem.arc_arrays()
    order = np.argsort(arcs.dst, kind="stable")
    starts_arr = np.searchsorted(
        arcs.dst[order], np.arange(problem.num_vertices + 1)
    ).astype(np.int64)
    seg_lens = starts_arr[1:] - starts_arr[:-1]
    max_seg = int(seg_lens.max()) if seg_lens.size else 0
    return InArcTables(
        arc_ids=order.tolist(),
        arc_ids_arr=order.astype(np.int64, copy=False),
        starts=starts_arr.tolist(),
        starts_arr=starts_arr,
        src_sorted=arcs.src[order],
        fed=np.flatnonzero(seg_lens),
        slot_words=max(1, (max_seg + 63) // 64),
    )


def grouped_requests(
    state: SimState, tables: InArcTables
) -> Optional[GroupedRequests]:
    """The step's request/supplier structure, or ``None`` with no candidates.

    A candidate is a vertex lacking at least one token an in-neighbor
    holds; its lacking tokens are those of its supply union (the OR of
    its in-neighbors' rows) it does not hold, so every one has at least
    one holder and the candidate's groups are exactly its request list.
    """
    matrix = state.matrix
    fed = tables.fed
    lacking = np.zeros_like(matrix)
    if fed.size:
        # Consecutive fed vertices' segments abut, so each reduceat
        # slice is exactly one vertex's in-arcs.
        lacking[fed] = np.bitwise_or.reduceat(
            matrix[tables.src_sorted], tables.starts_arr[fed], axis=0
        )
    lacking &= ~matrix
    cand = np.flatnonzero(lacking.any(axis=1))
    if cand.size == 0:
        return None
    starts_arr = tables.starts_arr
    seg_start = starts_arr[cand]
    seg_len = starts_arr[cand + 1] - seg_start
    total = int(seg_len.sum())
    # Flat (candidate, slot) pairs: candidate row id, slot within the
    # candidate's in-arc segment, and position in the dst-grouped table.
    ends = np.cumsum(seg_len)
    slot = np.arange(total, dtype=np.int64) - np.repeat(ends - seg_len, seg_len)
    pos = np.repeat(seg_start, seg_len) + slot
    rows = np.repeat(np.arange(cand.size, dtype=np.int64), seg_len)
    holders = matrix[tables.src_sorted[pos]] & lacking[cand][rows]
    # (pair, token) entries: a bit scan over the nonzero bytes of the
    # pairs' rows.  The uint8 view of the uint64 planes is little-endian
    # on every supported platform, so flat byte ``j`` of ``holders``
    # covers tokens ``8 * j - width * pair + (0..7)`` of pair ``j //
    # nbytes``, and little-endian ``unpackbits`` puts bit ``b`` of the
    # ``k``-th nonzero byte at ``8 * k + b``.  An entry lands in table
    # cell ``(row * width + token) * words + slot // 64`` as bit ``slot
    # % 64`` — all fixed per byte except ``b``.
    nbytes = 8 * state.planes
    width = 64 * state.planes
    words = tables.slot_words
    pair_cell = (rows - np.arange(total, dtype=np.int64)) * (width * words) + (
        slot >> 6
    )
    pair_bit = np.uint64(1) << (slot & 63).astype(np.uint64)
    flat = holders.view(np.uint8).reshape(-1)
    nonzero = np.flatnonzero(flat != 0)
    byte_pair = nonzero // nbytes
    byte_cell = nonzero * (8 * words) + pair_cell[byte_pair]
    byte_bit = pair_bit[byte_pair]
    hit = np.flatnonzero(np.unpackbits(flat[nonzero], bitorder="little").view(bool))
    k = hit >> 3
    offset = hit & 7
    if words > 1:
        offset *= words
    # The grouped OR: an entry's (cell, bit) pair is unique, so adding
    # distinct powers of two is exact — and in C, unlike a float
    # bincount, at any in-degree.  ``np.zeros`` maps the table lazily,
    # so only the pages the entries touch cost anything.
    table = np.zeros((cand.size * width, words), dtype=np.uint64)
    np.add.at(table.reshape(-1), byte_cell[k] + offset, byte_bit[k])
    # The groups are the candidates' lacking bits (each has a holder),
    # ascending: (candidate, token) order.
    lack_bits = np.unpackbits(lacking[cand].view(np.uint8), bitorder="little")
    group_key = np.flatnonzero(lack_bits.view(bool))
    tokens_arr = group_key % width
    return GroupedRequests(
        cand=cand.tolist(),
        group_ranges=np.searchsorted(
            group_key // width, np.arange(cand.size + 1)
        ).tolist(),
        tokens=tokens_arr.tolist(),
        suppliers=matrix_to_masks(table[group_key]),
        tokens_arr=tokens_arr,
    )


def list_shuffler(rng: random.Random) -> Callable[[List[int]], None]:
    """``rng.shuffle``, inlined when ``rng`` is a plain ``random.Random``.

    ``Random.shuffle`` swaps ``x[i]`` with ``x[randbelow(i + 1)]`` for
    ``i`` descending, and a ``Random`` whose ``random``/``getrandbits``
    are not overridden draws ``randbelow(n)`` as ``getrandbits(k)`` with
    ``k = n.bit_length()``, rejecting results ``>= n``.  The inlined loop
    makes exactly those ``getrandbits`` calls, so the permutation and the
    generator state afterwards are identical; it only drops two Python
    method calls per element.  Any other generator (a subclass may
    override either method) keeps its own ``shuffle``.
    """
    if type(rng) is not random.Random:
        return rng.shuffle
    getrandbits = rng.getrandbits

    def shuffle(x: List[int]) -> None:
        for i in range(len(x) - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]

    return shuffle


def empty_vector_proposal(planes: int) -> VectorProposal:
    """A zero-send :class:`~repro.sim.state.VectorProposal` whose masks
    have the shape of a ``planes``-plane universe."""
    return VectorProposal(
        arc_indices=np.zeros(0, dtype=np.int64),
        masks=np.zeros(0 if planes == 1 else (0, planes), dtype=np.uint64),
    )


def pack_assignments(
    state: SimState,
    tables: InArcTables,
    asg_pos: List[int],
    asg_tok: List[int],
) -> VectorProposal:
    """Fold per-assignment ``(in-arc position, token)`` pairs into sends.

    The assignment loops record one flat pair per granted token instead
    of accumulating per-send bitmasks in Python; this packs them into
    the :class:`VectorProposal` arrays with one stable sort and one
    grouped OR.  Send order is ascending table position — candidates
    ascending, supplier slots ascending within each — whatever order
    the requests were served in.
    """
    planes = state.planes
    if not asg_pos:
        return empty_vector_proposal(planes)
    pos = np.array(asg_pos, dtype=np.int64)
    tok = np.array(asg_tok, dtype=np.int64)
    bit = np.uint64(1) << (tok & 63).astype(np.uint64)
    if planes == 1:
        order = np.argsort(pos, kind="stable")
        key_sorted = pos[order]
    else:
        key = pos * planes + (tok >> 6)
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
    starts = np.flatnonzero(
        np.concatenate((np.ones(1, dtype=bool), key_sorted[1:] != key_sorted[:-1]))
    )
    group_masks = np.bitwise_or.reduceat(bit[order], starts)
    group_key = key_sorted[starts]
    if planes == 1:
        arc_indices = tables.arc_ids_arr[group_key]
        return VectorProposal(arc_indices=arc_indices, masks=group_masks)
    group_pos = group_key // planes
    group_plane = group_key % planes
    # group_pos is sorted (key order), so runs mark distinct sends.
    new_send = np.concatenate(
        (np.ones(1, dtype=bool), group_pos[1:] != group_pos[:-1])
    )
    rows = np.cumsum(new_send) - 1
    send_pos = group_pos[new_send]
    masks = np.zeros((send_pos.size, planes), dtype=np.uint64)
    masks[rows, group_plane] = group_masks
    return VectorProposal(
        arc_indices=tables.arc_ids_arr[send_pos], masks=masks
    )
