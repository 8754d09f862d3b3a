"""Shared batched request extraction for the RNG-bound vector paths.

The request-subdividing heuristics (Local, Sequential) run the same
receiver-side screen every step: find the vertices whose in-neighbors
supply tokens they lack, then — per candidate — the ascending list of
lacking tokens (the request list) and, per request, the ascending
supplier slots that hold it.  The scalar loops do this with per-vertex
big-int bit extraction; this module computes it for *every candidate at
once* from the kernel's bitplane matrices:

1. expand each candidate's in-arc segment into (candidate, slot) pairs,
2. intersect each pair's supplier possession row with the candidate's
   lacking row and expand the result to (pair, token) entries — via a
   byte-level nonzero plus a 256-entry bit-position table, so the scan
   runs over one byte per 8 tokens and everything after it is
   proportional to the entries that actually exist,
3. stable-sort the entries by (candidate, token) — slot order survives —
   so every (candidate, token) group is a contiguous run of ascending
   holder slots, and the group tokens per candidate are exactly the
   scalar request list in ascending order.

Everything is returned as plain Python lists: the consuming inner loops
index and slice them at C speed without per-element numpy scalar boxing.
The layout is proven against the scalar loops by the batch-equivalence
differential grid and the RNG-stream hypothesis suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.sim.state import SimState, VectorProposal
from repro.sim.bitplanes import np

__all__ = [
    "InArcTables",
    "GroupedRequests",
    "build_in_tables",
    "grouped_requests",
    "empty_vector_proposal",
]

#: Byte-expansion tables: per byte value, its popcount (``_POP8``), the
#: start of its run in the flattened bit-position table (``_BIT_START``),
#: and the flattened ascending bit positions themselves (``_BITS_FLAT``,
#: 1024 entries total).
_BYTE_POSITIONS = [[b for b in range(8) if v >> b & 1] for v in range(256)]
_POP8 = np.array([len(p) for p in _BYTE_POSITIONS], dtype=np.uint8)
_BIT_START = np.zeros(256, dtype=np.int64)
_BIT_START[1:] = np.cumsum(_POP8[:-1])
_BITS_FLAT = np.array([b for p in _BYTE_POSITIONS for b in p], dtype=np.int64)


@dataclass(frozen=True)
class InArcTables:
    """Global arc ids grouped by destination, in ``in_arcs`` order.

    Positions ``starts[v]:starts[v + 1]`` of ``arc_ids`` are the arcs
    into vertex ``v``, in ``problem.in_arcs(v)`` order (the stable dst
    sort preserves arc-table order within a destination, which is how
    ``in_arcs`` is built).  ``src_sorted`` carries the matching source
    vertex per position for the pair gather.  ``slot_stride`` is the
    smallest power of two exceeding every in-arc segment length, so a
    ``(request, slot)`` pair packs into one integer as
    ``request * slot_stride + slot`` with shift/mask unpacking.
    """

    arc_ids: List[int]
    arc_ids_arr: Any  # (A,) int64 ndarray mirror of ``arc_ids``
    starts: List[int]
    starts_arr: Any  # (V + 1,) int64 ndarray mirror of ``starts``
    src_sorted: Any  # (A,) int64 ndarray of arc sources, dst-grouped
    slot_stride: int


@dataclass(frozen=True)
class GroupedRequests:
    """One step's candidate/request/holder structure, as flat lists.

    Candidate ``r`` (vertex ``cand[r]``) owns groups
    ``group_ranges[r]:group_ranges[r + 1]``; group ``g`` is one request:
    token ``tokens[g]``, held by the ascending supplier slots
    ``slots[holder_start[g]:holder_end[g]]``.  Groups within a candidate
    are token-ascending, so ``tokens[gs:ge]`` *is* the scalar request
    list before shuffling.  ``tokens_arr`` mirrors ``tokens`` as an
    int64 ndarray so consumers can gather per-request attributes (e.g.
    rarity ranks) in one vector op instead of a Python loop per group.
    """

    cand: List[int]
    group_ranges: List[int]
    tokens: List[int]
    holder_start: List[int]
    holder_end: List[int]
    slots: List[int]
    tokens_arr: Any


def build_in_tables(state: SimState) -> InArcTables:
    """Build the dst-grouped in-arc tables for ``state``'s problem."""
    arc_dst = state.arc_dst
    order = np.argsort(arc_dst, kind="stable")
    starts_arr = np.searchsorted(
        arc_dst[order], np.arange(state.problem.num_vertices + 1)
    ).astype(np.int64)
    seg_lens = starts_arr[1:] - starts_arr[:-1]
    max_seg = int(seg_lens.max()) if seg_lens.size else 0
    return InArcTables(
        arc_ids=order.tolist(),
        arc_ids_arr=order.astype(np.int64, copy=False),
        starts=starts_arr.tolist(),
        starts_arr=starts_arr,
        src_sorted=state.arc_src[order],
        slot_stride=1 << max_seg.bit_length(),
    )


def grouped_requests(
    state: SimState, tables: InArcTables
) -> Optional[GroupedRequests]:
    """The step's request/holder structure, or ``None`` with no candidates.

    A candidate is a vertex lacking at least one token an in-neighbor
    holds; every lacking token therefore has at least one holder, so the
    per-candidate group tokens coincide exactly with the scalar loops'
    request lists.
    """
    matrix = state.matrix
    lacking = state.in_supply_matrix() & ~matrix
    cand = np.nonzero(lacking.any(axis=1))[0]
    if cand.size == 0:
        return None
    starts_arr = tables.starts_arr
    seg_start = starts_arr[cand]
    seg_len = starts_arr[cand + 1] - seg_start
    total = int(seg_len.sum())
    # Flat (candidate, slot) pairs: candidate row id, slot within the
    # candidate's in-arc segment, and position in the dst-grouped table.
    ends = np.cumsum(seg_len)
    offs = np.arange(total, dtype=np.int64) - np.repeat(ends - seg_len, seg_len)
    pos = np.repeat(seg_start, seg_len) + offs
    rows = np.repeat(np.arange(cand.size, dtype=np.int64), seg_len)
    holders = matrix[tables.src_sorted[pos]] & lacking[cand][rows]
    # (pair, token) entries.  The uint8 view of the uint64 planes is
    # little-endian on every supported platform, so byte ``b`` of a row
    # covers tokens ``8b .. 8b + 7``; the nonzero scan runs over bytes
    # (one eighth of a per-bit scan, and empty pairs vanish for free)
    # and each nonzero byte expands through the 256-entry popcount /
    # bit-position tables.  Everything per-entry is fused into ONE
    # packed integer ``comb = (row * width + token) * stride + slot``:
    # the byte-level prefix (key base and slot, both constant across a
    # byte's entries) is computed per nonzero byte and repeated once,
    # the bit positions come from a pre-scaled table gather, and a
    # single sort of ``comb`` yields the (candidate, token, slot)
    # lexicographic order with slots unpacked by mask/shift — no
    # per-entry pair ids, no second gather, two repeats total.
    nbytes = 8 * state.planes
    width = 64 * state.planes
    stride = tables.slot_stride
    shift = stride.bit_length() - 1
    flat = holders.view(np.uint8).ravel()
    nz = np.flatnonzero(flat)
    vals = flat[nz]
    counts = _POP8[vals].astype(np.int64)
    num_entries = int(counts.sum())
    ends_e = np.cumsum(counts)
    comb_bound = (cand.size * width) << shift
    dtype = np.int32 if comb_bound < 2**31 else np.int64
    rowbase = ((rows * width) << shift) + offs
    if nbytes & (nbytes - 1) == 0:
        byte_shift = nbytes.bit_length() - 1
        comb_b = (
            rowbase[nz >> byte_shift] + ((nz & (nbytes - 1)) << (shift + 3))
        ).astype(dtype, copy=False)
    else:
        comb_b = (
            rowbase[nz // nbytes] + ((nz % nbytes) << (shift + 3))
        ).astype(dtype, copy=False)
    idx = np.arange(num_entries, dtype=np.int64) + np.repeat(
        _BIT_START[vals] + counts - ends_e, counts
    )
    comb = np.repeat(comb_b, counts) + (_BITS_FLAT << shift).astype(dtype)[idx]
    # comb values are unique (one entry per (pair, token)), so the
    # default unstable introsort is order-equivalent to a stable sort
    # — and measurably faster than both timsort and a two-pass uint16
    # radix split at the entry counts the screen produces.
    entry_order = np.argsort(comb)
    comb_sorted = comb[entry_order]
    slots = comb_sorted & (stride - 1)
    key_sorted = comb_sorted >> shift
    bounds = np.flatnonzero(key_sorted[1:] != key_sorted[:-1]) + 1
    group_start = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
    group_end = np.concatenate((bounds, np.array([key_sorted.size], dtype=np.int64)))
    group_key = key_sorted[group_start]
    group_row = group_key // width
    tokens_arr = (group_key % width).astype(np.int64)
    return GroupedRequests(
        cand=cand.tolist(),
        group_ranges=np.searchsorted(group_row, np.arange(cand.size + 1)).tolist(),
        tokens=tokens_arr.tolist(),
        holder_start=group_start.tolist(),
        holder_end=group_end.tolist(),
        slots=slots.tolist(),
        tokens_arr=tokens_arr,
    )


def empty_vector_proposal() -> VectorProposal:
    """A zero-send :class:`~repro.sim.state.VectorProposal`."""
    return VectorProposal(
        arc_indices=np.zeros(0, dtype=np.int64),
        masks=np.zeros(0, dtype=np.uint64),
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
    ascending, supplier slots ascending within each — which is exactly
    the scalar Local loop's proposal-dict insertion order.  (Not usable
    for heuristics whose dict order is chronological first-touch, like
    Sequential.)
    """
    if not asg_pos:
        return empty_vector_proposal()
    planes = state.planes
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
