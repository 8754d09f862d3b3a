"""TokenSet <-> dense bitplane-matrix conversions.

The step kernel's bitplane mirror (:class:`repro.sim.state.SimState`)
holds possession and want as dense ``(vertices, planes)`` uint64 matrices:
bit ``t % 64`` of plane ``t // 64`` in row ``v`` is set iff vertex ``v``
holds token ``t``.  Token universes larger than 64 simply spill into
additional planes, so one matrix row is the exact bit-for-bit image of
the corresponding :class:`repro.core.tokenset.TokenSet` mask.  A
timestep's sends use the same layout, one row per send
(:meth:`repro.core.schedule.Timestep.send_arrays`), which is what the
pruning pass (:mod:`repro.core.pruning`) and the trace emitter read.

This module is the single authority on that layout.  It provides the
row/mask converters, the unpack of a matrix into per-token bool columns
(what Bandwidth's pull rule and the trace emitter read), the batched
popcounts used by the kernel's vectorized reads, the low-position masks
that split a row at a cursor, and the per-row k-th-set-bit select that
ends the Round-Robin lap (the highest member of :meth:`TokenSet.take`).
Everything here is proven equivalent to the ``TokenSet``/frozenset
oracle by ``tests/sim/test_bitplanes.py``.  It lives in
:mod:`repro.core`, and imports nothing but numpy, so the core model can
use it without importing the simulator.

numpy (>= 2.0, for ``bitwise_count``) is a hard dependency: importing
this module without it raises ``ModuleNotFoundError``.  The core model,
the simulation layer and the heuristics import numpy as :data:`np`
from here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence

import numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing

    PlaneArray = numpy.typing.NDArray[numpy.uint64]
else:  # pragma: no cover - alias for runtime annotations
    PlaneArray = Any

#: The numpy module, bound as ``Any``.  Array values in :mod:`repro.core`,
#: :mod:`repro.sim` and :mod:`repro.heuristics` are untyped today, and
#: all three packages run under strict mypy (``warn_return_any``);
#: importing numpy through this alias keeps the checked surface what it
#: was rather than switching on numpy's stubs for every kernel, pruning
#: and vector-proposal body at once.
np: Any = numpy

__all__ = [
    "np",
    "plane_count",
    "mask_to_planes",
    "planes_to_mask",
    "masks_to_matrix",
    "matrix_to_masks",
    "token_columns",
    "popcount_rows",
    "popcount_cols",
    "lowmask_rows",
    "select_rows",
]

_PLANE_BITS = 64
_PLANE_MASK = (1 << _PLANE_BITS) - 1


def plane_count(num_tokens: int) -> int:
    """Planes needed for a ``num_tokens``-token universe (at least 1).

    A zero-token universe still gets one (all-zero) plane so that state
    matrices always have a well-defined second dimension.
    """
    if num_tokens < 0:
        raise ValueError(f"num_tokens must be non-negative, got {num_tokens}")
    return max(1, (num_tokens + _PLANE_BITS - 1) // _PLANE_BITS)


def mask_to_planes(mask: int, planes: int) -> List[int]:
    """Split an int bitmask into ``planes`` uint64-sized plane values."""
    if mask < 0:
        raise ValueError(f"token bitmask must be non-negative, got {mask}")
    out = []
    for _ in range(planes):
        out.append(mask & _PLANE_MASK)
        mask >>= _PLANE_BITS
    if mask:
        raise ValueError(f"mask has bits beyond {planes} plane(s)")
    return out


def planes_to_mask(row: Sequence[int]) -> int:
    """Recombine one row of plane values into an int bitmask."""
    mask = 0
    for i, plane in enumerate(row):
        mask |= int(plane) << (i * _PLANE_BITS)
    return mask


def masks_to_matrix(masks: Sequence[int], num_tokens: int) -> PlaneArray:
    """Pack per-vertex int bitmasks into a dense ``(V, P)`` uint64 matrix.

    One ``int.to_bytes`` per row plus a single buffer reinterpretation —
    no per-plane Python arithmetic — so packing a proposal's worth of
    send masks (or an n=10^5 possession vector) stays a small fraction
    of the batched work it feeds.
    """
    planes = plane_count(num_tokens)
    nbytes = planes * _PLANE_BITS // 8
    try:
        buf = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    except OverflowError:
        for mask in masks:
            mask_to_planes(mask, planes)  # pinpoint the bad row
        raise  # pragma: no cover — the offending row raised ValueError
    matrix = np.frombuffer(bytearray(buf), dtype="<u8").astype(
        np.uint64, copy=False
    )
    return matrix.reshape(len(masks), planes)


def matrix_to_masks(matrix: PlaneArray) -> List[int]:
    """Unpack a ``(V, P)`` plane matrix back into per-vertex int bitmasks.

    The single-plane fast path is one C-level ``tolist`` call; the
    multi-plane path folds each extra plane in with shifted ORs.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a (V, P) matrix, got shape {matrix.shape}")
    planes = matrix.shape[1]
    masks: List[int] = matrix[:, 0].tolist()
    for p in range(1, planes):
        shift = p * _PLANE_BITS
        for v, plane in enumerate(matrix[:, p].tolist()):
            if plane:
                masks[v] |= plane << shift
    return masks


def token_columns(matrix: PlaneArray, num_tokens: int) -> Any:
    """A ``(V, P)`` plane matrix as a ``(V, num_tokens)`` bool matrix.

    Entry ``[v, t]`` is bit ``t`` of row ``v``: one little-endian byte
    view of the planes and one ``unpackbits``, whatever the host's byte
    order.  ``num_tokens`` may not exceed ``64 * P``.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a (V, P) matrix, got shape {matrix.shape}")
    if not 0 <= num_tokens <= _PLANE_BITS * matrix.shape[1]:
        raise ValueError(
            f"num_tokens must lie in [0, {_PLANE_BITS * matrix.shape[1]}], got {num_tokens}"
        )
    data = np.ascontiguousarray(matrix, dtype="<u8").view(np.uint8)
    return np.unpackbits(data, axis=1, count=num_tokens, bitorder="little").view(bool)


def popcount_rows(matrix: PlaneArray) -> PlaneArray:
    """Per-row popcount of a ``(V, P)`` matrix (i.e. ``len(TokenSet)``)."""
    return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)


def popcount_cols(matrix: PlaneArray) -> List[int]:
    """Per-token column popcounts of a ``(V, P)`` matrix.

    Entry ``t`` counts the rows whose bit ``t`` is set — the batched
    form of the per-token tallies (holder counts, aggregate demand) the
    kernel's scalar gain fold maintains with per-bit Python loops.  The returned
    list has ``64 * P`` entries; trailing entries beyond the universe
    are zero by construction.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a (V, P) matrix, got shape {matrix.shape}")
    bits = np.unpackbits(
        matrix.view(np.uint8).reshape(matrix.shape[0], -1),
        axis=1,
        bitorder="little",
    )
    out: List[int] = bits.sum(axis=0, dtype=np.int64).tolist()
    return out


def lowmask_rows(counts: Any, planes: int) -> PlaneArray:
    """Per-row mask of the lowest ``counts[v]`` token *positions*.

    Row ``v`` of the result has bits ``0 .. counts[v] - 1`` set across
    however many planes that takes — the plane image of
    ``(1 << counts[v]) - 1``.  Used to split a possession row at a
    cursor position (tokens below vs at-or-above the cursor) without
    big-int shifts.  ``counts`` may be any integer array in
    ``[0, 64 * planes]``.
    """
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim != 1:
        raise ValueError(f"expected 1-D counts, got shape {c.shape}")
    if planes < 1:
        raise ValueError(f"planes must be positive, got {planes}")
    if (c < 0).any() or (c > _PLANE_BITS * planes).any():
        raise ValueError(f"counts must lie in [0, {_PLANE_BITS * planes}]")
    # Bits this row claims inside each plane: clip(c - 64p, 0, 64).
    t = np.clip(
        c[:, None] - _PLANE_BITS * np.arange(planes, dtype=np.int64)[None, :],
        0,
        _PLANE_BITS,
    )
    # (1 << t) - 1 for t < 64; the t == 64 full plane needs no shift.
    shift = np.minimum(t, _PLANE_BITS - 1).astype(np.uint64)
    partial = (np.uint64(1) << shift) - np.uint64(1)
    return np.where(t == _PLANE_BITS, np.uint64(_PLANE_MASK), partial)


#: Per byte value ``b`` and rank ``j``, the position of the ``(j+1)``-th
#: lowest set bit of ``b`` (8 when ``b`` has ``j`` or fewer), flattened
#: as ``b * 8 + j`` for :func:`select_rows`.
_SELECT_IN_BYTE = np.array(
    [
        ([bit for bit in range(8) if byte >> bit & 1] + [8] * 8)[:8]
        for byte in range(256)
    ],
    dtype=np.int64,
).reshape(-1)
_ONES_STEP_8 = np.uint64(0x0101010101010101)
_MSBS_STEP_8 = np.uint64(0x8080808080808080)


def select_rows(matrix: PlaneArray, ranks: Any) -> Any:
    """Per-row position of the ``ranks[v]``-th lowest set bit (1-based).

    Row ``v``'s answer is the token the ``ranks[v]``-th step of an
    ascending walk over row ``v`` of ``matrix`` lands on, so
    ``TokenSet.take(ranks[v])``'s highest member.  Each rank must lie in
    ``[1, popcount(row)]``.  Returns int64.

    The plane holding the target bit comes from cumulative plane
    popcounts; within that 64-bit word a broadword select (Vigna,
    "Broadword implementation of rank/select queries") finds the byte
    from its byte-wise prefix popcounts and finishes with a 2 KiB
    ``(byte, rank)`` table, so the whole call is a fixed number of
    whole-array passes whatever the ranks.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a (V, P) matrix, got shape {matrix.shape}")
    k = np.asarray(ranks, dtype=np.int64)
    if k.shape != (matrix.shape[0],):
        raise ValueError(
            f"ranks shape {k.shape} does not match {matrix.shape[0]} rows"
        )
    pc = np.bitwise_count(matrix).astype(np.int64)
    cum = np.cumsum(pc, axis=1)
    if ((k < 1) | (k > cum[:, -1])).any():
        raise ValueError("ranks must lie in [1, popcount(row)]")
    if matrix.shape[1] == 1:
        word = np.ascontiguousarray(matrix[:, 0])
        base = 0
    else:
        # Planes wholly below the target bit, and the bits they hold.
        plane = (cum < k[:, None]).sum(axis=1)
        rows = np.arange(matrix.shape[0])
        k = k - cum[rows, plane] + pc[rows, plane]
        word = matrix[rows, plane]
        base = _PLANE_BITS * plane
    k0 = (k - 1).astype(np.uint64)
    # Byte j of ``sums`` = set bits in bytes 0..j of the word (at most
    # 64, so no byte overflows); the little-endian uint8 view gives the
    # per-byte popcounts in place.
    sums = np.bitwise_count(word.view(np.uint8)).view(np.uint64) * _ONES_STEP_8
    # Bytes whose inclusive prefix count is <= k0 lie wholly below the
    # target: a borrow-free bytewise ``(k0 | 0x80) - sums`` leaves their
    # high bit set.
    below = (((k0 * _ONES_STEP_8) | _MSBS_STEP_8) - sums) & _MSBS_STEP_8
    place = np.bitwise_count(below).astype(np.uint64) << np.uint64(3)
    byte_rank = k0 - (((sums << np.uint64(8)) >> place) & np.uint64(0xFF))
    byte = (word >> place) & np.uint64(0xFF)
    offset = _SELECT_IN_BYTE[(byte << np.uint64(3)) + byte_rank]
    return base + place.astype(np.int64) + offset
