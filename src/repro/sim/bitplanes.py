"""TokenSet <-> dense bitplane-matrix conversions for the step kernel.

The step kernel's bitplane mirror (:class:`repro.sim.state.SimState`)
holds possession and want as dense ``(vertices, planes)`` uint64 matrices:
bit ``t % 64`` of plane ``t // 64`` in row ``v`` is set iff vertex ``v``
holds token ``t``.  Token universes larger than 64 simply spill into
additional planes, so one matrix row is the exact bit-for-bit image of
the corresponding :class:`repro.core.tokenset.TokenSet` mask.

This module is the single authority on that layout.  It provides the
row/mask converters, the batched popcounts used by the kernel's
vectorized reads, and the plane-level ``take`` (lowest-``k``-members)
that mirrors :meth:`TokenSet.take`.  Everything here is proven
equivalent to the ``TokenSet``/frozenset oracle by
``tests/sim/test_bitplanes.py``.

numpy (>= 2.0, for ``bitwise_count``) is a hard dependency: importing
this module — and so :mod:`repro.sim` — without it raises
``ModuleNotFoundError``.  The simulation layer and the heuristics import
numpy as :data:`np` from here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence

import numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing

    PlaneArray = numpy.typing.NDArray[numpy.uint64]
else:  # pragma: no cover - alias for runtime annotations
    PlaneArray = Any

#: The numpy module, bound as ``Any``.  Array values in :mod:`repro.sim`
#: and :mod:`repro.heuristics` are untyped today, and both packages run
#: under strict mypy (``warn_return_any``); importing numpy through this
#: alias keeps the checked surface what it was rather than switching on
#: numpy's stubs for every kernel and vector-proposal body at once.
np: Any = numpy

__all__ = [
    "np",
    "plane_count",
    "mask_to_planes",
    "planes_to_mask",
    "masks_to_matrix",
    "matrix_to_masks",
    "popcount_rows",
    "popcount_cols",
    "take_rows",
    "lowmask_rows",
    "highbit_rows",
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


def take_rows(matrix: PlaneArray, counts: PlaneArray) -> PlaneArray:
    """Per-row lowest-``count`` members, mirroring :meth:`TokenSet.take`.

    Row ``v`` of the result keeps the ``counts[v]`` lowest set bits of
    row ``v`` of ``matrix`` (all of them when it holds fewer).  Runs in
    ``O(P)`` vectorized passes: a cumulative-popcount prefix locates the
    plane where each row's quota is exhausted, and a per-plane select
    keeps earlier planes whole, masks the boundary plane down to its
    quota, and zeroes later planes.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a (V, P) matrix, got shape {matrix.shape}")
    remaining = np.asarray(counts, dtype=np.int64).copy()
    if remaining.shape != (matrix.shape[0],):
        raise ValueError(
            f"counts shape {remaining.shape} does not match {matrix.shape[0]} rows"
        )
    if (remaining < 0).any():
        raise ValueError("counts must be non-negative")
    out = np.zeros_like(matrix)
    for p in range(matrix.shape[1]):
        plane = matrix[:, p].copy()
        pc = np.bitwise_count(plane).astype(np.int64)
        whole = pc <= remaining
        out[:, p] = np.where(whole, plane, 0)
        # Boundary rows: strip lowest bits one at a time until the quota
        # is met.  Each iteration handles every boundary row at once, so
        # the loop runs at most 63 times regardless of V.
        partial = ~whole
        quota = np.where(partial, remaining, 0)
        acc = np.zeros_like(plane)
        while partial.any():
            taking = partial & (quota > 0)
            if not taking.any():
                break
            low = plane & ~(plane - np.uint64(1))
            low = np.where(taking, low, 0)
            acc |= low
            plane ^= low
            quota -= taking.astype(np.int64)
            partial = taking
        out[:, p] |= acc
        remaining = np.maximum(remaining - pc, 0)
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


def highbit_rows(matrix: PlaneArray) -> Any:
    """Per-row index of the highest set bit, ``-1`` for all-zero rows.

    The vectorized ``mask.bit_length() - 1``: per plane, a smear-right
    fill turns the top set bit into a solid low mask whose popcount is
    the bit length; the highest nonzero plane wins.  Returns int64.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a (V, P) matrix, got shape {matrix.shape}")
    out = np.full(matrix.shape[0], -1, dtype=np.int64)
    for p in range(matrix.shape[1] - 1, -1, -1):
        plane = matrix[:, p]
        smear = plane.copy()
        for s in (1, 2, 4, 8, 16, 32):
            smear |= smear >> np.uint64(s)
        length = np.bitwise_count(smear).astype(np.int64)
        hit = (out < 0) & (plane != 0)
        out = np.where(hit, _PLANE_BITS * p + length - 1, out)
    return out
