"""The vectorized batch step kernel: :class:`BatchState`.

:class:`BatchState` is a drop-in subclass of :class:`repro.sim.SimState`
that additionally mirrors possession into a dense ``(vertices, planes)``
uint64 bitplane matrix (layout: :mod:`repro.sim.bitplanes`).  Every list
the base kernel maintains — ``possession``, ``possession_masks``,
``holder_counts``, ``deficit``, the gain journal — is inherited
unchanged, so heuristics and engines that read those see *exactly* the
state a plain ``SimState`` would give them, bit for bit.  On top of
that, the matrix enables batched array ops where per-vertex Python
loops used to run:

* :meth:`in_supply_matrix` — the per-vertex union of in-neighbor
  possession (the request-subdividing heuristics' supply scan) as one
  gather plus one ``bitwise_or.reduceat`` over dst-grouped arcs;
* :meth:`any_useful_arc` — the stall test as a single vectorized
  comparison over all arcs;
* :meth:`validate_vector` — batched capacity/possession validation of a
  :class:`VectorProposal` (the engine's fast path for heuristics that
  can propose as arrays — all four paper heuristics).

The matrix is synced *lazily* from the inherited gain journal: a run
that never touches a batched read (e.g. the LOCD runner) pays nothing
beyond the initial pack.  Since the journal already carries every
possession change, replaying it is exact — the matrix row of a vertex
is always the bit image of ``possession_masks[v]`` at sync time.

Equivalence contract: engines built on :class:`BatchState` produce
schedules and JSONL traces byte-identical to :class:`SimState` and the
frozen oracle in :mod:`repro.sim.reference` on every supported
configuration (``tests/sim/test_batch_equivalence.py``).  The batched
reads return the same *values* the scalar loops compute, so heuristics
consume their RNG streams identically; RNG-bound vector proposal paths
call the engine RNG directly, in the exact order their scalar loops
do, so ``rng.getstate()`` agrees after every step.

Engines select a kernel through
:func:`repro.sim.engine.resolve_state_factory`: ``"state"`` (the default
everywhere), ``"batch"`` (this class), or a callable
``Problem -> SimState`` for tests that inject instrumented kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.problem import Problem
from repro.core.schedule import MoveError, Timestep
from repro.core.tokenset import TokenSet
from repro.sim.bitplanes import (
    masks_to_matrix,
    matrix_to_masks,
    np,
    plane_count,
    planes_to_mask,
    popcount_cols,
)
from repro.sim.engine import violation
from repro.sim.state import SimState

__all__ = ["BatchState", "VectorProposal"]

_PLANE_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class VectorProposal:
    """One timestep's sends as parallel arrays instead of a dict.

    ``arc_indices`` indexes into ``problem.arcs`` in the **order the
    scalar heuristic inserts sends into its proposal dict** (ascending
    arc index for Round-Robin and Random; per-vertex supplier order for
    the request-subdividing heuristics) — the lazy timestep and the
    arrival fold preserve it, so dict iteration order downstream matches
    the scalar path exactly.  ``masks`` holds the send bitmasks, either
    a ``(K,)`` uint64 vector for single-plane universes or a
    ``(K, planes)`` uint64 matrix (:mod:`repro.sim.bitplanes` layout)
    for universes beyond 64 tokens.  Rows with empty masks must be
    omitted, mirroring the dict path's validation dropping empty sends.
    """

    arc_indices: Any  # (K,) integer ndarray, scalar dict-insertion order
    masks: Any  # (K,) uint64 or (K, planes) uint64 ndarray, rows nonzero


class _LazyVectorTimestep(Timestep):
    """A validated :class:`Timestep` that materializes its dict lazily.

    The vector path validates sends wholesale as arrays; building the
    ``{arc: TokenSet}`` dict eagerly would put a Python loop over every
    send back into the hot path just to store the schedule.  Instead the
    index/mask arrays are kept and the dict is built on first ``sends``
    access (trace emission, pruning, equality — all off the hot path),
    in proposal order, exactly as the eager validator inserts it.
    ``num_moves`` is precomputed from a popcount so schedule bandwidth
    never forces materialization, and :meth:`iter_sends_masks` streams
    the sends in bounded chunks so schedule comparison at the 10^5-swarm
    scale never holds two materialized dicts at once.

    ``masks`` follows the :class:`VectorProposal` shape contract: a
    ``(K,)`` uint64 vector (single plane) or a ``(K, planes)`` matrix.
    """

    __slots__ = ("_keys", "_idx", "_masks", "_moves")

    def __init__(
        self, keys: List[Tuple[int, int]], idx: Any, masks: Any, moves: int
    ) -> None:
        # Deliberately skip Timestep.__init__: the base class's
        # ``sends`` slot stays *unset*, so the first attribute access
        # falls through to ``__getattr__`` below, which materializes
        # the dict into the slot.  Later accesses hit the slot direct.
        self._keys = keys
        self._idx = idx
        self._masks = masks
        self._moves = moves

    def _mask_ints(self, lo: int, hi: int) -> List[int]:
        """Rows ``lo:hi`` of the mask array as Python int bitmasks."""
        masks = self._masks
        if masks.ndim == 1:
            out: List[int] = masks[lo:hi].tolist()
            return out
        return matrix_to_masks(masks[lo:hi])

    def __getattr__(self, name: str) -> Any:
        if name == "sends":
            keys = self._keys
            sends = {
                keys[i]: TokenSet(mask)
                for i, mask in zip(self._idx.tolist(), self._mask_ints(0, len(self._idx)))
            }
            self.sends = sends
            return sends
        raise AttributeError(name)

    def iter_sends_masks(
        self, chunk: int = 1 << 16
    ) -> Iterator[Tuple[Tuple[int, int], int]]:
        """Yield ``((src, dst), mask)`` sends in proposal order, chunked.

        Unlike a ``sends`` access this never caches the dict: each chunk
        of rows is converted, yielded, and dropped, so comparing two
        n=10^5 schedules streams in O(chunk) extra memory per side.  If
        the dict was already materialized it is reused directly.
        """
        sends_slot = Timestep.__dict__["sends"]
        try:
            sends = sends_slot.__get__(self, type(self))
        except AttributeError:
            pass
        else:
            for key, tokens in sends.items():
                yield key, tokens.mask
            return
        keys = self._keys
        idx = self._idx
        for lo in range(0, len(idx), chunk):
            hi = lo + chunk
            ids: List[int] = idx[lo:hi].tolist()
            for i, mask in zip(ids, self._mask_ints(lo, hi)):
                yield keys[i], mask

    def num_moves(self) -> int:
        return self._moves


class BatchState(SimState):
    """A :class:`SimState` with a lazily-synced dense bitplane mirror.

    All inherited state is maintained by the base class exactly as
    before; the subclass only *adds* reads.
    """

    __slots__ = (
        "planes",
        "_matrix",
        "_matrix_version",
        "_arc_src",
        "_arc_dst",
        "_arc_cap",
        "_arc_keys",
        "_in_gather",
        "_in_starts",
        "_in_dsts",
        "_in_dsts_arr",
        "_supply_mat_cache",
        "_supply_mat_version",
        "_useful_cache",
        "_useful_version",
        "_want_mat",
        "_arrival_fold",
    )

    #: Engines probe this before offering heuristics the vector proposal
    #: fast path.
    supports_vector = True

    def __init__(
        self, problem: Problem, possession: Optional[Iterable[TokenSet]] = None
    ) -> None:
        super().__init__(problem, possession)
        self.planes = plane_count(problem.num_tokens)
        self._matrix = masks_to_matrix(self.possession_masks, problem.num_tokens)
        self._matrix_version = self.version
        # Arc index arrays and supply groups are built on first use so
        # drivers that never take a batched read (LOCD) skip them.
        self._arc_src: Any = None
        self._arc_dst: Any = None
        self._arc_cap: Any = None
        self._arc_keys: Optional[List[Tuple[int, int]]] = None
        self._in_gather: Any = None
        self._in_starts: Any = None
        self._in_dsts: Optional[List[int]] = None
        self._in_dsts_arr: Any = None
        self._supply_mat_cache: Any = None
        self._supply_mat_version = -1
        self._useful_cache = False
        self._useful_version = -1
        self._want_mat: Any = None
        # The last validate_vector arrival fold, kept as arrays so
        # apply_arrivals can skip the dict/bigint round trip when the
        # engine hands the same dict straight back.
        self._arrival_fold: Optional[Tuple[Dict[int, int], Any, Any]] = None

    # ------------------------------------------------------------------
    # Matrix mirror
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> Any:
        """The ``(V, P)`` possession matrix, synced to the current state.

        Sync replays the journal entries applied since the last read and
        rewrites just those vertices' rows from ``possession_masks`` —
        the masks are current, and possession only grows, so rewriting a
        row repeatedly is idempotent.  O(gains since last read).
        """
        journal = self._journal
        cursor = self._matrix_version
        if cursor != len(journal):
            matrix = self._matrix
            masks = self.possession_masks
            if self.planes == 1:
                for dst, _gained in journal[cursor:]:
                    matrix[dst, 0] = masks[dst]
            else:
                for dst, _gained in journal[cursor:]:
                    mm = masks[dst]
                    for p in range(self.planes):
                        matrix[dst, p] = mm & _PLANE_MASK
                        mm >>= 64
            self._matrix_version = len(journal)
        return self._matrix

    def _ensure_arc_arrays(self) -> None:
        if self._arc_keys is not None:
            return
        arcs = self.problem.arcs
        n_arcs = len(arcs)
        self._arc_src = np.fromiter(
            (a.src for a in arcs), dtype=np.int64, count=n_arcs
        )
        self._arc_dst = np.fromiter(
            (a.dst for a in arcs), dtype=np.int64, count=n_arcs
        )
        self._arc_cap = np.fromiter(
            (a.capacity for a in arcs), dtype=np.int64, count=n_arcs
        )
        self._arc_keys = [(a.src, a.dst) for a in arcs]

    @property
    def arc_src(self) -> Any:
        """Per-arc source vertex ids as an int64 array (arc order)."""
        self._ensure_arc_arrays()
        return self._arc_src

    @property
    def arc_dst(self) -> Any:
        """Per-arc destination vertex ids as an int64 array (arc order)."""
        self._ensure_arc_arrays()
        return self._arc_dst

    @property
    def arc_cap(self) -> Any:
        """Per-arc capacities as an int64 array (arc order)."""
        self._ensure_arc_arrays()
        return self._arc_cap

    # ------------------------------------------------------------------
    # Batched reads
    # ------------------------------------------------------------------
    def _ensure_in_groups(self) -> None:
        """Build the dst-grouped in-arc gather tables on first use."""
        if self._in_dsts is not None:
            return
        self._ensure_arc_arrays()
        if len(self._arc_keys or []) == 0:
            self._in_dsts = []
            return
        order = np.argsort(self._arc_dst, kind="stable")
        dsts, starts = np.unique(self._arc_dst[order], return_index=True)
        self._in_gather = self._arc_src[order]
        self._in_starts = starts
        self._in_dsts = [int(d) for d in dsts]
        self._in_dsts_arr = dsts

    def in_supply_matrix(self) -> Any:
        """Per-vertex union of in-neighbor possession as a ``(V, P)`` matrix.

        Row ``v`` is the plane image of
        ``OR(possession_masks[src] for arcs src -> v)`` — the supply
        scan every request-subdividing heuristic runs per vertex per
        step — computed for all vertices at once with one gather and one
        grouped-OR reduction.  Cached per state version.  Callers must
        not mutate the returned array.
        """
        version = self.version
        cached = self._supply_mat_cache
        if cached is not None and self._supply_mat_version == version:
            return cached
        matrix = self.matrix
        out = np.zeros_like(matrix)
        self._ensure_in_groups()
        if self._in_dsts:
            unions = np.bitwise_or.reduceat(
                matrix[self._in_gather], self._in_starts, axis=0
            )
            out[self._in_dsts_arr] = unions
        self._supply_mat_cache = out
        self._supply_mat_version = version
        return out

    def token_demand(self) -> List[int]:
        """Per-token demand, materialised from the matrix in one pass.

        Same integers as the base kernel's O(V * m) per-bit scan —
        column popcounts of ``want & ~possession`` are exact — after
        which the inherited gain fold maintains the list in place.
        """
        if self._token_deficit is None:
            want = masks_to_matrix(self._want_masks, self.problem.num_tokens)
            self._token_deficit = popcount_cols(want & ~self.matrix)[
                : self.problem.num_tokens
            ]
        return self._token_deficit

    #: Below this many destination gains, the base class's per-bit fold
    #: beats the array round trip of the vectorized arrival fold.
    _VECTOR_ARRIVALS_MIN = 16

    def _want_matrix(self) -> Any:
        """The per-vertex want masks as a cached ``(V, P)`` matrix."""
        if self._want_mat is None:
            self._want_mat = masks_to_matrix(
                self._want_masks, self.problem.num_tokens
            )
        return self._want_mat

    def _apply_fold(self, dsts_arr: Any, folded: Any) -> None:
        """Apply a validate_vector arrival fold straight from its arrays.

        Row ``k`` of ``folded`` is the arrival mask of ``dsts_arr[k]``,
        in first-encounter order — the exact dict the base class would
        iterate, so journal order and every derived tally match the
        scalar fold bit for bit.  Gains, wanted counts, and the matrix
        scatter are computed vectorized; only the per-destination list
        updates remain Python.
        """
        matrix = self.matrix  # sync before scattering below
        gained = folded & ~matrix[dsts_arr]
        nonzero = gained.any(axis=1)
        if not nonzero.all():
            keep = np.nonzero(nonzero)[0]
            dsts_arr = dsts_arr[keep]
            gained = gained[keep]
        if dsts_arr.size == 0:
            return
        wanted = gained & self._want_matrix()[dsts_arr]
        wanted_counts = np.bitwise_count(wanted).sum(axis=1, dtype=np.int64)
        gained_ints = matrix_to_masks(gained)
        possession_masks = self.possession_masks
        possession = self.possession
        deficit = self.deficit
        journal = self._journal
        track_dirty = self._arc_useful is not None
        dirty_flags = self._dirty_flags
        dirty = self._dirty
        for dst, g, c in zip(
            dsts_arr.tolist(), gained_ints, wanted_counts.tolist()
        ):
            new_mask = possession_masks[dst] | g
            possession_masks[dst] = new_mask
            possession[dst] = TokenSet(new_mask)
            if c:
                deficit[dst] -= c
            journal.append((dst, g))
            if track_dirty and not dirty_flags[dst]:
                dirty_flags[dst] = 1
                dirty.append(dst)
        self.total_deficit -= int(wanted_counts.sum())
        num_tokens = self.problem.num_tokens
        holder_counts = self.holder_counts
        for t, c in enumerate(popcount_cols(gained)[:num_tokens]):
            if c:
                holder_counts[t] += c
        token_deficit = self._token_deficit
        if token_deficit is not None:
            for t, c in enumerate(popcount_cols(wanted)[:num_tokens]):
                if c:
                    token_deficit[t] -= c
        # The journal entries above are already reflected in the rows
        # scattered here, so the lazy sync can skip them.
        matrix[dsts_arr] |= gained
        self._matrix_version = len(journal)

    def apply_arrivals(self, arrivals: Dict[int, int]) -> None:
        """Batched arrival fold: per-token tallies as column popcounts.

        When ``arrivals`` is the dict the last :meth:`validate_vector`
        call built, the fold's arrays are reused directly
        (:meth:`_apply_fold`) and the dict is never touched.  Otherwise
        the per-destination bookkeeping (possession masks, deficits,
        journal, dirty tracking) stays a Python loop — one big-int op
        per destination, in the exact order the base class applies
        gains — but the per-*bit* loops that update ``holder_counts``
        and the demand vector are replaced by column popcounts over the
        step's gained-token matrix, so their cost is proportional to
        matrix bytes, not gained tokens times Python-loop overhead.
        """
        fold = self._arrival_fold
        if fold is not None and fold[0] is arrivals:
            self._arrival_fold = None
            self._apply_fold(fold[1], fold[2])
            return
        if len(arrivals) < self._VECTOR_ARRIVALS_MIN:
            super().apply_arrivals(arrivals)
            return
        possession_masks = self.possession_masks
        possession = self.possession
        want_masks = self._want_masks
        journal = self._journal
        deficit = self.deficit
        track_dirty = self._arc_useful is not None
        dirty_flags = self._dirty_flags
        dirty = self._dirty
        gained_list: List[int] = []
        wanted_list: List[int] = []
        total_wanted = 0
        for dst, mask in arrivals.items():
            prev = possession_masks[dst]
            gained = mask & ~prev
            if not gained:
                continue
            new_mask = prev | gained
            possession_masks[dst] = new_mask
            possession[dst] = TokenSet(new_mask)
            newly_wanted = gained & want_masks[dst]
            if newly_wanted:
                c = newly_wanted.bit_count()
                deficit[dst] -= c
                total_wanted += c
            journal.append((dst, gained))
            if track_dirty and not dirty_flags[dst]:
                dirty_flags[dst] = 1
                dirty.append(dst)
            gained_list.append(gained)
            wanted_list.append(newly_wanted)
        if not gained_list:
            return
        self.total_deficit -= total_wanted
        num_tokens = self.problem.num_tokens
        holder_counts = self.holder_counts
        gained_cols = popcount_cols(masks_to_matrix(gained_list, num_tokens))
        for t, c in enumerate(gained_cols[:num_tokens]):
            if c:
                holder_counts[t] += c
        token_deficit = self._token_deficit
        if token_deficit is not None and total_wanted:
            wanted_cols = popcount_cols(
                masks_to_matrix(wanted_list, num_tokens)
            )
            for t, c in enumerate(wanted_cols[:num_tokens]):
                if c:
                    token_deficit[t] -= c

    def any_useful_arc(self) -> bool:
        """Vectorized stall test: one comparison over all arcs at once.

        Same answer as the base class's dirty-tracked scan (an arc is
        useful iff its tail holds a token its head lacks); cached per
        state version since possession only changes through the journal.
        """
        version = self.version
        if self._useful_version == version:
            return self._useful_cache
        self._ensure_arc_arrays()
        matrix = self.matrix
        if len(self._arc_keys or []) == 0:
            useful = False
        else:
            useful = bool(
                np.any(matrix[self._arc_src] & ~matrix[self._arc_dst])
            )
        self._useful_cache = useful
        self._useful_version = version
        return useful

    # ------------------------------------------------------------------
    # Vector proposal validation (the engine fast path)
    # ------------------------------------------------------------------
    def validate_vector(
        self, vec: VectorProposal, heuristic_name: str, step: int
    ) -> Tuple[Timestep, Dict[int, int]]:
        """Batched equivalent of :func:`repro.core.schedule.check_sends`.

        Checks every send's capacity and sender possession as array ops,
        then materializes the validated :class:`Timestep` and the per-
        vertex arrival masks in one pass over the nonzero sends.  Raises
        :class:`HeuristicViolation` with the same message the scalar
        validator produces for the same offense, built by the same
        :class:`~repro.core.schedule.MoveError` constructors (capacity
        violations are all reported before possession violations; a
        well-behaved vector heuristic never triggers either).  Arc
        existence holds by construction, since a vector proposal indexes
        the problem's arcs; tokens outside the universe fail the
        possession check, since no vertex holds them.
        """
        self._ensure_arc_arrays()
        arc_keys = self._arc_keys
        assert arc_keys is not None
        idx = vec.arc_indices
        masks = vec.masks
        multi = masks.ndim == 2
        if multi:
            counts = np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
        else:
            counts = np.bitwise_count(masks).astype(np.int64)
        caps = self._arc_cap[idx]
        over = counts > caps
        if over.any():
            i = int(np.argmax(over))
            src, dst = arc_keys[int(idx[i])]
            raise violation(
                heuristic_name,
                step,
                MoveError.over_capacity(src, dst, int(counts[i]), int(caps[i])),
            )
        if multi:
            bad = masks & ~self.matrix[self._arc_src[idx]]
            bad_rows = bad.any(axis=1)
        else:
            bad = masks & ~self.matrix[self._arc_src[idx], 0]
            bad_rows = bad != 0
        if bad_rows.any():
            i = int(np.argmax(bad_rows))
            src, _dst = arc_keys[int(idx[i])]
            missing = planes_to_mask(bad[i]) if multi else int(bad[i])
            raise violation(heuristic_name, step, MoveError.unpossessed(src, missing))
        arrivals: Dict[int, int] = {}
        if len(idx):
            # Per-destination arrival masks as one grouped OR over the
            # dst-sorted sends, re-emitted in first-encounter order: the
            # stable sort keeps each destination group's earliest send
            # first, so ``order[starts]`` is the proposal position where
            # each destination first appears, and sorting the groups by
            # it reproduces the eager fold's dict insertion order
            # exactly — arrival values *and* order match the scalar
            # validator, so journal replay stays bit- and order-
            # identical between kernels.
            dsts = self._arc_dst[idx]
            order = np.argsort(dsts, kind="stable")
            udst, starts = np.unique(dsts[order], return_index=True)
            grouped = np.bitwise_or.reduceat(masks[order], starts, axis=0)
            encounter = np.argsort(order[starts], kind="stable")
            folded = grouped[encounter]
            arr_masks: List[int] = (
                matrix_to_masks(folded) if multi else folded.tolist()
            )
            arrivals = dict(zip(udst[encounter].tolist(), arr_masks))
            # Keep the fold as arrays: when the engine hands this dict
            # straight to apply_arrivals, the fold path skips the
            # dict/bigint round trip entirely.  The handshake is only
            # sound if nothing can touch the dict in between, so a
            # subclass overriding validate_vector (the seeded-fault
            # hook) stays on the dict-driven path and its mutations
            # remain authoritative.
            if type(self).validate_vector is BatchState.validate_vector:
                self._arrival_fold = (
                    arrivals,
                    udst[encounter],
                    folded if multi else folded[:, None],
                )
        timestep = _LazyVectorTimestep(
            arc_keys, idx, masks, int(counts.sum())
        )
        return timestep, arrivals

    def __repr__(self) -> str:
        return (
            f"<BatchState v{self.version} deficit={self.total_deficit} "
            f"over {self.problem.num_vertices} vertices x {self.planes} plane(s)>"
        )

