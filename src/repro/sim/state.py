"""The one step kernel: :class:`SimState`.

Every simulation loop in the repo (the global-view :class:`repro.sim.Engine`,
the locality-enforcing LOCD runner, and the changing-conditions
:class:`repro.extensions.dynamic.DynamicEngine`) drives the same ground
truth: a possession vector that only ever grows, one timestep at a time
(§3.1).  :class:`SimState` holds it incrementally, so per-step cost is
proportional to *change* (the tokens that actually moved), not to the
whole swarm:

* ``possession`` and ``holder_counts`` are live lists updated in place as
  arrivals land — engines hand them to heuristics through a zero-copy
  :class:`repro.sim.StepContext` view instead of copying per step;
* ``deficit[v]`` counts the tokens ``v`` still wants, and
  ``total_deficit`` their sum, making the success test O(1) per step;
* a **gain journal** records every ``(vertex, gained_tokens)`` event in
  application order; heuristics keep a cursor into it and fold deltas
  into their own aggregates instead of diffing possession vectors.

Beside those lists the kernel keeps a lazily synced **bitplane mirror**:
a dense ``(vertices, planes)`` uint64 matrix (layout:
:mod:`repro.sim.bitplanes`) replayed from the journal on first read, so
a run that never takes a batched read (the LOCD runner) pays nothing
for it.  The matrix backs the batched reads:

* :meth:`in_supply_matrix` — the per-vertex union of in-neighbor
  possession, one gather plus one grouped OR over dst-grouped arcs;
* :meth:`any_useful_arc` — the stall test as one comparison over all
  arcs, cached per state version;
* :meth:`token_demand` — per-token demand as column popcounts;
* :meth:`validate_vector` — batched capacity/possession validation of a
  :class:`VectorProposal`.

A heuristic reaches the kernel through one of two proposal paths.  A
``propose`` dict is checked by :func:`repro.core.schedule.check_sends`
and folded gain by gain (:meth:`_apply_gain`); a ``propose_vector``
array proposal is checked by :meth:`validate_vector` and folded from
its arrays (:meth:`_apply_fold`).  Both folds apply the same gains in
the same order, so the journal, every counter, and the schedule are
identical whichever path ran (``tests/sim/test_batch_equivalence.py``,
against the frozen oracle in :mod:`repro.sim.reference`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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

__all__ = ["SimState", "VectorProposal"]


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
    in proposal order, exactly as the eager validator inserts it, after
    which the arrays are dropped.  ``num_moves`` is precomputed from a
    popcount so schedule bandwidth never forces materialization, and
    :meth:`iter_sends_masks` streams the sends in bounded chunks so
    schedule comparison at the 10^5-swarm scale never holds two
    materialized dicts at once.

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
            self._idx = self._masks = None
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
        if self._idx is None:
            for key, tokens in self.sends.items():
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


class SimState:
    """Incrementally maintained ground-truth state of one simulated run.

    Parameters
    ----------
    problem:
        The instance being simulated.  Only ``have``/``want`` and the arc
        list are consulted; dynamic-conditions engines may validate
        proposals against per-turn graphs while sharing one kernel.
    possession:
        Optional starting possession (defaults to ``problem.have``).

    Mutation flows exclusively through the ``apply_*`` methods;
    everything else is a read.  ``possession`` and ``holder_counts``
    are deliberately exposed as the live lists so engines can hand out
    zero-copy views — treat them as read-only.
    """

    __slots__ = (
        "problem",
        "planes",
        "possession",
        "possession_masks",
        "holder_counts",
        "deficit",
        "total_deficit",
        "_token_deficit",
        "_want_masks",
        "_want_mat",
        "_journal",
        "_matrix",
        "_matrix_version",
        "_arc_src",
        "_arc_dst",
        "_arc_cap",
        "_arc_keys",
        "_in_gather",
        "_in_starts",
        "_in_dsts",
        "_supply_mat_cache",
        "_supply_mat_version",
        "_useful_cache",
        "_useful_version",
        "_arrival_fold",
    )

    def __init__(
        self, problem: Problem, possession: Optional[Iterable[TokenSet]] = None
    ) -> None:
        self.problem = problem
        self.planes = plane_count(problem.num_tokens)
        self.possession: List[TokenSet] = list(
            problem.have if possession is None else possession
        )
        if len(self.possession) != problem.num_vertices:
            raise ValueError(
                f"possession has {len(self.possession)} entries for "
                f"{problem.num_vertices} vertices"
            )
        #: Raw int view of ``possession``, kept in lockstep — heuristic
        #: hot loops read these to skip per-step attribute walks.
        self.possession_masks: List[int] = [p.mask for p in self.possession]
        counts = [0] * problem.num_tokens
        for tokens in self.possession:
            mm = tokens.mask
            while mm:
                low = mm & -mm
                counts[low.bit_length() - 1] += 1
                mm ^= low
        self.holder_counts: List[int] = counts
        self._want_masks: List[int] = [w.mask for w in problem.want]
        deficit: List[int] = []
        total = 0
        for v in range(problem.num_vertices):
            d = (self._want_masks[v] & ~self.possession_masks[v]).bit_count()
            deficit.append(d)
            total += d
        self.deficit: List[int] = deficit
        self.total_deficit: int = total
        #: Every possession gain ever applied, in application order,
        #: as ``(vertex, gained_bitmask)`` — raw ints, the currency of
        #: the heuristics' delta folds.
        self._journal: List[Tuple[int, int]] = []
        # Everything below is built on first use, so a driver that never
        # takes a batched read (LOCD) pays for none of it.
        self._token_deficit: Optional[List[int]] = None
        self._want_mat: Any = None
        self._matrix: Any = None
        self._matrix_version = 0
        self._arc_src: Any = None
        self._arc_dst: Any = None
        self._arc_cap: Any = None
        self._arc_keys: Optional[List[Tuple[int, int]]] = None
        self._in_gather: Any = None
        self._in_starts: Any = None
        self._in_dsts: Any = None
        self._supply_mat_cache: Any = None
        self._supply_mat_version = -1
        self._useful_cache = False
        self._useful_version = -1
        # The last validate_vector arrival fold, kept as arrays so
        # apply_arrivals can skip the dict/bigint round trip when the
        # engine hands the same dict straight back.
        self._arrival_fold: Optional[Tuple[Dict[int, int], Any, Any]] = None

    # ------------------------------------------------------------------
    # Versioned reads
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone state version: the number of gain events applied."""
        return len(self._journal)

    def gains_since(self, version: int) -> Sequence[Tuple[int, int]]:
        """The ``(vertex, gained_bitmask)`` events after ``version``.

        Heuristics record the version they last observed and fold only
        these deltas into their aggregates — O(delta), never O(V).
        """
        return self._journal[version:]

    def satisfied(self) -> bool:
        """Whether every want is covered — O(1) via the deficit counter."""
        return self.total_deficit == 0

    def outstanding(self, v: int) -> TokenSet:
        """Tokens ``v`` wants but does not yet possess."""
        return TokenSet(self._want_masks[v] & ~self.possession[v].mask)

    def token_demand(self) -> List[int]:
        """Per-token demand: how many vertices still want each token but
        lack it — the rarest-first heuristics' aggregate need vector.

        Materialised on first call as column popcounts of
        ``want & ~possession``, then maintained by both gain folds;
        callers treat it as read-only.
        """
        if self._token_deficit is None:
            self._token_deficit = popcount_cols(self._want_matrix() & ~self.matrix)[
                : self.problem.num_tokens
            ]
        return self._token_deficit

    # ------------------------------------------------------------------
    # Matrix mirror
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> Any:
        """The ``(V, P)`` possession matrix, synced to the current state.

        Packed from ``possession_masks`` on first read.  Later reads
        rewrite just the rows of the vertices in the journal entries
        applied since the last read — the masks are current, and
        possession only grows, so rewriting a row is idempotent.
        O(gains since last read).
        """
        journal = self._journal
        if self._matrix is None:
            self._matrix = masks_to_matrix(self.possession_masks, self.problem.num_tokens)
        elif self._matrix_version != len(journal):
            rows = sorted({dst for dst, _gained in journal[self._matrix_version :]})
            masks = self.possession_masks
            self._matrix[rows] = masks_to_matrix(
                [masks[v] for v in rows], self.problem.num_tokens
            )
        self._matrix_version = len(journal)
        return self._matrix

    def _want_matrix(self) -> Any:
        """The per-vertex want masks as a cached ``(V, P)`` matrix."""
        if self._want_mat is None:
            self._want_mat = masks_to_matrix(self._want_masks, self.problem.num_tokens)
        return self._want_mat

    def _ensure_arc_arrays(self) -> None:
        if self._arc_keys is not None:
            return
        arcs = self.problem.arcs
        n_arcs = len(arcs)
        self._arc_src = np.fromiter((a.src for a in arcs), dtype=np.int64, count=n_arcs)
        self._arc_dst = np.fromiter((a.dst for a in arcs), dtype=np.int64, count=n_arcs)
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
        if self._in_dsts is None:
            self._ensure_arc_arrays()
            order = np.argsort(self._arc_dst, kind="stable")
            self._in_dsts, self._in_starts = np.unique(
                self._arc_dst[order], return_index=True
            )
            self._in_gather = self._arc_src[order]
        out = np.zeros_like(matrix)
        if len(self._in_dsts):
            out[self._in_dsts] = np.bitwise_or.reduceat(
                matrix[self._in_gather], self._in_starts, axis=0
            )
        self._supply_mat_cache = out
        self._supply_mat_version = version
        return out

    def any_useful_arc(self) -> bool:
        """Whether any arc could still deliver a token its head lacks.

        One vectorized comparison over all arcs (an arc is useful iff
        its tail holds a token its head lacks), cached per state
        version, since possession only changes through the journal.
        """
        version = self.version
        if self._useful_version != version:
            self._ensure_arc_arrays()
            matrix = self.matrix
            self._useful_cache = bool(
                np.any(matrix[self._arc_src] & ~matrix[self._arc_dst])
            )
            self._useful_version = version
        return self._useful_cache

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_timestep(self, timestep: Timestep) -> Dict[int, int]:
        """Apply one validated timestep; return arrival bitmasks per vertex.

        Arrivals are the union of everything sent *to* each destination
        this step (including tokens it already held), returned as raw
        int masks so callers that ignore them pay nothing.  Gains —
        arrivals the destination lacked — update possession, holder
        counts, deficits, and the journal.  Callers detect progress by
        comparing :attr:`version` around the call.
        """
        masks: Dict[int, int] = {}
        for (_src, dst), tokens in timestep.sends.items():
            prev = masks.get(dst)
            masks[dst] = tokens.mask if prev is None else prev | tokens.mask
        self.apply_arrivals(masks)
        return masks

    def apply_arrivals(self, arrivals: Dict[int, int]) -> None:
        """Apply pre-aggregated per-vertex arrival masks.

        Both validators aggregate arrivals as they check sends, and the
        driver hands them here directly.  When ``arrivals`` is the dict
        the last :meth:`validate_vector` call built, its arrays are
        folded directly (:meth:`_apply_fold`) and the dict is never
        read; any other dict is folded gain by gain (:meth:`_apply_gain`).
        """
        fold = self._arrival_fold
        if fold is not None and fold[0] is arrivals:
            self._arrival_fold = None
            self._apply_fold(fold[1], fold[2])
            return
        possession_masks = self.possession_masks
        for dst, mask in arrivals.items():
            gained_mask = mask & ~possession_masks[dst]
            if gained_mask:
                self._apply_gain(dst, gained_mask)

    def _apply_gain(self, dst: int, gained_mask: int) -> None:
        new_mask = self.possession_masks[dst] | gained_mask
        self.possession_masks[dst] = new_mask
        self.possession[dst] = TokenSet(new_mask)
        counts = self.holder_counts
        token_deficit = self._token_deficit
        newly_wanted = gained_mask & self._want_masks[dst]
        mm = gained_mask
        if token_deficit is None:
            while mm:
                low = mm & -mm
                counts[low.bit_length() - 1] += 1
                mm ^= low
        else:
            while mm:
                low = mm & -mm
                t = low.bit_length() - 1
                counts[t] += 1
                if low & newly_wanted:
                    token_deficit[t] -= 1
                mm ^= low
        if newly_wanted:
            c = newly_wanted.bit_count()
            self.deficit[dst] -= c
            self.total_deficit -= c
        self._journal.append((dst, gained_mask))

    def _apply_fold(self, dsts_arr: Any, folded: Any) -> None:
        """Apply a validate_vector arrival fold straight from its arrays.

        Row ``k`` of ``folded`` is the arrival mask of ``dsts_arr[k]``,
        in first-encounter order — the exact dict :meth:`_apply_gain`
        would walk, so journal order and every derived tally match the
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
        for dst, g, c in zip(dsts_arr.tolist(), gained_ints, wanted_counts.tolist()):
            new_mask = possession_masks[dst] | g
            possession_masks[dst] = new_mask
            possession[dst] = TokenSet(new_mask)
            if c:
                deficit[dst] -= c
            journal.append((dst, g))
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

    # ------------------------------------------------------------------
    # Vector proposal validation
    # ------------------------------------------------------------------
    def validate_vector(self, vec: VectorProposal) -> Tuple[Timestep, Dict[int, int]]:
        """Batched equivalent of :func:`repro.core.schedule.check_sends`.

        Checks every send's capacity and sender possession as array ops,
        then returns the validated :class:`Timestep` and the per-vertex
        arrival masks.  Raises :class:`MoveError` with the message the
        scalar validator produces for the same offense (capacity
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
            raise MoveError.over_capacity(src, dst, int(counts[i]), int(caps[i]))
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
            raise MoveError.unpossessed(src, missing)
        arrivals: Dict[int, int] = {}
        if len(idx):
            # Per-destination arrival masks as one grouped OR over the
            # dst-sorted sends, re-emitted in first-encounter order: the
            # stable sort keeps each destination group's earliest send
            # first, so ``order[starts]`` is the proposal position where
            # each destination first appears, and sorting the groups by
            # it reproduces check_sends' dict insertion order exactly —
            # arrival values *and* order match the scalar validator, so
            # the journal is bit- and order-identical between paths.
            dsts = self._arc_dst[idx]
            order = np.argsort(dsts, kind="stable")
            udst, starts = np.unique(dsts[order], return_index=True)
            grouped = np.bitwise_or.reduceat(masks[order], starts, axis=0)
            encounter = np.argsort(order[starts], kind="stable")
            folded = grouped[encounter]
            arr_masks: List[int] = matrix_to_masks(folded) if multi else folded.tolist()
            arrivals = dict(zip(udst[encounter].tolist(), arr_masks))
            # Keep the fold as arrays: when the engine hands this dict
            # straight to apply_arrivals, the fold path skips the
            # dict/bigint round trip entirely.  The handshake is only
            # sound if nothing can touch the dict in between, so a
            # subclass overriding validate_vector (the seeded-fault
            # hook) stays on the dict-driven path and its mutations
            # remain authoritative.
            if type(self).validate_vector is SimState.validate_vector:
                self._arrival_fold = (
                    arrivals,
                    udst[encounter],
                    folded if multi else folded[:, None],
                )
        timestep = _LazyVectorTimestep(arc_keys, idx, masks, int(counts.sum()))
        return timestep, arrivals

    def __repr__(self) -> str:
        return (
            f"<SimState v{self.version} deficit={self.total_deficit} "
            f"over {self.problem.num_vertices} vertices>"
        )
