"""The shared incremental step kernel: :class:`SimState`.

Every simulation loop in the repo (the global-view :class:`repro.sim.Engine`,
the locality-enforcing LOCD runner, and the changing-conditions
:class:`repro.extensions.dynamic.DynamicEngine`) drives the same ground
truth: a possession vector that only ever grows, one timestep at a time.
Before this kernel existed each loop re-derived everything from scratch
every step — fresh tuple snapshots of possession, an O(V) success scan,
an O(E) useful-arc scan, and heuristic-side aggregate rebuilds.

:class:`SimState` replaces those rescans with incrementally maintained
state, so per-step cost is proportional to *change* (the number of tokens
that actually moved), not to the whole swarm:

* ``possession`` and ``holder_counts`` are live lists updated in place as
  arrivals land — engines hand them to heuristics through a zero-copy
  :class:`repro.sim.StepContext` view instead of copying per step;
* ``deficit[v]`` counts the tokens ``v`` still wants, and
  ``total_deficit`` their sum, making the success test O(1) per step;
* a **gain journal** records every ``(vertex, gained_tokens)`` event in
  application order; heuristics keep a cursor into it and fold deltas
  into their own aggregates (need counts, rarity tables) instead of
  diffing full possession vectors each turn;
* **dirty-vertex tracking** limits the stall test
  (:meth:`any_useful_arc`) to arcs whose endpoints changed since the
  last check — on a no-progress step nothing is dirty and the answer is
  a counter read.

The kernel is a *representation* change only: engines built on it emit
byte-identical schedules to the pre-kernel loops (enforced by
``tests/sim/test_incremental_equivalence.py`` against the frozen
reference implementation in :mod:`repro.sim.reference`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.problem import Problem
from repro.core.schedule import Timestep
from repro.core.tokenset import TokenSet

__all__ = ["SimState"]


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
        "possession",
        "possession_masks",
        "holder_counts",
        "deficit",
        "total_deficit",
        "_token_deficit",
        "_want_masks",
        "_journal",
        "_arc_useful",
        "_useful_count",
        "_incident",
        "_dirty",
        "_dirty_flags",
    )

    def __init__(
        self, problem: Problem, possession: Optional[Iterable[TokenSet]] = None
    ) -> None:
        self.problem = problem
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
        # Per-token demand is materialised lazily by token_demand() so
        # heuristics that never rank by rarity do not pay for it.
        self._token_deficit: Optional[List[int]] = None
        #: Every possession gain ever applied, in application order,
        #: as ``(vertex, gained_bitmask)`` — raw ints, the currency of
        #: the heuristics' delta folds.
        self._journal: List[Tuple[int, int]] = []
        # Useful-arc tracking is built lazily on the first stall check;
        # most runs finish without ever needing it.
        self._arc_useful: Optional[List[bool]] = None
        self._useful_count = 0
        self._incident: Optional[List[List[int]]] = None
        self._dirty: List[int] = []
        self._dirty_flags = bytearray(problem.num_vertices)

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

        Materialised on first call (O(V * m) bit scan), then maintained
        for free inside the gain fold; callers treat it as read-only.
        """
        if self._token_deficit is None:
            token_deficit = [0] * self.problem.num_tokens
            for v in range(self.problem.num_vertices):
                mm = self._want_masks[v] & ~self.possession_masks[v]
                while mm:
                    low = mm & -mm
                    token_deficit[low.bit_length() - 1] += 1
                    mm ^= low
            self._token_deficit = token_deficit
        return self._token_deficit

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply_timestep(self, timestep: Timestep) -> Dict[int, int]:
        """Apply one validated timestep; return arrival bitmasks per vertex.

        Arrivals are the union of everything sent *to* each destination
        this step (including tokens it already held — the LOCD runner
        records these into per-vertex knowledge), returned as raw int
        masks so callers that ignore them pay nothing.  Gains — arrivals
        the destination lacked — update possession, holder counts,
        deficits, and the journal.  Callers detect progress by comparing
        :attr:`version` around the call.
        """
        masks: Dict[int, int] = {}
        for (_src, dst), tokens in timestep.sends.items():
            prev = masks.get(dst)
            masks[dst] = tokens.mask if prev is None else prev | tokens.mask
        self.apply_arrivals(masks)
        return masks

    def apply_arrivals(self, arrivals: Dict[int, int]) -> None:
        """Apply pre-aggregated per-vertex arrival masks.

        The move validator (:func:`repro.core.schedule.check_sends`)
        already walks every send, so it aggregates arrivals as it
        validates and the driver hands them here directly rather than
        paying a second pass in :meth:`apply_timestep`.
        """
        possession_masks = self.possession_masks
        for dst, mask in arrivals.items():
            gained_mask = mask & ~possession_masks[dst]
            if gained_mask:
                self._apply_gain(dst, gained_mask)

    def apply_arrival(self, dst: int, tokens: TokenSet) -> TokenSet:
        """Deliver ``tokens`` to ``dst``; return what it actually gained."""
        gained_mask = tokens.mask & ~self.possession_masks[dst]
        if gained_mask:
            self._apply_gain(dst, gained_mask)
        return TokenSet(gained_mask)

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
        if self._arc_useful is not None and not self._dirty_flags[dst]:
            self._dirty_flags[dst] = 1
            self._dirty.append(dst)

    # ------------------------------------------------------------------
    # Stall detection
    # ------------------------------------------------------------------
    def any_useful_arc(self) -> bool:
        """Whether any arc could still deliver a token its head lacks.

        The first call scans every arc once and memoises per-arc
        usefulness; later calls recheck only arcs incident to vertices
        that gained tokens since the previous call.  On a no-progress
        step nothing is dirty, so the check is a counter read.
        """
        possession_masks = self.possession_masks
        arcs = self.problem.arcs
        if self._arc_useful is None:
            incident: List[List[int]] = [[] for _ in range(self.problem.num_vertices)]
            table: List[bool] = []
            count = 0
            for i, arc in enumerate(arcs):
                useful = bool(possession_masks[arc.src] & ~possession_masks[arc.dst])
                table.append(useful)
                count += useful
                incident[arc.src].append(i)
                incident[arc.dst].append(i)
            self._arc_useful = table
            self._incident = incident
            self._useful_count = count
            # Gains recorded before this first scan are already reflected.
            self._dirty.clear()
            for v in range(self.problem.num_vertices):
                self._dirty_flags[v] = 0
            return count > 0
        if self._dirty:
            table = self._arc_useful
            assert self._incident is not None
            for v in self._dirty:
                self._dirty_flags[v] = 0
                for i in self._incident[v]:
                    arc = arcs[i]
                    useful = bool(
                        possession_masks[arc.src] & ~possession_masks[arc.dst]
                    )
                    if useful != table[i]:
                        table[i] = useful
                        self._useful_count += 1 if useful else -1
            self._dirty.clear()
        return self._useful_count > 0

    def __repr__(self) -> str:
        return (
            f"<SimState v{self.version} deficit={self.total_deficit} "
            f"over {self.problem.num_vertices} vertices>"
        )
