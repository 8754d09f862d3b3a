"""Causal structure of one traced run: dissemination forest, critical
path, per-transfer slack, and per-vertex-step blocking attribution.

A validated trace says *what* moved each timestep; this module derives
*why the run took as long as it did*.  Three structures, all computed
from one walk of the replay validator (:class:`ForestReplay` is its
recording consumer, so the forest and the verdict cannot disagree) and,
like the validator, importing nothing from the simulation kernel — see
:mod:`repro.obs.analyze.runs`:

**Dissemination forest.**  Every *useful arrival* — a vertex gaining a
token it did not yet possess — has exactly one causal parent: the first
transfer, in the step's recorded emission order, that delivered the
token.  Chaining parents reaches an initial holder, so arrivals form a
forest rooted at the ``have`` sets (the critical-path view of optimal
dissemination in Mundinger/Weber/Weiss, arXiv:cs/0606110).  The replay
hands over each transfer's *fresh* mask (the tokens it is first to
deliver), and the forest records each set bit into int columns (the
key ``vertex * m + token``, the step, the sender), so a step costs its
useful arrivals, not every token sent, and allocates no object per
arrival.  The analyses below read those columns through the key index;
:class:`Arrival` named tuples are made only along the critical path, or
for the whole run when a caller reads :attr:`RunForest.arrivals`.

**Critical path.**  For a successful run the engine stops the moment
the last want is met, so the final step always delivers a wanted
arrival.  Walking that arrival's ancestor chain backwards — one *hop*
for each parent transfer, and a *wait segment* for the steps in which
the parent already held the token but the child had not yet received it
— tiles the timesteps ``0..makespan-1`` exactly once.  The path length
therefore equals the makespan by construction, and every transfer off
the path gets a non-negative *slack* (how many steps later it could
have happened without delaying completion).

**Blocking attribution.**  Each *idle vertex-step* — a vertex with
outstanding demand that gained none of it this step — is assigned
exactly one cause, checked in this order so the categories partition:

``waiting-for-token``
    No in-neighbor held any needed token at the start of the step; the
    tokens simply had not propagated close enough yet.
``arc-capacity-saturated``
    Some in-neighbor held a needed token, but every arc from such a
    holder ran at full capacity this step — bandwidth, not knowledge,
    was the binding constraint.
``knowledge-lag``
    (LOCD traces only.)  A needed token sat one hop away with spare arc
    capacity, yet was not sent: under §4 local knowledge the holder may
    not have known about the demand.
``no-useful-arc``
    The same one-hop-away-with-spare-capacity situation under a
    full-knowledge engine: the scheduler had a useful arc and did not
    use it (heuristic myopia, or a deliberate trade against bandwidth).

Dynamic-conditions traces (``engine: "dynamic"``) cannot be attributed:
the arc set changes every turn and only the engine knows it.  Callers
should skip those runs (see :mod:`repro.obs.analyze.attribution`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.obs.analyze.runs import DecodedInstance, InstanceDecoder, TraceRun, tokens_of
from repro.obs.analyze.validate import ArcLoad, RunReplay, Transfer, ValidationReport

__all__ = [
    "BLOCKING_CATEGORIES",
    "Arrival",
    "CausalError",
    "CriticalPath",
    "ForestReplay",
    "PathHop",
    "RunForest",
    "WaitSegment",
    "blocking_table",
    "build_forest",
    "classify_block",
    "critical_path",
    "dominant_category",
    "finish_times",
    "transfer_slack",
]

#: The blocking causes, in the order :func:`classify_block` checks them
#: (first match wins, so they partition the idle vertex-steps).
BLOCKING_CATEGORIES = (
    "waiting-for-token",
    "arc-capacity-saturated",
    "knowledge-lag",
    "no-useful-arc",
)


class CausalError(ValueError):
    """A trace is too malformed to derive causal structure from.

    Carries the run index, the fault step when localizable, and the
    broken invariant — the forest fails loudly *at* the corruption,
    never past it.
    """

    def __init__(
        self, message: str, run: int, step: Optional[int] = None, invariant: Optional[str] = None
    ):
        where = f"run {run}"
        if step is not None:
            where += f" step {step}"
        tag = f"[{invariant}] " if invariant else ""
        super().__init__(f"{where}: {tag}{message}")
        self.run = run
        self.step = step
        self.invariant = invariant


class Arrival(NamedTuple):
    """One useful arrival: ``vertex`` gained ``token`` at ``step`` via
    the parent transfer from ``src`` (emission-order-first, so the
    parent choice is deterministic and kernel-independent).  A forest
    stores its arrivals as int columns and makes these on request."""

    vertex: int
    token: int
    step: int
    src: int


@dataclass
class RunForest:
    """The replayed causal structure of one run."""

    run: int
    engine: str
    heuristic: str
    instance: DecodedInstance
    #: The useful arrivals as parallel int columns, in arrival order:
    #: step order, within a step by transfer, then by token id.  Arrival
    #: ``i`` brought token ``t`` to vertex ``v`` at ``steps[i]`` from
    #: ``srcs[i]``, where ``keys[i] == v * m + t`` for ``m`` tokens.
    keys: List[int]
    steps: List[int]
    srcs: List[int]
    #: Possession masks at the *start* of each step; index ``makespan``
    #: holds the final state.
    have_before: List[List[int]]
    #: Per step: tokens carried per arc, by arc id ``src * n + dst``.
    arc_load: List[ArcLoad]
    #: Per step: the well-formed transfers in emission order, each the
    #: trace's own ``[src, dst, tokens]`` entry.
    transfers: List[List[Transfer]]
    makespan: int
    success: bool
    #: ``(src, cap)`` per vertex, from the declared arcs (the instance's,
    #: shared by every forest over it).
    in_arcs: List[List[Tuple[int, int]]]

    @cached_property
    def index(self) -> Dict[int, int]:
        """``keys[i] -> i`` for every arrival ``i``."""
        return dict(zip(self.keys, range(len(self.keys))))

    @cached_property
    def arrivals(self) -> Mapping[Tuple[int, int], Arrival]:
        """A read-only ``(vertex, token) -> Arrival`` view of the columns,
        in arrival order, built on first access (for exports and tests;
        the analyses read the columns)."""
        m = self.instance.num_tokens
        view: Dict[Tuple[int, int], Arrival] = {}
        for key, step, src in zip(self.keys, self.steps, self.srcs):
            vertex, token = divmod(key, m)
            view[(vertex, token)] = Arrival(vertex, token, step, src)
        return MappingProxyType(view)

    def arrival(self, vertex: int, token: int) -> Optional[Arrival]:
        """The arrival of ``token`` at ``vertex``, or ``None`` if it never
        arrived (an initial holding included)."""
        m = self.instance.num_tokens
        i = self.index.get(vertex * m + token) if 0 <= token < m else None
        if i is None:
            return None
        return Arrival(vertex, token, self.steps[i], self.srcs[i])

    def acquired_at(self, vertex: int, token: int) -> int:
        """Step at which ``vertex`` first held ``token`` (-1 = initially)."""
        if self.instance.have_masks[vertex] >> token & 1:
            return -1
        arrival = self.arrival(vertex, token)
        if arrival is None:
            raise KeyError(f"vertex {vertex} never acquired token {token}")
        return arrival.step


@dataclass(frozen=True)
class PathHop:
    """One critical-path transfer: ``token`` moved ``src -> dst`` at ``step``."""

    step: int
    src: int
    dst: int
    token: int


@dataclass(frozen=True)
class WaitSegment:
    """Consecutive steps ``first..last`` in which ``vertex`` was blocked
    waiting for ``token`` (-1 when nothing specific was awaited), with
    one blocking category per step."""

    vertex: int
    token: int
    first: int
    last: int
    categories: Tuple[str, ...]

    def __len__(self) -> int:
        return self.last - self.first + 1


@dataclass
class CriticalPath:
    """The backward blocking chain from the completing arrival.

    ``elements`` are in chronological order and tile the timesteps
    ``0..makespan-1`` exactly once, so :attr:`length` always equals the
    makespan — the invariant the property suite pins down.
    """

    target_vertex: int
    target_token: int
    elements: List[Union[PathHop, WaitSegment]] = field(default_factory=list)

    @property
    def hops(self) -> List[PathHop]:
        return [e for e in self.elements if isinstance(e, PathHop)]

    @property
    def wait_steps(self) -> int:
        return sum(len(e) for e in self.elements if isinstance(e, WaitSegment))

    @property
    def length(self) -> int:
        return len(self.hops) + self.wait_steps

    def category_counts(self) -> Dict[str, int]:
        """Wait steps per blocking category along the path."""
        counts = {c: 0 for c in BLOCKING_CATEGORIES}
        for e in self.elements:
            if isinstance(e, WaitSegment):
                for c in e.categories:
                    counts[c] += 1
        return {c: n for c, n in counts.items() if n}


class ForestReplay(RunReplay):
    """The replay consumer that records a run's dissemination forest.

    Walk it, then take :meth:`forest`.  An arrival's parent is the
    transfer whose *fresh* mask carries the token: the emission-order
    first sender.  Each fresh bit is appended to the arrival columns.
    """

    def __init__(
        self, run: TraceRun, report: ValidationReport, decode: InstanceDecoder
    ) -> None:
        super().__init__(run, report, decode)
        self.have_before: List[List[int]] = []
        self.arc_load: List[ArcLoad] = []
        self.transfers: List[List[Transfer]] = []
        self.keys: List[int] = []
        self.steps: List[int] = []
        self.srcs: List[int] = []

    def on_step(
        self, step: int, transfers: List[Transfer], arc_load: ArcLoad, fresh: List[int]
    ) -> None:
        self.have_before.append(self.have)
        self.arc_load.append(arc_load)
        self.transfers.append(transfers)
        assert self.instance is not None  # walk() decoded it
        keys, m = self.keys, self.instance.num_tokens
        for entry, mask in zip(transfers, fresh):
            if mask:
                start = len(keys)
                base = entry[1] * m
                while mask:
                    low = mask & -mask
                    keys.append(base + low.bit_length() - 1)
                    mask ^= low
                self.srcs += [entry[0]] * (len(keys) - start)
        self.steps += [step] * (len(keys) - len(self.steps))

    def forest(self) -> RunForest:
        """The walked run's forest; raises :class:`CausalError` at the
        first violation recorded at a step, or if the run did not decode.
        Run-level verdicts (``run_end`` claims, a missing ``run_end``) do
        not block a forest, so open runs still get one."""
        run, instance = self.run, self.instance
        for v in self.report.violations:
            if v.run == run.run and (v.step is not None or instance is None):
                raise CausalError(v.message, v.run, v.step, v.invariant)
        assert instance is not None  # walk() flags every decode failure
        return RunForest(
            run=run.run,
            engine=run.engine,
            heuristic=run.heuristic,
            instance=instance,
            keys=self.keys,
            steps=self.steps,
            srcs=self.srcs,
            have_before=self.have_before + [self.have],
            arc_load=self.arc_load,
            transfers=self.transfers,
            makespan=len(run.steps),
            success=run.end is not None and bool(run.end.get("success")),
            in_arcs=instance.in_arcs,
        )


def build_forest(run: TraceRun) -> RunForest:
    """Replay one run's transfers into its dissemination forest.

    Any step-level §2 violation raises :class:`CausalError` with the run,
    step and invariant :func:`~repro.obs.analyze.validate.validate_events`
    reports first, rather than producing a wrong forest.
    """
    replay = ForestReplay(run, ValidationReport(path=f"run {run.run}"), InstanceDecoder())
    replay.walk()
    return replay.forest()


def classify_block(forest: RunForest, vertex: int, step: int, needed: int) -> str:
    """The blocking category of one ``(vertex, step)`` for a needed mask.

    Checked in :data:`BLOCKING_CATEGORIES` order, first match wins —
    that if/elif chain is what makes the categories a partition.
    """
    if not needed:
        # Nothing specific was awaited (degenerate tail of a handmade
        # trace): there was no useful work left for this vertex.
        return "no-useful-arc"
    have = forest.have_before[step]
    useful = [
        (src, cap)
        for src, cap in forest.in_arcs[vertex]
        if have[src] & needed
    ]
    if not useful:
        return "waiting-for-token"
    load, n = forest.arc_load[step], forest.instance.num_vertices
    if all(load.get(src * n + vertex, 0) >= cap for src, cap in useful):
        return "arc-capacity-saturated"
    if forest.engine == "locd":
        return "knowledge-lag"
    return "no-useful-arc"


def blocking_table(forest: RunForest) -> Dict[Tuple[int, int], str]:
    """``(vertex, step) -> category`` for every idle vertex-step.

    A vertex-step is *idle* when the vertex still wanted tokens at the
    start of the step and gained none of them during it.  Together with
    the first-match classifier this yields the partition property the
    test suite asserts: every idle vertex-step appears exactly once,
    under exactly one category.
    """
    table: Dict[Tuple[int, int], str] = {}
    want = forest.instance.want_masks
    for step in range(forest.makespan):
        before = forest.have_before[step]
        after = forest.have_before[step + 1]
        for v in range(forest.instance.num_vertices):
            needed = want[v] & ~before[v]
            if not needed:
                continue
            if after[v] & needed:
                continue  # gained a wanted token: not idle
            table[(v, step)] = classify_block(forest, v, step, needed)
    return table


def _wait_categories(
    forest: RunForest, vertex: int, token: int, first: int, last: int
) -> Tuple[str, ...]:
    needed = 1 << token if token >= 0 else 0
    return tuple(
        classify_block(forest, vertex, step, needed)
        for step in range(first, last + 1)
    )


def _anchor_arrival(forest: RunForest) -> Optional[Arrival]:
    """The completing arrival: smallest wanted (vertex, token) arriving
    at the final step.  ``None`` when the final step delivered no wanted
    arrival (failed runs; handmade traces with wasted tail steps)."""
    want, steps, m = forest.instance.want_masks, forest.steps, forest.instance.num_tokens
    last = forest.makespan - 1
    best: Optional[int] = None
    # Arrivals are in step order: the final step's are the tail, and
    # keys order as (vertex, token) pairs do.
    i = len(steps) - 1
    while i >= 0 and steps[i] == last:
        key = forest.keys[i]
        vertex, token = divmod(key, m)
        if want[vertex] >> token & 1 and (best is None or key < best):
            best = key
        i -= 1
    return None if best is None else forest.arrival(*divmod(best, m))


def _degenerate_target(forest: RunForest) -> Tuple[int, int]:
    """A (vertex, token) to pin the all-wait path of a failed run on:
    the smallest unmet vertex and its smallest missing wanted token."""
    final = forest.have_before[forest.makespan]
    for v in range(forest.instance.num_vertices):
        missing = forest.instance.want_masks[v] & ~final[v]
        if missing:
            return v, tokens_of(missing)[0]
    # Success but no final-step wanted arrival: wait on the completing
    # vertex/token with the latest arrival instead.
    want, m = forest.instance.want_masks, forest.instance.num_tokens
    latest = max(
        (
            (step, key)
            for key, step in zip(forest.keys, forest.steps)
            if want[key // m] >> key % m & 1
        ),
        default=None,
    )
    if latest is not None:
        return divmod(latest[1], m)
    return 0, -1


def critical_path(forest: RunForest) -> CriticalPath:
    """Extract the dependency chain whose length equals the makespan.

    Successful engine runs get the real backward chain from the
    completing arrival.  Failed runs (and handmade traces whose final
    step delivers nothing wanted) get a degenerate chain that waits on
    the first unmet ``(vertex, token)`` for every remaining step — still
    of length ``makespan``, with each wait step attributed a cause.
    """
    anchor = _anchor_arrival(forest)
    if anchor is None:
        vertex, token = _degenerate_target(forest)
        path = CriticalPath(target_vertex=vertex, target_token=token)
        arrival = forest.arrival(vertex, token)
        if arrival is not None and forest.makespan > arrival.step + 1:
            # Chain up to the arrival, then a wasted-tail wait segment.
            path.elements = _backward_chain(forest, arrival)
            path.elements.append(
                WaitSegment(
                    vertex=vertex,
                    token=-1,
                    first=arrival.step + 1,
                    last=forest.makespan - 1,
                    categories=_wait_categories(
                        forest, vertex, -1, arrival.step + 1, forest.makespan - 1
                    ),
                )
            )
        elif forest.makespan > 0:
            path.elements = [
                WaitSegment(
                    vertex=vertex,
                    token=token,
                    first=0,
                    last=forest.makespan - 1,
                    categories=_wait_categories(
                        forest, vertex, token, 0, forest.makespan - 1
                    ),
                )
            ]
        return path
    path = CriticalPath(target_vertex=anchor.vertex, target_token=anchor.token)
    path.elements = _backward_chain(forest, anchor)
    return path


def _backward_chain(
    forest: RunForest, anchor: Arrival
) -> List[Union[PathHop, WaitSegment]]:
    """Hops and wait segments covering steps ``0..anchor.step`` once."""
    elements: List[Union[PathHop, WaitSegment]] = []
    current: Optional[Arrival] = anchor
    while current is not None:
        # The replay checked sender possession: a sender with no
        # arrival of the token held it from the start.
        parent = forest.arrival(current.src, current.token)
        acquired = -1 if parent is None else parent.step
        elements.append(
            PathHop(
                step=current.step,
                src=current.src,
                dst=current.vertex,
                token=current.token,
            )
        )
        if acquired + 1 <= current.step - 1:
            elements.append(
                WaitSegment(
                    vertex=current.vertex,
                    token=current.token,
                    first=acquired + 1,
                    last=current.step - 1,
                    categories=_wait_categories(
                        forest,
                        current.vertex,
                        current.token,
                        acquired + 1,
                        current.step - 1,
                    ),
                )
            )
        current = parent
    elements.reverse()
    return elements


def finish_times(forest: RunForest) -> List[int]:
    """``F`` of every useful arrival, in arrival (column) order.

    ``F`` is the latest completion time the arrival feeds into: its own
    delivery deadline ``step + 1`` or, recursively, the ``F`` of every
    child arrival it later parented, whichever is later.  Ancestors of
    the completing arrival reach ``F == makespan``; ``F <= makespan``
    always (a wanted delivery at the final step has deadline
    ``makespan``).
    """
    m, keys, srcs = forest.instance.num_tokens, forest.keys, forest.srcs
    parent_of = forest.index.get
    # Arrivals are recorded in step order, and a child arrives strictly
    # after its parent (the parent's vertex must hold the token at the
    # start of the child's step), so walking them backwards meets every
    # child first: an arrival's F is final when the walk reaches it.  A
    # sender without an arrival of the token held it initially.
    out = [step + 1 for step in forest.steps]
    for i in range(len(out) - 1, -1, -1):
        parent = parent_of(srcs[i] * m + keys[i] % m, -1)
        if parent >= 0 and out[i] > out[parent]:
            out[parent] = out[i]
    return out


def transfer_slack(forest: RunForest) -> Dict[Tuple[int, int, int], int]:
    """``(vertex, token, step) -> slack`` for every useful arrival.

    Slack is ``makespan − F`` (see :func:`finish_times`), so every
    on-path transfer has slack exactly zero and no slack is negative.
    """
    makespan, m = forest.makespan, forest.instance.num_tokens
    return {
        (key // m, key % m, step): makespan - f
        for key, step, f in zip(forest.keys, forest.steps, finish_times(forest))
    }


def dominant_category(
    counts: Dict[str, int], default: str = "no-useful-arc"
) -> str:
    """The most frequent category, ties broken in declaration order."""
    best = default
    best_count = 0
    for category in BLOCKING_CATEGORIES:
        n = counts.get(category, 0)
        if n > best_count:
            best, best_count = category, n
    return best
