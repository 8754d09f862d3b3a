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
deliver), and the forest records one :class:`Arrival` named tuple per
set bit, so a step costs its useful arrivals, not every token sent.

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
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

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
    parent choice is deterministic and kernel-independent).  A named
    tuple: a run records one per useful arrival."""

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
    #: ``(vertex, token) -> Arrival`` for every useful arrival, in step
    #: order (within a step, by transfer, then by token id).
    arrivals: Dict[Tuple[int, int], Arrival]
    #: Possession masks at the *start* of each step; index ``makespan``
    #: holds the final state.
    have_before: List[List[int]]
    #: Per step: tokens carried per arc, ``(src, dst) -> count``.
    arc_load: List[ArcLoad]
    #: Per step: the well-formed ``(src, dst, tokens)`` transfers in
    #: emission order; ``tokens`` is the trace's own list, as sent.
    transfers: List[List[Transfer]]
    makespan: int
    success: bool
    #: ``(src, cap)`` per vertex, from the declared arcs (the instance's,
    #: shared by every forest over it).
    in_arcs: List[List[Tuple[int, int]]]

    def acquired_at(self, vertex: int, token: int) -> int:
        """Step at which ``vertex`` first held ``token`` (-1 = initially)."""
        if self.instance.have_masks[vertex] >> token & 1:
            return -1
        arrival = self.arrivals.get((vertex, token))
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
    first sender.
    """

    def __init__(
        self, run: TraceRun, report: ValidationReport, decode: InstanceDecoder
    ) -> None:
        super().__init__(run, report, decode)
        self.have_before: List[List[int]] = []
        self.arc_load: List[ArcLoad] = []
        self.transfers: List[List[Transfer]] = []
        self.arrivals: Dict[Tuple[int, int], Arrival] = {}

    def on_step(
        self, step: int, transfers: List[Transfer], arc_load: ArcLoad, fresh: List[int]
    ) -> None:
        self.have_before.append(self.have)
        self.arc_load.append(arc_load)
        self.transfers.append(transfers)
        arrivals = self.arrivals
        for (src, dst, _sent), mask in zip(transfers, fresh):
            while mask:
                low = mask & -mask
                token = low.bit_length() - 1
                arrivals[(dst, token)] = Arrival(dst, token, step, src)
                mask ^= low

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
            arrivals=self.arrivals,
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
    load = forest.arc_load[step]
    if all(load.get((src, vertex), 0) >= cap for src, cap in useful):
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
    if forest.makespan == 0:
        return None
    want = forest.instance.want_masks
    candidates = [
        a
        for a in forest.arrivals.values()
        if a.step == forest.makespan - 1 and want[a.vertex] >> a.token & 1
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda a: (a.vertex, a.token))


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
    want = forest.instance.want_masks
    latest = max(
        (
            a
            for a in forest.arrivals.values()
            if want[a.vertex] >> a.token & 1
        ),
        key=lambda a: (a.step, a.vertex, a.token),
        default=None,
    )
    if latest is not None:
        return latest.vertex, latest.token
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
        arrival = forest.arrivals.get((vertex, token))
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
        acquired = forest.acquired_at(current.src, current.token)
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
        current = (
            forest.arrivals[(current.src, current.token)]
            if acquired >= 0
            else None
        )
    elements.reverse()
    return elements


def finish_times(forest: RunForest) -> List[int]:
    """``F`` of every useful arrival, in ``forest.arrivals`` order.

    ``F`` is the latest completion time the arrival feeds into: its own
    delivery deadline ``step + 1`` or, recursively, the ``F`` of every
    child arrival it later parented, whichever is later.  Ancestors of
    the completing arrival reach ``F == makespan``; ``F <= makespan``
    always (a wanted delivery at the final step has deadline
    ``makespan``).
    """
    have, m = forest.instance.have_masks, forest.instance.num_tokens
    # Arrivals are recorded in step order, and a child arrives strictly
    # after its parent (the parent's vertex must hold the token at the
    # start of the child's step), so walking them backwards meets every
    # child first: an arrival's F is final when the walk reaches it, and
    # only what its children pushed up needs keeping, keyed
    # ``vertex * m + token``.
    pushed: Dict[int, int] = {}
    out: List[int] = []
    for vertex, token, step, src in reversed(forest.arrivals.values()):
        f = pushed.pop(vertex * m + token, 0)
        if f <= step:
            f = step + 1
        out.append(f)
        if not have[src] >> token & 1:
            parent = src * m + token
            if f > pushed.get(parent, 0):
                pushed[parent] = f
    out.reverse()
    return out


def transfer_slack(forest: RunForest) -> Dict[Tuple[int, int, int], int]:
    """``(vertex, token, step) -> slack`` for every useful arrival.

    Slack is ``makespan − F`` (see :func:`finish_times`), so every
    on-path transfer has slack exactly zero and no slack is negative.
    """
    makespan = forest.makespan
    return {
        (vertex, token, step): makespan - f
        for (vertex, token, step, _src), f in zip(
            forest.arrivals.values(), finish_times(forest)
        )
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
