"""Frozen pre-kernel reference implementations (differential oracle).

This module preserves the simulation hot path exactly as it existed
*before* the incremental kernel (:mod:`repro.sim.state`) rewrite: the
engine loop that snapshots possession into fresh tuples every step and
rescans success/useful-arcs from scratch, the LOCD runner loop with its
materialized per-vertex :class:`Knowledge` (snapshot and merge every
step, which :mod:`repro.locd.knowledge` now answers as a lagged view),
the dynamic-conditions loop, and the original ``propose`` bodies of all six
heuristics.  It exists for two reasons:

1. **Equivalence** — ``tests/sim/test_incremental_equivalence.py`` proves
   the incremental engines and the rewritten heuristics emit
   byte-identical schedules to these originals across random instances,
   heuristics, and seeds.  The rewrite is a representation change, not a
   behavior change, and this module is the executable witness.
2. **Perf baselining** — ``benchmarks/engine_perf.py`` measures the
   incremental path's speedup against this frozen baseline and records
   both in ``BENCH_engine.json``; CI fails when the speedup regresses.

Do not optimise, refactor, or "clean up" this module: its value is that
it does not change.  It is intentionally not exported from
``repro.sim``'s public surface.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet
from repro.sim.engine import (
    HeuristicProtocol,
    HeuristicViolation,
    RunResult,
    StallError,
    StepContext,
)

__all__ = [
    "REFERENCE_HEURISTIC_FACTORIES",
    "Knowledge",
    "ReferenceEngine",
    "initial_knowledge",
    "make_reference_heuristic",
    "reference_run_heuristic",
    "reference_run_local",
    "reference_run_dynamic",
]


# ======================================================================
# The pre-kernel engine loop (tuple snapshots, full rescans)
# ======================================================================
class ReferenceEngine:
    """The pre-incremental :class:`repro.sim.Engine`, verbatim."""

    def __init__(
        self,
        problem: Problem,
        heuristic: HeuristicProtocol,
        rng: Optional[random.Random] = None,
        max_steps: Optional[int] = None,
        stall_limit: int = 8,
        success_predicate: Optional[
            Callable[[Sequence[TokenSet]], bool]
        ] = None,
    ) -> None:
        self.problem = problem
        self.heuristic = heuristic
        self.rng = rng if rng is not None else random.Random(0)
        if max_steps is None:
            max_steps = 4 * max(problem.move_bound(), 1) + 64
        self.max_steps = max_steps
        self.stall_limit = stall_limit
        self.success_predicate = success_predicate

    def run(self) -> RunResult:
        problem = self.problem
        possession: List[TokenSet] = list(problem.have)
        holder_counts = [0] * problem.num_tokens
        for tokens in possession:
            for t in tokens:
                holder_counts[t] += 1

        self.heuristic.reset(problem, self.rng)
        steps: List[Timestep] = []
        stalled_for = 0

        def satisfied() -> bool:
            if self.success_predicate is not None:
                return self.success_predicate(possession)
            return all(
                problem.want[v] <= possession[v]
                for v in range(problem.num_vertices)
            )

        success = satisfied()
        while not success and len(steps) < self.max_steps:
            ctx = StepContext(
                problem, len(steps), tuple(possession), tuple(holder_counts), self.rng
            )
            proposal = self.heuristic.propose(ctx)
            timestep = self._validated_timestep(proposal, possession, len(steps))
            progressed = self._apply(timestep, possession, holder_counts)
            steps.append(timestep)
            success = satisfied()
            if success:
                break
            if progressed:
                stalled_for = 0
                continue
            if not self._any_useful_arc(possession):
                raise StallError(
                    f"no arc carries a useful token at step {len(steps)} while "
                    f"demand remains; the instance is unsatisfiable from this state"
                )
            if timestep:
                stalled_for = 0
            else:
                stalled_for += 1
                if stalled_for >= self.stall_limit:
                    raise StallError(
                        f"heuristic {self.heuristic.name!r} proposed nothing for "
                        f"{stalled_for} consecutive timesteps at step {len(steps)} "
                        f"with demand remaining"
                    )
        return RunResult(
            problem=problem,
            heuristic_name=self.heuristic.name,
            schedule=Schedule(steps),
            success=success,
        )

    def _any_useful_arc(self, possession: Sequence[TokenSet]) -> bool:
        return any(
            possession[arc.src] - possession[arc.dst] for arc in self.problem.arcs
        )

    def _validated_timestep(
        self,
        proposal: Dict[Tuple[int, int], TokenSet] | "object",
        possession: Sequence[TokenSet],
        step: int,
    ) -> Timestep:
        problem = self.problem
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for (src, dst), tokens in proposal.items():  # type: ignore[union-attr]
            if not tokens:
                continue
            if not problem.has_arc(src, dst):
                raise HeuristicViolation(
                    f"step {step}: heuristic {self.heuristic.name!r} sent on "
                    f"missing arc ({src}, {dst})"
                )
            if len(tokens) > problem.capacity(src, dst):
                raise HeuristicViolation(
                    f"step {step}: heuristic {self.heuristic.name!r} sent "
                    f"{len(tokens)} tokens on arc ({src}, {dst}) of capacity "
                    f"{problem.capacity(src, dst)}"
                )
            if not tokens <= possession[src]:
                missing = tokens - possession[src]
                raise HeuristicViolation(
                    f"step {step}: heuristic {self.heuristic.name!r} sent tokens "
                    f"{sorted(missing)} that vertex {src} does not possess"
                )
            sends[(src, dst)] = tokens
        return Timestep(sends)

    def _apply(
        self,
        timestep: Timestep,
        possession: List[TokenSet],
        holder_counts: List[int],
    ) -> bool:
        progressed = False
        arrivals: Dict[int, TokenSet] = {}
        for (src, dst), tokens in timestep.sends.items():
            arrivals[dst] = arrivals.get(dst, EMPTY_TOKENSET) | tokens
        for dst, tokens in arrivals.items():
            gained = tokens - possession[dst]
            if gained:
                progressed = True
                possession[dst] = possession[dst] | gained
                for t in gained:
                    holder_counts[t] += 1
        return progressed


def reference_run_heuristic(
    problem: Problem,
    heuristic: HeuristicProtocol,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> RunResult:
    """The pre-kernel ``run_heuristic``, verbatim."""
    return ReferenceEngine(
        problem, heuristic, rng=random.Random(seed), max_steps=max_steps
    ).run()


# ======================================================================
# The pre-rewrite heuristic propose() bodies
# ======================================================================
class _ReferenceHeuristic:
    """Minimal stand-in for :class:`repro.heuristics.Heuristic` so the
    frozen bodies below stay self-contained (no import of the live,
    rewritten heuristics package)."""

    name: str = "reference"

    def __init__(self) -> None:
        self._problem: Optional[Problem] = None
        self._rng: random.Random = random.Random(0)

    @property
    def problem(self) -> Problem:
        if self._problem is None:
            raise RuntimeError(f"heuristic {self.name!r} used before reset()")
        return self._problem

    @property
    def rng(self) -> random.Random:
        return self._rng

    def reset(self, problem: Problem, rng: random.Random) -> None:
        self._problem = problem
        self._rng = rng
        self.on_reset()

    def on_reset(self) -> None:
        """Hook for per-run initialization."""

    def propose(self, ctx: StepContext) -> Dict[Tuple[int, int], TokenSet]:
        raise NotImplementedError


def _sample_tokens(tokens: TokenSet, count: int, rng: random.Random) -> TokenSet:
    members = list(tokens)
    if len(members) <= count:
        return tokens
    return TokenSet.from_iterable(rng.sample(members, count))


class ReferenceRoundRobin(_ReferenceHeuristic):
    """Pre-rewrite Round-Robin: per-token scan of the circular queue."""

    name = "round_robin"

    def on_reset(self) -> None:
        self._cursor: Dict[Tuple[int, int], int] = {
            (arc.src, arc.dst): 0 for arc in self.problem.arcs
        }

    def propose(self, ctx: StepContext) -> Dict[Tuple[int, int], TokenSet]:
        problem = ctx.problem
        m = problem.num_tokens
        sends: Dict[Tuple[int, int], TokenSet] = {}
        if m == 0:
            return sends
        for arc in problem.arcs:
            owned = ctx.possession[arc.src]
            if not owned:
                continue
            key = (arc.src, arc.dst)
            cursor = self._cursor[key]
            chosen = 0
            picked = 0
            for offset in range(m):
                token = (cursor + offset) % m
                if token in owned:
                    chosen |= 1 << token
                    picked += 1
                    if picked == arc.capacity:
                        cursor = (token + 1) % m
                        break
            else:
                cursor = (cursor + m) % m
            self._cursor[key] = cursor
            if chosen:
                sends[key] = TokenSet(chosen)
        return sends


class ReferenceRandom(_ReferenceHeuristic):
    """Pre-rewrite Random: uniform useful subsets per arc."""

    name = "random"

    def propose(self, ctx: StepContext) -> Dict[Tuple[int, int], TokenSet]:
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for arc in ctx.problem.arcs:
            useful = ctx.useful(arc.src, arc.dst)
            if not useful:
                continue
            sends[(arc.src, arc.dst)] = _sample_tokens(useful, arc.capacity, ctx.rng)
        return sends


class ReferenceLocalRarest(_ReferenceHeuristic):
    """Pre-rewrite Local: full possession diffs and per-token arc scans."""

    name = "local"

    def on_reset(self) -> None:
        problem = self.problem
        self._need_counts: List[int] = [0] * problem.num_tokens
        for v in range(problem.num_vertices):
            for t in problem.want[v] - problem.have[v]:
                self._need_counts[t] += 1
        self._prev_possession: List[TokenSet] = list(problem.have)

    def _refresh_need_counts(self, ctx: StepContext) -> None:
        for v in range(ctx.problem.num_vertices):
            gained = ctx.possession[v] - self._prev_possession[v]
            if gained:
                for t in gained & ctx.problem.want[v]:
                    self._need_counts[t] -= 1
                self._prev_possession[v] = ctx.possession[v]

    def propose(self, ctx: StepContext) -> Dict[Tuple[int, int], TokenSet]:
        self._refresh_need_counts(ctx)
        problem = ctx.problem
        rng = ctx.rng
        holder_counts = ctx.holder_counts
        need_counts = self._need_counts
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for v in range(problem.num_vertices):
            in_arcs = problem.in_arcs(v)
            if not in_arcs:
                continue
            available = EMPTY_TOKENSET
            for arc in in_arcs:
                available = available | ctx.possession[arc.src]
            lacking = available - ctx.possession[v]
            if not lacking:
                continue
            requests = list(lacking)
            rng.shuffle(requests)
            requests.sort(key=lambda t: (holder_counts[t], -need_counts[t]))
            budget = {(arc.src, arc.dst): arc.capacity for arc in in_arcs}
            suppliers = list(in_arcs)
            for token in requests:
                candidates = [
                    arc
                    for arc in suppliers
                    if budget[(arc.src, arc.dst)] > 0
                    and token in ctx.possession[arc.src]
                ]
                if not candidates:
                    continue
                best = max(
                    candidates,
                    key=lambda arc: (budget[(arc.src, arc.dst)], rng.random()),
                )
                key = (best.src, best.dst)
                budget[key] -= 1
                sends[key] = sends.get(key, EMPTY_TOKENSET).add(token)
        return sends


class ReferenceSequential(_ReferenceHeuristic):
    """Pre-rewrite Sequential: in-order pulls with per-token arc scans."""

    name = "sequential"

    def propose(self, ctx: StepContext) -> Dict[Tuple[int, int], TokenSet]:
        problem = ctx.problem
        rng = ctx.rng
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for v in range(problem.num_vertices):
            in_arcs = problem.in_arcs(v)
            if not in_arcs:
                continue
            available = EMPTY_TOKENSET
            for arc in in_arcs:
                available = available | ctx.possession[arc.src]
            lacking = available - ctx.possession[v]
            if not lacking:
                continue
            budget = {(arc.src, arc.dst): arc.capacity for arc in in_arcs}
            for token in lacking:
                candidates = [
                    arc
                    for arc in in_arcs
                    if budget[(arc.src, arc.dst)] > 0
                    and token in ctx.possession[arc.src]
                ]
                if not candidates:
                    continue
                best = max(
                    candidates,
                    key=lambda arc: (budget[(arc.src, arc.dst)], rng.random()),
                )
                key = (best.src, best.dst)
                budget[key] -= 1
                sends[key] = sends.get(key, EMPTY_TOKENSET).add(token)
        return sends


class ReferenceBandwidth(_ReferenceHeuristic):
    """Pre-rewrite Bandwidth: per-token vertex scans and TokenSet sets."""

    name = "bandwidth"

    def _closest_one_hop_labels(
        self, ctx: StepContext, one_hop: List[int]
    ) -> List[int]:
        problem = ctx.problem
        label = [-1] * problem.num_vertices
        queue: deque[int] = deque()
        for u in one_hop:
            label[u] = u
            queue.append(u)
        while queue:
            v = queue.popleft()
            for arc in problem.out_arcs(v):
                if label[arc.dst] == -1:
                    label[arc.dst] = label[v]
                    queue.append(arc.dst)
        return label

    def propose(self, ctx: StepContext) -> Dict[Tuple[int, int], TokenSet]:
        problem = ctx.problem
        pulls: Dict[int, List[int]] = {}

        def add_pull(v: int, token: int) -> None:
            pulls.setdefault(v, []).append(token)

        one_hop_supply: List[TokenSet] = []
        for v in range(problem.num_vertices):
            supply = EMPTY_TOKENSET
            for arc in problem.in_arcs(v):
                supply = supply | ctx.possession[arc.src]
            one_hop_supply.append(supply)

        for token in range(problem.num_tokens):
            needers = [
                v
                for v in range(problem.num_vertices)
                if token in problem.want[v] and token not in ctx.possession[v]
            ]
            if not needers:
                continue
            far_needers = []
            for v in needers:
                if token in one_hop_supply[v]:
                    add_pull(v, token)
                else:
                    far_needers.append(v)
            if not far_needers:
                continue
            one_hop = [
                u
                for u in range(problem.num_vertices)
                if token not in ctx.possession[u] and token in one_hop_supply[u]
            ]
            if not one_hop:
                continue
            label = self._closest_one_hop_labels(ctx, one_hop)
            relays: Set[int] = set()
            for x in far_needers:
                if label[x] != -1:
                    relays.add(label[x])
            for u in sorted(relays):
                add_pull(u, token)

        sends: Dict[Tuple[int, int], TokenSet] = {}
        for v, pulled in pulls.items():
            ctx.rng.shuffle(pulled)
            pulled.sort(key=lambda t: ctx.holder_counts[t])
            in_arcs = problem.in_arcs(v)
            budget = {(arc.src, arc.dst): arc.capacity for arc in in_arcs}
            for token in pulled:
                candidates = [
                    arc
                    for arc in in_arcs
                    if budget[(arc.src, arc.dst)] > 0
                    and token in ctx.possession[arc.src]
                ]
                if not candidates:
                    continue
                best = max(
                    candidates,
                    key=lambda arc: (budget[(arc.src, arc.dst)], ctx.rng.random()),
                )
                key = (best.src, best.dst)
                budget[key] -= 1
                sends[key] = sends.get(key, EMPTY_TOKENSET).add(token)
        return sends


class ReferenceGlobalGreedy(_ReferenceHeuristic):
    """Pre-rewrite Global: TokenSet min-scans and per-visit arc rebuilds."""

    name = "global"

    def propose(self, ctx: StepContext) -> Dict[Tuple[int, int], TokenSet]:
        problem = ctx.problem
        rng = ctx.rng
        tentative_counts = list(ctx.holder_counts)
        sends: Dict[Tuple[int, int], TokenSet] = {}
        planned: List[TokenSet] = [EMPTY_TOKENSET] * problem.num_vertices
        budget: Dict[Tuple[int, int], int] = {
            (arc.src, arc.dst): arc.capacity for arc in problem.arcs
        }

        active = [v for v in range(problem.num_vertices) if problem.in_arcs(v)]
        rng.shuffle(active)
        while active:
            still_active = []
            for v in active:
                supply = EMPTY_TOKENSET
                usable_arcs = []
                for arc in problem.in_arcs(v):
                    if budget[(arc.src, arc.dst)] > 0:
                        supply = supply | ctx.possession[arc.src]
                        usable_arcs.append(arc)
                candidates = supply - ctx.possession[v] - planned[v]
                if not candidates:
                    continue
                token = min(
                    candidates, key=lambda t: (tentative_counts[t], rng.random())
                )
                suppliers = [
                    arc
                    for arc in usable_arcs
                    if token in ctx.possession[arc.src]
                ]
                best = max(
                    suppliers,
                    key=lambda arc: (budget[(arc.src, arc.dst)], rng.random()),
                )
                key = (best.src, best.dst)
                budget[key] -= 1
                planned[v] = planned[v].add(token)
                tentative_counts[token] += 1
                sends[key] = sends.get(key, EMPTY_TOKENSET).add(token)
                still_active.append(v)
            active = still_active
        return sends


REFERENCE_HEURISTIC_FACTORIES: Dict[str, Callable[[], HeuristicProtocol]] = {
    "round_robin": ReferenceRoundRobin,
    "random": ReferenceRandom,
    "local": ReferenceLocalRarest,
    "bandwidth": ReferenceBandwidth,
    "global": ReferenceGlobalGreedy,
    "sequential": ReferenceSequential,
}


def make_reference_heuristic(name: str) -> HeuristicProtocol:
    """Instantiate a frozen pre-rewrite heuristic by its paper name."""
    try:
        factory = REFERENCE_HEURISTIC_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown reference heuristic {name!r}; choose from "
            f"{sorted(REFERENCE_HEURISTIC_FACTORIES)}"
        ) from None
    return factory()


# ======================================================================
# The materialized LOCD knowledge (the gossip oracle)
# ======================================================================
ArcInfo = Tuple[int, int, int]  # (src, dst, capacity)


@dataclass
class Knowledge:
    """What one vertex knows about the world at some timestep."""

    owner: int
    #: Last known possession per vertex (monotone under-approximation of
    #: the true possession; exact for the owner itself).
    have: Dict[int, TokenSet] = field(default_factory=dict)
    #: Known want sets per vertex (static once learned).
    want: Dict[int, TokenSet] = field(default_factory=dict)
    #: Known arcs with capacities.
    arcs: Set[ArcInfo] = field(default_factory=set)
    #: Vertices whose complete incident-arc list is known.
    complete_vertices: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------------
    def known_vertices(self) -> Set[int]:
        """Every vertex this knowledge has heard of."""
        known: Set[int] = {self.owner}
        known.update(self.have)
        known.update(self.want)
        for src, dst, _cap in self.arcs:
            known.add(src)
            known.add(dst)
        return known

    def is_topology_complete(self) -> bool:
        """Whether the whole (gossip-connected) graph is known."""
        return self.known_vertices() <= self.complete_vertices

    def known_have(self, v: int) -> TokenSet:
        return self.have.get(v, EMPTY_TOKENSET)

    def known_want(self, v: int) -> TokenSet:
        return self.want.get(v, EMPTY_TOKENSET)

    def out_arcs_of(self, v: int) -> List[ArcInfo]:
        return [(src, dst, cap) for (src, dst, cap) in self.arcs if src == v]

    # ------------------------------------------------------------------
    def merge_from(self, other: "Knowledge") -> None:
        """Union in a neighbor's knowledge (the gossip step)."""
        for v, tokens in other.have.items():
            self.have[v] = self.have.get(v, EMPTY_TOKENSET) | tokens
        for v, tokens in other.want.items():
            self.want[v] = self.want.get(v, EMPTY_TOKENSET) | tokens
        self.arcs.update(other.arcs)
        self.complete_vertices.update(other.complete_vertices)

    def record_own_possession(self, tokens: TokenSet) -> None:
        """Fold newly received tokens into the owner's own entry."""
        self.have[self.owner] = self.have.get(self.owner, EMPTY_TOKENSET) | tokens

    def size_facts(self) -> int:
        """How many atomic facts this knowledge holds: known
        (vertex, token) possession pairs, want pairs, arcs, and completed
        neighbor lists.  The growth of this count over a run is the
        "bandwidth cost of sending knowledge" the paper's Theorem 4
        discussion points at for EOCD."""
        return (
            sum(len(tokens) for tokens in self.have.values())
            + sum(len(tokens) for tokens in self.want.values())
            + len(self.arcs)
            + len(self.complete_vertices)
        )

    def snapshot(self) -> "Knowledge":
        """A deep-enough copy for the synchronous gossip round (merges
        must read the *previous* step's knowledge)."""
        return Knowledge(
            owner=self.owner,
            have=dict(self.have),
            want=dict(self.want),
            arcs=set(self.arcs),
            complete_vertices=set(self.complete_vertices),
        )

    # ------------------------------------------------------------------
    def as_problem(self) -> Optional[Problem]:
        """Reconstruct the global :class:`Problem` from complete knowledge.

        Returns ``None`` while the topology is still incomplete.  All
        vertices reconstruct the *identical* problem once their knowledge
        converges, which is what makes a common deterministic plan
        possible.  Vertex ids are preserved.
        """
        if not self.is_topology_complete():
            return None
        vertices = sorted(self.known_vertices())
        if vertices != list(range(len(vertices))):
            # Gossip reaches every vertex of a connected instance; partial
            # id spaces mean the instance was disconnected.
            return None
        n = len(vertices)
        num_tokens = 0
        for tokens in list(self.have.values()) + list(self.want.values()):
            if tokens:
                num_tokens = max(num_tokens, tokens.max() + 1)
        return Problem.build(
            n,
            num_tokens,
            sorted(self.arcs),
            {v: list(self.have.get(v, EMPTY_TOKENSET)) for v in vertices},
            {v: list(self.want.get(v, EMPTY_TOKENSET)) for v in vertices},
            name=f"knowledge_of_{self.owner}",
        )


def initial_knowledge(problem: Problem, v: int) -> Knowledge:
    """``k_0(v)``: neighbors, incident-arc capacities, ``h(v)``, ``w(v)``."""
    arcs: Set[ArcInfo] = set()
    for arc in problem.out_arcs(v):
        arcs.add((arc.src, arc.dst, arc.capacity))
    for arc in problem.in_arcs(v):
        arcs.add((arc.src, arc.dst, arc.capacity))
    return Knowledge(
        owner=v,
        have={v: problem.have[v]},
        want={v: problem.want[v]},
        arcs=arcs,
        complete_vertices={v},
    )


# ======================================================================
# The pre-kernel LOCD runner loop
# ======================================================================
class _LocalAlgorithmProtocol(Protocol):
    name: str

    def reset(self, num_vertices: int, rng: random.Random) -> None: ...

    def decide(
        self, step: int, knowledge: "object", rng: random.Random
    ) -> Dict[Tuple[int, int], TokenSet]: ...


def reference_run_local(
    problem: Problem,
    algorithm: _LocalAlgorithmProtocol,
    seed: int = 0,
    max_steps: Optional[int] = None,
) -> RunResult:
    """The pre-kernel :class:`repro.locd.LocalEngine` loop, verbatim."""
    rng = random.Random(seed)
    if max_steps is None:
        max_steps = 4 * max(problem.move_bound(), 1) + 4 * problem.num_vertices + 64
    possession: List[TokenSet] = list(problem.have)
    knowledge: List[Knowledge] = [
        initial_knowledge(problem, v) for v in range(problem.num_vertices)
    ]
    algorithm.reset(problem.num_vertices, rng)
    steps: List[Timestep] = []
    knowledge_cost = 0

    def satisfied() -> bool:
        return all(
            problem.want[v] <= possession[v]
            for v in range(problem.num_vertices)
        )

    success = satisfied()
    while not success and len(steps) < max_steps:
        step_index = len(steps)
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for v in range(problem.num_vertices):
            proposal = algorithm.decide(step_index, knowledge[v], rng)
            for (src, dst), tokens in proposal.items():
                if not tokens:
                    continue
                if src != v:
                    raise HeuristicViolation(
                        f"step {step_index}: vertex {v} proposed a send "
                        f"out of vertex {src}"
                    )
                if not problem.has_arc(src, dst):
                    raise HeuristicViolation(
                        f"step {step_index}: no arc ({src}, {dst})"
                    )
                if len(tokens) > problem.capacity(src, dst):
                    raise HeuristicViolation(
                        f"step {step_index}: arc ({src}, {dst}) over capacity"
                    )
                if not tokens <= possession[src]:
                    raise HeuristicViolation(
                        f"step {step_index}: vertex {src} sent unpossessed "
                        f"tokens {sorted(tokens - possession[src])}"
                    )
                sends[(src, dst)] = tokens
        timestep = Timestep(sends)
        steps.append(timestep)

        arrivals: Dict[int, TokenSet] = {}
        for (src, dst), tokens in timestep.sends.items():
            arrivals[dst] = arrivals.get(dst, EMPTY_TOKENSET) | tokens
        for dst, tokens in arrivals.items():
            possession[dst] = possession[dst] | tokens

        snapshots = [k.snapshot() for k in knowledge]
        for v in range(problem.num_vertices):
            before = knowledge[v].size_facts()
            for u in problem.neighbors(v):
                knowledge[v].merge_from(snapshots[u])
            knowledge_cost += knowledge[v].size_facts() - before
            if v in arrivals:
                knowledge[v].record_own_possession(arrivals[v])

        success = satisfied()
    return RunResult(
        problem=problem,
        heuristic_name=algorithm.name,
        schedule=Schedule(steps),
        success=success,
        knowledge_cost=knowledge_cost,
    )


# ======================================================================
# The pre-kernel dynamic-conditions loop
# ======================================================================
class _CapacityScheduleProtocol(Protocol):
    problem: Problem
    name: str

    def problem_at(self, step: int) -> Problem: ...


def reference_run_dynamic(
    conditions: _CapacityScheduleProtocol,
    heuristic: HeuristicProtocol,
    seed: int = 0,
    max_steps: Optional[int] = None,
    success_predicate: Optional[Callable[[Sequence[TokenSet]], bool]] = None,
) -> RunResult:
    """The pre-kernel :class:`DynamicEngine` loop, verbatim."""
    rng = random.Random(seed)
    base = conditions.problem
    if max_steps is None:
        max_steps = 8 * max(base.move_bound(), 1) + 64
    possession: List[TokenSet] = list(base.have)
    holder_counts = [0] * base.num_tokens
    for tokens in possession:
        for t in tokens:
            holder_counts[t] += 1
    steps: List[Timestep] = []

    def satisfied() -> bool:
        if success_predicate is not None:
            return success_predicate(possession)
        return all(
            base.want[v] <= possession[v] for v in range(base.num_vertices)
        )

    success = satisfied()
    reset_for: Optional[Problem] = None
    while not success and len(steps) < max_steps:
        step_index = len(steps)
        current = conditions.problem_at(step_index)
        if reset_for is None or set(current.arcs) != set(reset_for.arcs):
            heuristic.reset(current, rng)
            reset_for = current
        ctx = StepContext(
            current, step_index, tuple(possession), tuple(holder_counts), rng
        )
        proposal = heuristic.propose(ctx)
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for (src, dst), tokens in proposal.items():
            if not tokens:
                continue
            if not current.has_arc(src, dst):
                raise HeuristicViolation(
                    f"step {step_index}: arc ({src}, {dst}) is down this turn"
                )
            if len(tokens) > current.capacity(src, dst):
                raise HeuristicViolation(
                    f"step {step_index}: arc ({src}, {dst}) over its "
                    f"current capacity {current.capacity(src, dst)}"
                )
            if not tokens <= possession[src]:
                raise HeuristicViolation(
                    f"step {step_index}: vertex {src} sent unpossessed tokens"
                )
            sends[(src, dst)] = tokens
        timestep = Timestep(sends)
        steps.append(timestep)
        arrivals: Dict[int, TokenSet] = {}
        for (src, dst), tokens in timestep.sends.items():
            arrivals[dst] = arrivals.get(dst, EMPTY_TOKENSET) | tokens
        for dst, tokens in arrivals.items():
            gained = tokens - possession[dst]
            if gained:
                possession[dst] = possession[dst] | gained
                for t in gained:
                    holder_counts[t] += 1
        success = satisfied()
    return RunResult(
        problem=base,
        heuristic_name=f"{heuristic.name}@{conditions.name}",
        schedule=Schedule(steps),
        success=success,
    )
