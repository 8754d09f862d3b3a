"""Tests for per-vertex knowledge and its gossip dynamics.

The materialized knowledge of :mod:`repro.sim.reference` defines the
§4.1 gossip; :class:`repro.locd.Knowledge` must answer every query as a
distance-lagged view of the run's :class:`repro.locd.GossipState`
exactly as that oracle would, at every step and every vertex.
"""

import gc
import io
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Problem
from repro.core.schedule import Schedule
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet
from repro.locd import (
    FloodThenOptimal,
    LocalEngine,
    LocalRandom,
    LocalRarest,
    LocalRoundRobin,
)
from repro.obs import JsonlTracer
from repro.sim.engine import emit_step_event
from repro.sim.reference import initial_knowledge


@pytest.fixture
def bipath():
    """Bidirectional path 0 - 1 - 2 with tokens at the ends."""
    return Problem.build(
        3,
        2,
        [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)],
        {0: [0], 2: [1]},
        {0: [1], 2: [0]},
    )


class TestInitialKnowledge:
    def test_k0_contents(self, bipath):
        k = initial_knowledge(bipath, 1)
        assert k.owner == 1
        assert k.known_have(1) == EMPTY_TOKENSET
        assert k.known_want(1) == EMPTY_TOKENSET
        # All four incident arcs with capacities.
        assert k.arcs == {(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)}
        assert k.complete_vertices == {1}

    def test_k0_does_not_know_neighbors_state(self, bipath):
        k = initial_knowledge(bipath, 1)
        assert k.known_have(0) == EMPTY_TOKENSET
        assert k.known_want(2) == EMPTY_TOKENSET

    def test_knows_own_have_want(self, bipath):
        k = initial_knowledge(bipath, 0)
        assert k.known_have(0) == TokenSet.of(0)
        assert k.known_want(0) == TokenSet.of(1)


class TestMerge:
    def test_merge_unions_everything(self, bipath):
        a = initial_knowledge(bipath, 0)
        b = initial_knowledge(bipath, 1)
        a.merge_from(b)
        assert (1, 2, 1) in a.arcs
        assert a.complete_vertices == {0, 1}

    def test_merge_monotone_possession(self, bipath):
        a = initial_knowledge(bipath, 0)
        b = initial_knowledge(bipath, 0)
        b.have[1] = TokenSet.of(0)
        a.merge_from(b)
        a.merge_from(initial_knowledge(bipath, 0))  # re-merging stale info
        assert a.known_have(1) == TokenSet.of(0)  # never regresses

    def test_record_own_possession(self, bipath):
        k = initial_knowledge(bipath, 2)
        k.record_own_possession(TokenSet.of(0))
        assert k.known_have(2) == TokenSet.of(0, 1)

    def test_snapshot_isolated(self, bipath):
        k = initial_knowledge(bipath, 0)
        snap = k.snapshot()
        k.record_own_possession(TokenSet.of(1))
        assert snap.known_have(0) == TokenSet.of(0)


class TestCompleteness:
    def test_incomplete_until_gossip_converges(self, bipath):
        ks = [initial_knowledge(bipath, v) for v in range(3)]
        assert not any(k.is_topology_complete() for k in ks)
        # One gossip round: middle vertex hears both ends -> complete.
        snaps = [k.snapshot() for k in ks]
        for v in range(3):
            for u in bipath.neighbors(v):
                ks[v].merge_from(snaps[u])
        assert ks[1].is_topology_complete()
        assert not ks[0].is_topology_complete()  # 0 has not heard of 2's arcs
        # Second round completes the ends.
        snaps = [k.snapshot() for k in ks]
        for v in range(3):
            for u in bipath.neighbors(v):
                ks[v].merge_from(snaps[u])
        assert all(k.is_topology_complete() for k in ks)

    def test_as_problem_none_while_incomplete(self, bipath):
        k = initial_knowledge(bipath, 0)
        assert k.as_problem() is None

    def test_as_problem_reconstructs_exactly(self, bipath):
        ks = [initial_knowledge(bipath, v) for v in range(3)]
        for _round in range(3):
            snaps = [k.snapshot() for k in ks]
            for v in range(3):
                for u in bipath.neighbors(v):
                    ks[v].merge_from(snaps[u])
        rebuilt = [k.as_problem() for k in ks]
        for r in rebuilt:
            assert r is not None
            assert set(r.arcs) == set(bipath.arcs)
            assert r.have == bipath.have
            assert r.want == bipath.want
        # All vertices reconstruct the identical problem.
        assert rebuilt[0] == rebuilt[1] == rebuilt[2]

    def test_known_vertices(self, bipath):
        k = initial_knowledge(bipath, 1)
        assert k.known_vertices() == {0, 1, 2}


# ----------------------------------------------------------------------
# The lag identity: the view equals the materialized oracle
# ----------------------------------------------------------------------
@st.composite
def gossip_problems(draw):
    """Small instances with one-way arcs, isolated vertices and
    unreachable wants: gossip runs both ways along every arc, possession
    only along it, and components never hear of each other."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = rng.randint(1, 9)
    m = rng.randint(1, 4)
    density = rng.choice([0.1, 0.25, 0.5])
    arcs = [
        (u, v, rng.randint(1, 2))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    ]
    have = {v: [t for t in range(m) if rng.random() < 0.35] for v in range(n)}
    want = {v: [t for t in range(m) if rng.random() < 0.35] for v in range(n)}
    return Problem.build(n, m, arcs, have, want)


def step_arrivals(timestep):
    """Each destination's arrivals in ``timestep``, as the oracle loop
    folds them: ``{dst: mask}``."""
    arrivals = {}
    for (_src, dst), tokens in timestep.sends.items():
        arrivals[dst] = arrivals.get(dst, 0) | tokens.mask
    return arrivals


def gossip_round(knowledge, problem, arrivals):
    """One round of the materialized gossip, as the oracle loop runs it."""
    snapshots = [k.snapshot() for k in knowledge]
    learned = 0
    for v, known in enumerate(knowledge):
        before = known.size_facts()
        for u in problem.neighbors(v):
            known.merge_from(snapshots[u])
        learned += known.size_facts() - before
        if v in arrivals:
            known.record_own_possession(TokenSet(arrivals[v]))
    return learned


def assert_view_matches(view, oracle, n):
    owner = oracle.owner
    assert view.owner == owner
    for x in range(n):
        assert view.known_have(x) == oracle.known_have(x), (owner, x)
        assert view.known_want(x) == oracle.known_want(x), (owner, x)
    assert dict(view.have.items()) == oracle.have
    assert dict(view.want.items()) == oracle.want
    assert sorted(view.have) == sorted(oracle.have)
    assert len(view.have) == len(oracle.have)
    assert view.known_vertices() == oracle.known_vertices()
    assert view.complete_vertices == oracle.complete_vertices
    assert view.is_topology_complete() == oracle.is_topology_complete()
    assert view.as_problem() == oracle.as_problem()
    # The arc sets are gossiped exactly, so even their order agrees.
    assert view.out_arcs_of(owner) == oracle.out_arcs_of(owner)
    assert list(view.arcs) == list(oracle.arcs)


class OracleCheckedEngine(LocalEngine):
    """Steps the materialized oracle alongside the views and compares
    them before every decision."""

    def _start(self, state):
        label = super()._start(state)
        n = self.problem.num_vertices
        self.oracle = [initial_knowledge(self.problem, v) for v in range(n)]
        self.oracle_learned = []
        self.check()
        return label

    def _finish_step(self, state, timestep, step, version_before):
        before = self._knowledge_cost
        super()._finish_step(state, timestep, step, version_before)
        learned = gossip_round(self.oracle, self.problem, step_arrivals(timestep))
        assert self._knowledge_cost - before == learned, step
        self.check()

    def check(self):
        n = self.problem.num_vertices
        for view, oracle in zip(self._knowledge, self.oracle):
            assert_view_matches(view, oracle, n)


class MaterializedEngine(LocalEngine):
    """The LOCD runner with per-vertex materialized knowledge, its gossip
    round and ``facts_learned`` count as they were before the view."""

    def _start(self, state):
        n = self.problem.num_vertices
        self._knowledge = [initial_knowledge(self.problem, v) for v in range(n)]
        self._knowledge_cost = 0
        self.algorithm.reset(n, self.rng)
        return self.algorithm.name

    def _finish_step(self, state, timestep, step, version_before):
        with self._timer("knowledge_flood"):
            learned = gossip_round(self._knowledge, self.problem, step_arrivals(timestep))
        self._knowledge_cost += learned
        if self.metrics is not None:
            self.metrics.counter("facts_learned").inc(learned)
        if self.tracer.enabled:
            emit_step_event(
                self.tracer,
                self.problem,
                state,
                timestep,
                step,
                version_before,
                extra={"facts_learned": learned},
            )


def flood_then_greedy(problem):
    """Flood-then-optimal, with an empty plan where greedy would stall."""
    if problem.is_satisfiable():
        return FloodThenOptimal()
    return FloodThenOptimal(planner=lambda _problem: Schedule([]))


ALGORITHMS = [
    lambda _problem: LocalRarest(),
    lambda _problem: LocalRandom(),
    lambda _problem: LocalRoundRobin(),
    flood_then_greedy,
]


class TestLagIdentity:
    @given(gossip_problems(), st.sampled_from(ALGORITHMS), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_view_equals_oracle_every_step(self, problem, algorithm, seed):
        engine = OracleCheckedEngine(
            problem, algorithm(problem), rng=random.Random(seed), max_steps=8
        )
        engine.run()

    def test_lag_goes_past_two(self):
        """A long path: the far end's facts arrive with lag 5."""
        path = Problem.build(
            6,
            2,
            [(v, v + 1, 1) for v in range(5)],
            {0: [0, 1]},
            {5: [1]},
        )
        engine = OracleCheckedEngine(path, LocalRarest(), rng=random.Random(3))
        assert engine.run().success

    @given(gossip_problems(), st.sampled_from(ALGORITHMS), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_trace_bytes_match_materialized_gossip(self, problem, algorithm, seed):
        traces = []
        for engine_class in (LocalEngine, MaterializedEngine):
            handle = io.StringIO()
            tracer = JsonlTracer(handle=handle)
            engine_class(
                problem,
                algorithm(problem),
                rng=random.Random(seed),
                max_steps=8,
                tracer=tracer,
            ).run()
            tracer.close()
            traces.append(handle.getvalue())
        assert traces[0] == traces[1]


class TestAcyclic:
    def test_finished_engine_freed_without_gc(self):
        """Views point at the shared gossip state, never at the engine,
        so dropping the engine frees everything by reference counting."""
        problem = Problem.build(
            4,
            2,
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
            {0: [0, 1]},
            {2: [0, 1]},
        )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = LocalEngine(problem, LocalRarest(), rng=random.Random(1))
            assert engine.run().success
            refs = [weakref.ref(engine), weakref.ref(engine._gossip)]
            refs += [weakref.ref(view) for view in engine._knowledge]
            refs += [weakref.ref(view.have) for view in engine._knowledge]
            del engine
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()
