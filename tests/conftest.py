"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import strategies as st

from repro.core.problem import Problem
from repro.core.schedule import Move, Schedule
from repro.core.tokenset import TokenSet
from repro.obs.events import EVENT_SCHEMAS, make_event
from repro.sim.state import SimState

# ----------------------------------------------------------------------
# Plain fixtures
# ----------------------------------------------------------------------


@pytest.fixture
def path_problem() -> Problem:
    """0 -> 1 -> 2; two tokens at 0, wanted at 2.  Optimal makespan 3."""
    return Problem.build(3, 2, [(0, 1, 1), (1, 2, 1)], {0: [0, 1]}, {2: [0, 1]})


@pytest.fixture
def diamond_problem() -> Problem:
    """s -> {a, b} -> t with one token at s wanted everywhere."""
    return Problem.build(
        4,
        1,
        [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)],
        {0: [0]},
        {1: [0], 2: [0], 3: [0]},
    )


@pytest.fixture
def trivial_problem() -> Problem:
    """Already satisfied: wants covered by initial haves."""
    return Problem.build(2, 1, [(0, 1, 1)], {0: [0], 1: [0]}, {1: [0]})


def make_random_problem(
    rng: random.Random,
    max_vertices: int = 6,
    max_tokens: int = 3,
    max_capacity: int = 2,
    ensure_satisfiable: bool = True,
) -> Problem:
    """A small random connected symmetric instance for cross-checks."""
    n = rng.randint(2, max_vertices)
    m = rng.randint(1, max_tokens)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):  # random spanning tree for connectivity
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    arcs = []
    for u, v in sorted(edges):
        cap = rng.randint(1, max_capacity)
        arcs.append((u, v, cap))
        arcs.append((v, u, cap))
    have = {}
    want = {}
    for t in range(m):
        holders = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        for h in holders:
            have.setdefault(h, []).append(t)
        for v in range(n):
            if v not in holders and rng.random() < 0.5:
                want.setdefault(v, []).append(t)
    problem = Problem.build(n, m, arcs, have, want)
    if ensure_satisfiable:
        assert problem.is_satisfiable()  # connected + every token held
    return problem


def new_heuristic(name: str) -> Any:
    """A fresh heuristic by name: the paper's five, or ``sequential``."""
    from repro.heuristics import HEURISTIC_FACTORIES, SequentialHeuristic

    if name == "sequential":
        return SequentialHeuristic()
    return HEURISTIC_FACTORIES[name]()


def recorded_run(
    problem: Problem, name: str, seed: int, reference: bool = False
) -> Tuple[Any, List[Any]]:
    """One run of heuristic ``name`` and its RNG stream.

    Returns the :class:`~repro.sim.RunResult` and ``rng.getstate()``
    after every proposal, then once more at the end of the run.  The
    live heuristic runs under :class:`repro.sim.Engine` on its one
    proposal path (``propose_vector`` when it has one); with
    ``reference`` the frozen heuristic runs under the frozen loop of
    :mod:`repro.sim.reference`.
    """
    from repro.sim import Engine
    from repro.sim.reference import ReferenceEngine, make_reference_heuristic

    states: List[Any] = []
    base = make_reference_heuristic(name) if reference else new_heuristic(name)
    method = "propose_vector" if hasattr(base, "propose_vector") else "propose"

    def propose(self: Any, arg: Any) -> Any:
        proposal = getattr(super(Recording, self), method)(arg)
        states.append(self.rng.getstate())
        return proposal

    Recording = type("Recording", (type(base),), {method: propose})
    rng = random.Random(seed)
    driver = ReferenceEngine if reference else Engine
    result = driver(problem, Recording(), rng=rng).run()
    states.append(rng.getstate())
    return result, states


def vector_sends(
    heuristic: Any, problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> Dict[Tuple[int, int], TokenSet]:
    """One ``propose_vector`` step of a reset ``heuristic``.

    Runs it on a fresh ``SimState(problem, possession)`` (possession
    defaults to ``problem.have``), validates the proposal as the engine
    does, and decodes the timestep into its ``{(src, dst): tokens}``
    send dict, in send order.
    """
    state = SimState(problem, possession)
    timestep, _arrivals = state.validate_vector(
        problem, heuristic.propose_vector(state)
    )
    return dict(timestep.sends)


@pytest.fixture
def random_problems() -> List[Problem]:
    """A deterministic batch of varied small instances."""
    rng = random.Random(1234)
    return [make_random_problem(rng) for _ in range(20)]


def complete_event(kind: str, /, **fields: Any) -> Dict[str, Any]:
    """``make_event(kind, fields)`` with every required field the caller
    leaves out filled by its type's empty value (``0``, ``""``, ``[]``…),
    for tests that care about a few fields of an otherwise valid event."""
    empty = {"str": str, "int": int, "float": float, "bool": bool, "list": list, "dict": dict}
    full = {name: empty[t]() for name, t in EVENT_SCHEMAS[kind].required.items()}
    full.update(fields)
    return make_event(kind, full)


def make_instance_family(
    seed: int, count: int = 30, include_generators: bool = True
) -> List[Problem]:
    """A deterministic mixed batch spanning every instance family.

    Rotates through the conftest's generic random instances and the
    topology generators' random / bottleneck / DAG / adversarial-spread
    families, so invariant suites see varied shapes (multi-holder,
    choke-point, acyclic, distance-stressed) from one seed.
    """
    from repro.topology.generators import (
        adversarial_spread_instance,
        bottleneck_instance,
        dag_instance,
        random_instance,
    )

    rng = random.Random(seed)
    problems: List[Problem] = []
    for index in range(count):
        family = index % 5 if include_generators else 0
        if family == 0:
            problems.append(make_random_problem(rng))
        elif family == 1:
            problems.append(random_instance(rng, max_vertices=6, max_tokens=3))
        elif family == 2:
            problems.append(
                bottleneck_instance(rng, cluster_size=2, num_tokens=2)
            )
        elif family == 3:
            problems.append(dag_instance(rng, num_vertices=5, num_tokens=2))
        else:
            problems.append(
                adversarial_spread_instance(rng, num_vertices=6, num_tokens=2)
            )
    return problems


@pytest.fixture(scope="session")
def instance_family() -> List[Problem]:
    """The shared ~30-instance batch used by cross-heuristic suites."""
    return make_instance_family(seed=987, count=30)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

token_sets = st.builds(
    TokenSet.from_iterable,
    st.lists(st.integers(min_value=0, max_value=63), max_size=16),
)


@st.composite
def problems(draw, max_vertices: int = 6, max_tokens: int = 4) -> Problem:
    """Random connected symmetric satisfiable instances."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    return make_random_problem(
        rng, max_vertices=max_vertices, max_tokens=max_tokens
    )


@st.composite
def problems_with_schedules(draw) -> Tuple[Problem, Schedule]:
    """An instance plus a *valid* (not necessarily successful) schedule,
    produced by simulating random legal sends."""
    problem = draw(problems())
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    num_steps = rng.randint(0, 5)
    possession = list(problem.have)
    steps: List[List[Move]] = []
    for _ in range(num_steps):
        moves: List[Move] = []
        arrivals = {}
        for arc in problem.arcs:
            owned = list(possession[arc.src])
            if not owned or rng.random() < 0.4:
                continue
            chosen = rng.sample(owned, min(len(owned), rng.randint(1, arc.capacity)))
            for token in chosen:
                moves.append(Move(arc.src, arc.dst, token))
                arrivals.setdefault(arc.dst, set()).update(chosen)
        for dst, tokens in arrivals.items():
            possession[dst] = possession[dst] | TokenSet.from_iterable(tokens)
        steps.append(moves)
    return problem, Schedule.from_move_lists(steps)
