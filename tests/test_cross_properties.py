"""Cross-module property tests: invariants that tie subsystems together.

Each property relates two independently implemented components, so a
regression in either side breaks a test even if its own unit tests
still pass.
"""

import random

import pytest
from hypothesis import given, settings

from repro.core.fairness import account_schedule
from repro.core.pruning import prune_schedule
from repro.core.metrics import completion_times
from repro.analysis.streaming import playback_delays
from repro.heuristics import standard_heuristics
from repro.reductions import cleanup_schedule, polynomial_verifier, theorem1_bound
from repro.sim import run_heuristic
from repro.sim.reference import initial_knowledge

from tests.conftest import make_random_problem, problems, problems_with_schedules


@settings(max_examples=20, deadline=None)
@given(problems_with_schedules())
def test_accounting_matches_pruning_dedup(problem_and_schedule):
    """Fairness accounting and the dedup pruning pass count the same
    thing from opposite ends: total *useful* downloads equals the
    bandwidth surviving duplicate removal."""
    problem, schedule = problem_and_schedule
    report = account_schedule(problem, schedule)
    _pruned, stats = prune_schedule(problem, schedule)
    useful_total = sum(v.downloaded_useful for v in report.per_vertex)
    assert useful_total == stats.after_dedup


@settings(max_examples=20, deadline=None)
@given(problems_with_schedules())
def test_accounting_conserves_moves(problem_and_schedule):
    """Every move is exactly one upload and one download."""
    problem, schedule = problem_and_schedule
    report = account_schedule(problem, schedule)
    uploads = sum(v.uploaded for v in report.per_vertex)
    downloads = sum(v.downloaded for v in report.per_vertex)
    assert uploads == schedule.bandwidth
    assert downloads == schedule.bandwidth


@settings(max_examples=20, deadline=None)
@given(problems())
def test_playback_delay_brackets_completion(problem):
    """Streaming start time sits between 'completion minus stream
    length' and completion itself."""
    result = run_heuristic(problem, standard_heuristics()[2], seed=3)
    if not result.success:
        return
    delays = playback_delays(problem, result.schedule)
    completions = completion_times(problem, result.schedule)
    for v in range(problem.num_vertices):
        wanted = len(problem.want[v])
        if wanted == 0:
            continue
        assert delays[v] is not None and completions[v] is not None
        assert delays[v] <= completions[v]
        assert delays[v] >= completions[v] - (wanted - 1)


@settings(max_examples=15, deadline=None)
@given(problems())
def test_gossip_converges_within_eccentricity(problem):
    """Every vertex's knowledge is topology-complete after D gossip
    rounds, where D is the undirected diameter — the premise of the
    flood-then-optimal algorithm."""
    n = problem.num_vertices
    knowledge = [initial_knowledge(problem, v) for v in range(n)]
    # Undirected diameter via the Problem's gossip neighborhoods.
    from collections import deque

    diameter = 0
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in problem.neighbors(u):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        diameter = max(diameter, max(d for d in dist if d != -1))
    for _round in range(diameter):
        snaps = [k.snapshot() for k in knowledge]
        for v in range(n):
            for u in problem.neighbors(v):
                knowledge[v].merge_from(snaps[u])
    assert all(k.is_topology_complete() for k in knowledge)


@settings(max_examples=10, deadline=None)
@given(problems())
def test_every_heuristic_passes_the_theorem3_verifier(problem):
    """Simulator output is always a valid certificate (the engine and
    the verifier implement the same §3.1 rules independently)."""
    for heuristic in standard_heuristics():
        result = run_heuristic(problem, heuristic, seed=5)
        if result.success:
            assert polynomial_verifier(problem, result.schedule)


@settings(max_examples=10, deadline=None)
@given(problems())
def test_cleanup_meets_theorem1_everywhere(problem):
    for heuristic in standard_heuristics():
        result = run_heuristic(problem, heuristic, seed=6)
        if not result.success:
            continue
        cleaned = cleanup_schedule(problem, result.schedule)
        assert cleaned.bandwidth <= theorem1_bound(problem)
        assert cleaned.makespan <= theorem1_bound(problem)
        assert polynomial_verifier(problem, cleaned)


def test_prune_and_cleanup_agree_on_dedup_counts():
    """prune_schedule's dedup pass and cleanup_schedule remove the same
    moves (cleanup additionally compresses empty steps)."""
    rng = random.Random(99)
    for _ in range(8):
        problem = make_random_problem(rng)
        result = run_heuristic(problem, standard_heuristics()[0], seed=1)
        _pruned, stats = prune_schedule(problem, result.schedule)
        cleaned = cleanup_schedule(problem, result.schedule)
        assert cleaned.bandwidth == stats.after_dedup
