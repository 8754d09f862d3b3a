"""Unit and property tests for the Section 5.1 pruning pass.

The array passes of :mod:`repro.core.pruning` are checked against the
per-send scalar passes they replaced, kept here verbatim as the oracle:
every pruned step's ``list(sends.items())``, order included, and the
:class:`PruneStats` must match.
"""

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import Problem
from repro.core.pruning import PruneStats, dedup_schedule, drop_empty_tail, prune_schedule
from repro.core.schedule import Move, Schedule, Timestep
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet
from repro.heuristics import RoundRobinHeuristic, standard_heuristics
from repro.sim import run_heuristic
from repro.sim.state import _LazyVectorTimestep
from repro.topology import random_graph
from repro.workloads import file_subdivision, single_file

from tests.conftest import make_random_problem, problems, problems_with_schedules


# ----------------------------------------------------------------------
# The oracle: the scalar passes, one TokenSet per send
# ----------------------------------------------------------------------


def _dedup_pass(problem: Problem, schedule: Schedule) -> List[Dict[Tuple[int, int], TokenSet]]:
    """Keep only the first delivery of each token to each vertex.

    Within one timestep, parallel deliveries of the same token to the same
    vertex over different arcs are reduced to one (lowest source id wins,
    for determinism).
    """
    delivered: List[TokenSet] = list(problem.have)
    new_steps: List[Dict[Tuple[int, int], TokenSet]] = []
    for step in schedule.steps:
        kept: Dict[Tuple[int, int], TokenSet] = {}
        arriving_this_step: List[TokenSet] = [EMPTY_TOKENSET] * problem.num_vertices
        for (src, dst), tokens in sorted(step.sends.items()):
            useful = tokens - delivered[dst] - arriving_this_step[dst]
            if useful:
                kept[(src, dst)] = useful
                arriving_this_step[dst] = arriving_this_step[dst] | useful
        for v in range(problem.num_vertices):
            if arriving_this_step[v]:
                delivered[v] = delivered[v] | arriving_this_step[v]
        new_steps.append(kept)
    return new_steps


def _backward_pass(
    problem: Problem, steps: List[Dict[Tuple[int, int], TokenSet]]
) -> List[Dict[Tuple[int, int], TokenSet]]:
    """Remove deliveries whose token the destination never uses.

    ``future_sends[v]`` accumulates the tokens vertex ``v`` sends in
    retained timesteps strictly after the one being examined.
    """
    future_sends: List[TokenSet] = [EMPTY_TOKENSET] * problem.num_vertices
    pruned: List[Dict[Tuple[int, int], TokenSet]] = []
    for step in reversed(steps):
        kept: Dict[Tuple[int, int], TokenSet] = {}
        for (src, dst), tokens in step.items():
            used = tokens & (problem.want[dst] | future_sends[dst])
            if used:
                kept[(src, dst)] = used
        for (src, _dst), tokens in kept.items():
            future_sends[src] = future_sends[src] | tokens
        pruned.append(kept)
    pruned.reverse()
    return pruned


def oracle_prune(problem: Problem, schedule: Schedule) -> Tuple[Schedule, PruneStats]:
    deduped = _dedup_pass(problem, schedule)
    after_dedup_bw = sum(
        len(tokens) for step in deduped for tokens in step.values()
    )
    swept = _backward_pass(problem, deduped)
    pruned = Schedule([Timestep(step) for step in swept])
    stats = PruneStats(
        original_bandwidth=schedule.bandwidth,
        after_dedup=after_dedup_bw,
        after_backward=pruned.bandwidth,
    )
    return pruned, stats


def _items(schedule: Schedule) -> list:
    return [list(step.sends.items()) for step in schedule.steps]


def assert_matches_oracle(problem: Problem, schedule: Schedule) -> None:
    """Prune (arrays first, so lazy steps are read as arrays), then the
    oracle (which materializes them), then the arrays again."""
    pruned, stats = prune_schedule(problem, schedule)
    deduped = dedup_schedule(problem, schedule)
    want_pruned, want_stats = oracle_prune(problem, schedule)
    assert stats == want_stats
    assert _items(pruned) == _items(want_pruned)
    assert _items(deduped) == [list(step.items()) for step in _dedup_pass(problem, schedule)]
    again, again_stats = prune_schedule(problem, schedule)
    assert again_stats == want_stats
    assert _items(again) == _items(want_pruned)


class TestDedupPass:
    def test_repeat_delivery_removed(self, path_problem):
        # Token 0 delivered to vertex 1 twice.
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 0)], [Move(0, 1, 1)],
             [Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        pruned, stats = prune_schedule(path_problem, sched)
        assert stats.removed_by_dedup == 1
        assert pruned.is_successful(path_problem)

    def test_delivery_of_initial_token_removed(self):
        # Vertex 1 already has token 0; delivering it is useless.
        p = Problem.build(2, 1, [(0, 1, 1)], {0: [0], 1: [0]}, {1: [0]})
        sched = Schedule.from_move_lists([[Move(0, 1, 0)]])
        pruned, stats = prune_schedule(p, sched)
        assert pruned.bandwidth == 0
        assert stats.total_removed == 1

    def test_same_step_parallel_duplicates_keep_one(self):
        # Both 0 and 1 send token 0 to vertex 2 in the same step.
        p = Problem.build(
            3, 1, [(0, 2, 1), (1, 2, 1)], {0: [0], 1: [0]}, {2: [0]}
        )
        sched = Schedule.from_move_lists([[Move(0, 2, 0), Move(1, 2, 0)]])
        pruned, _ = prune_schedule(p, sched)
        assert pruned.bandwidth == 1
        assert pruned.is_successful(p)


class TestBackwardPass:
    def test_unused_delivery_removed(self):
        # Vertex 1 neither wants token 0 nor forwards it.
        p = Problem.build(3, 1, [(0, 1, 1), (0, 2, 1)], {0: [0]}, {2: [0]})
        sched = Schedule.from_move_lists([[Move(0, 1, 0), Move(0, 2, 0)]])
        pruned, stats = prune_schedule(p, sched)
        assert pruned.bandwidth == 1
        assert stats.removed_by_backward == 1
        assert pruned.is_successful(p)

    def test_relay_chain_fully_removed(self):
        # 0 -> 1 -> 2 where 2 wants nothing: both moves are dead weight.
        p = Problem.build(3, 1, [(0, 1, 1), (1, 2, 1)], {0: [0]}, {})
        sched = Schedule.from_move_lists([[Move(0, 1, 0)], [Move(1, 2, 0)]])
        pruned, _ = prune_schedule(p, sched)
        assert pruned.bandwidth == 0

    def test_useful_relay_kept(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        pruned, stats = prune_schedule(path_problem, sched)
        assert pruned.bandwidth == 4  # nothing to remove
        assert stats.total_removed == 0

    def test_wanted_delivery_kept_even_if_not_forwarded(self):
        p = Problem.build(2, 1, [(0, 1, 1)], {0: [0]}, {1: [0]})
        sched = Schedule.from_move_lists([[Move(0, 1, 0)]])
        pruned, _ = prune_schedule(p, sched)
        assert pruned.bandwidth == 1


class TestMakespanPreservation:
    def test_makespan_unchanged(self):
        p = Problem.build(3, 1, [(0, 1, 1), (1, 2, 1)], {0: [0]}, {})
        sched = Schedule.from_move_lists([[Move(0, 1, 0)], [Move(1, 2, 0)]])
        pruned, _ = prune_schedule(p, sched)
        assert pruned.makespan == sched.makespan  # empty steps kept in place

    def test_drop_empty_tail(self):
        p = Problem.build(3, 1, [(0, 1, 1), (1, 2, 1)], {0: [0]}, {})
        sched = Schedule.from_move_lists([[Move(0, 1, 0)], [Move(1, 2, 0)]])
        pruned, _ = prune_schedule(p, sched)
        assert drop_empty_tail(pruned).makespan == 0

    def test_drop_empty_tail_keeps_interior_gaps(self, path_problem):
        sched = Schedule.from_move_lists([[Move(0, 1, 0)], [], [Move(1, 2, 0)]])
        trimmed = drop_empty_tail(sched)
        assert trimmed.makespan == 3  # the gap is interior, not a tail


class TestStats:
    def test_stats_accounting(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 0)], [Move(0, 1, 1)],
             [Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        _, stats = prune_schedule(path_problem, sched)
        assert stats.original_bandwidth == 5
        assert stats.after_dedup == 4
        assert stats.after_backward == 4
        assert stats.total_removed == 1
        assert stats.removed_by_dedup + stats.removed_by_backward == 1


# ----------------------------------------------------------------------
# Property tests: pruning against real heuristic schedules
# ----------------------------------------------------------------------


def _heuristic_schedules():
    rng = random.Random(777)
    for _ in range(6):
        problem = make_random_problem(rng)
        for heuristic in standard_heuristics():
            result = run_heuristic(problem, heuristic, seed=rng.randrange(1000))
            if result.success:
                yield problem, result.schedule


@pytest.mark.parametrize(
    "problem,schedule", list(_heuristic_schedules()),
    ids=lambda v: "" if isinstance(v, Schedule) else repr(v),
)
def test_prune_preserves_success_on_heuristic_runs(problem, schedule):
    pruned, stats = prune_schedule(problem, schedule)
    assert pruned.is_successful(problem)
    assert pruned.bandwidth <= schedule.bandwidth
    assert pruned.makespan == schedule.makespan
    assert stats.total_removed == schedule.bandwidth - pruned.bandwidth


@given(problems())
def test_prune_idempotent(problem):
    result = run_heuristic(problem, RoundRobinHeuristic(), seed=0)
    pruned_once, _ = prune_schedule(problem, result.schedule)
    pruned_twice, stats = prune_schedule(problem, pruned_once)
    assert stats.total_removed == 0
    assert pruned_twice.bandwidth == pruned_once.bandwidth


@given(problems())
def test_prune_never_below_demand(problem):
    """Pruned bandwidth is still >= the wanted-but-missing lower bound."""
    result = run_heuristic(problem, RoundRobinHeuristic(), seed=1)
    if not result.success:
        return
    pruned, _ = prune_schedule(problem, result.schedule)
    demand = problem.total_demand()
    assert pruned.bandwidth >= demand


# ----------------------------------------------------------------------
# Differential tests: the array passes against the scalar oracle
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(min_value=0, max_value=2**16))
def test_array_passes_match_oracle_on_every_heuristic(problem, seed):
    for heuristic in standard_heuristics():
        result = run_heuristic(problem, heuristic, seed=seed)
        assert_matches_oracle(problem, result.schedule)


@settings(max_examples=40, deadline=None)
@given(problems_with_schedules())
def test_array_passes_match_oracle_on_random_valid_schedules(problem_and_schedule):
    assert_matches_oracle(*problem_and_schedule)


@st.composite
def multi_plane_problems(draw) -> Problem:
    """Instances whose token universe spans two to four bitplanes."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=3, max_value=10))
    files = draw(st.sampled_from([1, 2]))
    tokens = files * draw(st.integers(min_value=65 // files + 1, max_value=100))
    topology = random_graph(n, rng)
    if files == 1:
        return single_file(topology, file_tokens=tokens)
    return file_subdivision(topology, files, rng, total_tokens=tokens, multi_sender=True)


@settings(max_examples=15, deadline=None)
@given(multi_plane_problems(), st.integers(min_value=0, max_value=2**16))
def test_array_passes_match_oracle_beyond_64_tokens(problem, seed):
    assert problem.num_tokens > 64
    for heuristic in standard_heuristics():
        result = run_heuristic(problem, heuristic, seed=seed)
        assert_matches_oracle(problem, result.schedule)


def _sends(*items) -> Timestep:
    """A dict timestep that keeps the insertion order given."""
    return Timestep({arc: TokenSet.from_iterable(tokens) for arc, tokens in items})


class TestParallelDeliveries:
    """One step delivers one token to one vertex over several arcs."""

    @staticmethod
    def _star(num_tokens: int) -> Problem:
        # Senders 0, 1, 2 hold every token; vertex 3 wants all of them.
        everything = list(range(num_tokens))
        return Problem.build(
            4,
            num_tokens,
            [(0, 3, num_tokens), (1, 3, num_tokens), (2, 3, num_tokens), (3, 0, 1)],
            {0: everything, 1: everything, 2: everything},
            {3: everything},
        )

    def test_lowest_src_wins(self):
        problem = self._star(2)
        schedule = Schedule([_sends(((2, 3), [0, 1]), ((0, 3), [0]), ((1, 3), [0, 1]))])
        pruned, stats = prune_schedule(problem, schedule)
        assert _items(pruned) == [
            [((0, 3), TokenSet.from_iterable([0])), ((1, 3), TokenSet.from_iterable([1]))]
        ]
        assert stats == PruneStats(5, 2, 2)
        assert_matches_oracle(problem, schedule)

    def test_lowest_src_wins_across_planes(self):
        problem = self._star(130)
        schedule = Schedule(
            [
                _sends(((2, 3), [0, 64, 129]), ((1, 3), [64, 128]), ((0, 3), [129])),
                _sends(((1, 3), [0, 1, 128]), ((2, 3), [1, 2, 65])),
            ]
        )
        pruned, _stats = prune_schedule(problem, schedule)
        assert _items(pruned)[0] == [
            ((0, 3), TokenSet.from_iterable([129])),
            ((1, 3), TokenSet.from_iterable([64, 128])),
            ((2, 3), TokenSet.from_iterable([0])),
        ]
        assert _items(pruned)[1] == [
            ((1, 3), TokenSet.from_iterable([1])),
            ((2, 3), TokenSet.from_iterable([2, 65])),
        ]
        assert_matches_oracle(problem, schedule)

    def test_relay_of_a_parallel_delivery(self):
        # Vertex 3 gets token 0 twice in step 0 and relays it to vertex 0,
        # which already holds it: only the wanted delivery from 0 stays.
        problem = self._star(1)
        schedule = Schedule([_sends(((1, 3), [0]), ((0, 3), [0])), _sends(((3, 0), [0]))])
        pruned, stats = prune_schedule(problem, schedule)
        assert _items(pruned) == [[((0, 3), TokenSet.from_iterable([0]))], []]
        assert stats == PruneStats(3, 1, 1)
        assert_matches_oracle(problem, schedule)


def test_vector_schedule_is_pruned_without_building_its_dicts():
    problem = single_file(random_graph(40, random.Random(3)), file_tokens=8)
    schedule = run_heuristic(problem, RoundRobinHeuristic(), seed=0).schedule
    lazy = [step for step in schedule.steps if isinstance(step, _LazyVectorTimestep)]
    assert lazy and len(lazy) == len(schedule.steps)
    prune_schedule(problem, schedule)
    dedup_schedule(problem, schedule)
    for step in lazy:
        with pytest.raises(AttributeError):
            object.__getattribute__(step, "sends")
