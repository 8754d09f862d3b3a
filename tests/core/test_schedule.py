"""Unit and property tests for Move/Timestep/Schedule and the
polynomial-time verifier (Theorem 3's certificate checker)."""

import pytest
from hypothesis import given

from repro.analysis.streaming import streaming_report
from repro.core.metrics import completion_times
from repro.core.schedule import Move, Schedule, ScheduleError, Timestep
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet
from repro.sim.render import schedule_to_text

from tests.conftest import problems_with_schedules


class TestTimestep:
    def test_from_moves_groups_by_arc(self):
        step = Timestep.from_moves(
            [Move(0, 1, 0), Move(0, 1, 1), Move(1, 2, 0)]
        )
        assert step.sent(0, 1) == TokenSet.of(0, 1)
        assert step.sent(1, 2) == TokenSet.of(0)
        assert step.sent(2, 0) == EMPTY_TOKENSET

    def test_num_moves(self):
        step = Timestep({(0, 1): TokenSet.of(0, 1), (1, 2): TokenSet.of(2)})
        assert step.num_moves() == 3

    def test_empty_sends_dropped(self):
        step = Timestep({(0, 1): EMPTY_TOKENSET})
        assert not step
        assert step.num_moves() == 0

    def test_moves_deterministic_order(self):
        step = Timestep({(1, 2): TokenSet.of(1), (0, 1): TokenSet.of(0, 2)})
        assert step.moves() == [Move(0, 1, 0), Move(0, 1, 2), Move(1, 2, 1)]

    def test_equality(self):
        a = Timestep({(0, 1): TokenSet.of(0)})
        b = Timestep.from_moves([Move(0, 1, 0)])
        assert a == b

    def test_repr(self):
        assert "2 moves" in repr(Timestep({(0, 1): TokenSet.of(0, 1)}))


class TestScheduleMetrics:
    def test_makespan_bandwidth(self):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)]]
        )
        assert sched.makespan == 2
        assert sched.bandwidth == 3

    def test_empty_schedule(self):
        sched = Schedule()
        assert sched.makespan == 0
        assert sched.bandwidth == 0

    def test_moves_indexed(self):
        sched = Schedule.from_move_lists([[Move(0, 1, 0)], [Move(1, 2, 0)]])
        assert sched.moves() == [(0, Move(0, 1, 0)), (1, Move(1, 2, 0))]

    def test_sequence_protocol(self):
        steps = [Timestep({(0, 1): TokenSet.of(0)})]
        sched = Schedule(steps)
        assert len(sched) == 1
        assert sched[0] == steps[0]
        assert list(iter(sched)) == steps


class TestReplayValidate:
    def test_validate_accumulates(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        history = sched.validate(path_problem)
        assert sorted(history[1][1]) == [0]
        assert sorted(history[2][1]) == [0, 1]
        assert sorted(history[3][2]) == [0, 1]

    def test_validate_passes_legal(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        history = sched.validate(path_problem)
        assert len(history) == 4

    def test_validate_rejects_missing_arc(self, path_problem):
        sched = Schedule.from_move_lists([[Move(2, 0, 0)]])
        with pytest.raises(ScheduleError, match="no arc"):
            sched.validate(path_problem)

    def test_validate_rejects_over_capacity(self, path_problem):
        sched = Schedule.from_move_lists([[Move(0, 1, 0), Move(0, 1, 1)]])
        with pytest.raises(ScheduleError, match="capacity"):
            sched.validate(path_problem)

    def test_validate_rejects_unpossessed_send(self, path_problem):
        # Vertex 1 has nothing at step 0.
        sched = Schedule.from_move_lists([[Move(1, 2, 0)]])
        with pytest.raises(ScheduleError, match="does not possess"):
            sched.validate(path_problem)

    def test_validate_rejects_same_step_relay(self, path_problem):
        # Token arrives at 1 and leaves 1 in the same step: possession is
        # measured at the start of the timestep, so this is illegal.
        sched = Schedule.from_move_lists([[Move(0, 1, 0), Move(1, 2, 0)]])
        with pytest.raises(ScheduleError, match="does not possess"):
            sched.validate(path_problem)

    def test_validate_rejects_token_out_of_universe(self, path_problem):
        sched = Schedule([Timestep({(0, 1): TokenSet.of(5)})])
        with pytest.raises(ScheduleError, match="outside"):
            sched.validate(path_problem)

    def test_is_valid_boolean(self, path_problem):
        good = Schedule.from_move_lists([[Move(0, 1, 0)]])
        bad = Schedule.from_move_lists([[Move(1, 2, 0)]])
        assert good.is_valid(path_problem)
        assert not bad.is_valid(path_problem)


class TestSuccess:
    def test_successful_schedule(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)], [Move(1, 2, 1)]]
        )
        assert sched.is_successful(path_problem)

    def test_incomplete_schedule_not_successful(self, path_problem):
        sched = Schedule.from_move_lists([[Move(0, 1, 0)]])
        assert not sched.is_successful(path_problem)

    def test_trivially_satisfied_empty_schedule(self, trivial_problem):
        assert Schedule().is_successful(trivial_problem)

    def test_final_possession(self, path_problem):
        sched = Schedule.from_move_lists([[Move(0, 1, 0)]])
        final = sched.validate(path_problem)[-1]
        assert sorted(final[1]) == [0]


class TestSerialization:
    def test_dict_roundtrip(self, path_problem):
        sched = Schedule.from_move_lists(
            [[Move(0, 1, 0)], [Move(0, 1, 1), Move(1, 2, 0)]]
        )
        assert Schedule.from_dict(sched.to_dict()) == sched

    def test_empty_roundtrip(self):
        assert Schedule.from_dict(Schedule().to_dict()) == Schedule()

    @given(problems_with_schedules())
    def test_dict_roundtrip_random(self, problem_and_schedule):
        _problem, schedule = problem_and_schedule
        assert Schedule.from_dict(schedule.to_dict()) == schedule


# ----------------------------------------------------------------------
# Property tests of the model invariants
# ----------------------------------------------------------------------


@given(problems_with_schedules())
def test_generated_schedules_are_valid(problem_and_schedule):
    problem, schedule = problem_and_schedule
    history = schedule.validate(problem)
    assert len(history) == schedule.makespan + 1


@given(problems_with_schedules())
def test_possession_is_monotone(problem_and_schedule):
    """p_i(v) only ever grows — the model's storage axiom."""
    problem, schedule = problem_and_schedule
    history = schedule.validate(problem)
    for before, after in zip(history, history[1:]):
        for v in range(problem.num_vertices):
            assert before[v] <= after[v]


@given(problems_with_schedules())
def test_tokens_never_minted(problem_and_schedule):
    """A vertex only gains tokens some in-neighbor already had (no new
    token types appear — the paper's static-token assumption)."""
    problem, schedule = problem_and_schedule
    history = schedule.validate(problem)
    for i, step in enumerate(schedule.steps):
        for (src, _dst), tokens in step.sends.items():
            assert tokens <= history[i][src]


# ----------------------------------------------------------------------
# One replay: every possession history is the validated one
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "reader",
    [completion_times, streaming_report, schedule_to_text],
    ids=lambda reader: reader.__name__,
)
def test_history_readers_reject_unpossessed_sends(path_problem, reader):
    """A reader of the possession history never credits a token its
    sender did not hold: it raises, naming the offending timestep."""
    # Step 0 is legal; at step 1 vertex 1 forwards token 1, which it
    # never received.
    sched = Schedule.from_move_lists([[Move(0, 1, 0)], [Move(1, 2, 1)]])
    with pytest.raises(ScheduleError, match="timestep 1: vertex 1 sends tokens"):
        reader(path_problem, sched)
