"""The one §3.1 move validator, enforced through every driver.

Every driver — the global :class:`Engine`, the LOCD
:class:`LocalEngine`, and the changing-conditions
:class:`DynamicEngine` — validates proposals with
:func:`repro.core.schedule.check_sends`, so each offense must raise the
same :class:`HeuristicViolation` whichever driver proposed it.  The
kernel's array validator for vector proposals must word its offenses
identically.
"""

from typing import Callable, Dict, Optional, Tuple

import pytest

from repro.core.problem import Problem
from repro.core.schedule import MoveError, check_sends
from repro.core.tokenset import TokenSet
from repro.extensions.dynamic import CapacitySchedule, DynamicEngine
from repro.heuristics.base import Heuristic
from repro.locd.runner import LocalEngine
from repro.sim.engine import Engine, HeuristicViolation, violation

Sends = Dict[Tuple[int, int], TokenSet]


class _Scripted(Heuristic):
    """Plays back a fixed proposal every step."""

    name = "scripted"

    def __init__(self, sends: Sends):
        super().__init__()
        self._sends = sends

    def propose(self, ctx):
        return self._sends


class _ScriptedLocal:
    """The LOCD form: each vertex proposes its own sends from the script."""

    name = "scripted"

    def __init__(self, sends: Sends):
        self._sends = sends

    def reset(self, num_vertices, rng):
        pass

    def decide(self, step, knowledge, rng):
        return {
            arc: tokens
            for arc, tokens in self._sends.items()
            if arc[0] == knowledge.owner
        }


def _run_engine(problem: Problem, sends: Sends) -> None:
    Engine(problem, _Scripted(sends)).run()


def _run_local(problem: Problem, sends: Sends) -> None:
    LocalEngine(problem, _ScriptedLocal(sends)).run()


def _run_dynamic(
    problem: Problem,
    sends: Sends,
    capacity: Optional[Callable[[int, object], int]] = None,
) -> None:
    conditions = CapacitySchedule(
        problem, capacity or (lambda _step, arc: arc.capacity), name="test"
    )
    DynamicEngine(conditions, _Scripted(sends)).run()


DRIVERS = {"engine": _run_engine, "locd": _run_local, "dynamic": _run_dynamic}


def _path(capacity: int = 1) -> Problem:
    """0 -> 1 -> 2; two tokens at 0, wanted at 2."""
    return Problem.build(
        3, 2, [(0, 1, capacity), (1, 2, 1)], {0: [0, 1]}, {2: [0, 1]}
    )


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize(
    "sends, message",
    [
        ({(2, 0): TokenSet.of(0)}, "no arc (2, 0) in the graph"),
        ({(0, 1): TokenSet.of(0, 1)}, "arc (0, 1) carries 2 tokens, capacity 1"),
        ({(1, 2): TokenSet.of(0)}, "vertex 1 sends tokens [0] it does not possess"),
    ],
    ids=["missing-arc", "over-capacity", "unpossessed"],
)
def test_every_driver_rejects(driver, sends, message):
    with pytest.raises(HeuristicViolation) as info:
        DRIVERS[driver](_path(), sends)
    assert str(info.value).startswith("step 0: heuristic 'scripted")
    assert str(info.value).endswith(message)


def test_dynamic_rejects_arc_down_this_turn():
    """(0, 1) exists in the base problem but is down at step 0."""

    def capacity(step, arc):
        return 0 if (arc.src, arc.dst) == (0, 1) and step == 0 else arc.capacity

    with pytest.raises(HeuristicViolation, match=r"step 0: .*no arc \(0, 1\)"):
        _run_dynamic(_path(), {(0, 1): TokenSet.of(0)}, capacity)


def test_dynamic_rejects_send_over_reduced_capacity():
    """(0, 1) has capacity 2 in the base problem, but only 1 this turn."""
    problem = _path(capacity=2)
    _run_engine(problem, {(0, 1): TokenSet.of(0, 1)})  # legal statically
    with pytest.raises(HeuristicViolation, match=r"carries 2 tokens, capacity 1$"):
        _run_dynamic(problem, {(0, 1): TokenSet.of(0, 1)}, lambda _step, arc: 1)


def test_check_sends_folds_arrivals_in_send_order():
    problem = Problem.build(
        3, 2, [(0, 2, 1), (1, 2, 1), (0, 1, 1)], {0: [0], 1: [1]}, {2: [0, 1]}
    )
    sends = {
        (1, 2): TokenSet.of(1),
        (0, 1): TokenSet(),
        (0, 2): TokenSet.of(0),
    }
    valid, arrivals = check_sends(problem, sends, [0b01, 0b10, 0])
    assert list(valid) == [(1, 2), (0, 2)]  # empty sends dropped
    assert arrivals == {2: 0b11}


# ----------------------------------------------------------------------
# Vector/scalar message parity
# ----------------------------------------------------------------------
def _scalar_message(problem: Problem, sends: Sends) -> str:
    masks = [tokens.mask for tokens in problem.have]
    with pytest.raises(MoveError) as info:
        check_sends(problem, sends, masks)
    return str(violation("h", 0, info.value))


def _vector_message(problem: Problem, sends: Sends) -> str:
    import numpy as np

    from repro.core.bitplanes import masks_to_matrix, plane_count
    from repro.sim.state import VectorProposal

    index = {(arc.src, arc.dst): i for i, arc in enumerate(problem.arcs)}
    arc_indices = np.array([index[arc] for arc in sends], dtype=np.int64)
    mask_list = [tokens.mask for tokens in sends.values()]
    if plane_count(problem.num_tokens) == 1:
        masks = np.array(mask_list, dtype=np.uint64)
    else:
        masks = masks_to_matrix(mask_list, problem.num_tokens)

    class _VectorScripted(Heuristic):
        """Proposes the script as arrays, so the engine takes its vector path."""

        name = "h"

        def propose(self, ctx):
            raise AssertionError("the engine should take the vector path")

        def propose_vector(self, state):
            return VectorProposal(arc_indices, masks)

    with pytest.raises(HeuristicViolation) as info:
        Engine(problem, _VectorScripted()).run()
    return str(info.value)


@pytest.mark.parametrize("num_tokens", [8, 100], ids=["one-plane", "two-planes"])
@pytest.mark.parametrize("offense", ["over-capacity", "unpossessed"])
def test_vector_and_scalar_validators_word_offenses_alike(num_tokens, offense):
    high = num_tokens - 1  # beyond the first plane when num_tokens > 64
    problem = Problem.build(
        3,
        num_tokens,
        [(0, 1, 2), (1, 2, 2)],
        {0: list(range(num_tokens)), 1: [1]},
        {2: [0]},
    )
    if offense == "over-capacity":
        sends = {(1, 2): TokenSet.of(1), (0, 1): TokenSet.of(0, 5, high)}
        expected = "arc (0, 1) carries 3 tokens, capacity 2"
    else:
        sends = {(0, 1): TokenSet.of(0), (1, 2): TokenSet.of(1, high)}
        expected = f"vertex 1 sends tokens [{high}] it does not possess"
    scalar = _scalar_message(problem, sends)
    assert scalar == f"step 0: heuristic 'h': {expected}"
    assert _vector_message(problem, sends) == scalar
