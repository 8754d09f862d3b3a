"""Distribution schedules: moves, timesteps, validity, and metrics.

Section 3.1 defines a *move* as an assignment of a token to an arc and a
*timestep* as a set of simultaneous moves.  A schedule is valid when every
timestep respects the arc capacities and the possession rule (a vertex may
only send tokens it held at the *start* of the timestep), and successful
when every vertex ends up holding everything it wants.

This module is the single authority on those rules: :func:`check_sends`
is the one per-send validator, shared by :meth:`Schedule.validate` and
every simulation driver.  The polynomial-time verifier used in the
NP-completeness argument (Theorem 3) is exactly :meth:`Schedule.validate`
followed by :meth:`Schedule.is_successful`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.core.bitplanes import masks_to_matrix, np
from repro.core.problem import Problem
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet

__all__ = ["Move", "Timestep", "Schedule", "ScheduleError", "MoveError", "check_sends"]


class ScheduleError(ValueError):
    """Raised when a schedule violates the model constraints."""


class MoveError(ValueError):
    """One send breaks a §3.1 rule; callers say where the send came from."""

    @classmethod
    def over_capacity(cls, src: int, dst: int, count: int, cap: int) -> "MoveError":
        return cls(f"arc ({src}, {dst}) carries {count} tokens, capacity {cap}")

    @classmethod
    def unpossessed(cls, src: int, missing: int) -> "MoveError":
        return cls(f"vertex {src} sends tokens {sorted(TokenSet(missing))} it does not possess")


def check_sends(
    problem: Problem,
    sends: Mapping[Tuple[int, int], TokenSet],
    possession_masks: Sequence[int],
) -> Tuple[Dict[Tuple[int, int], TokenSet], Dict[int, int]]:
    """Check one timestep's sends against the §3.1 rules.

    Each non-empty send must use an arc of ``problem``, carry only tokens
    of its universe, fit the arc's capacity, and carry only tokens the
    sender held at the start of the step; the first that does not raises
    :class:`MoveError`.  Returns the non-empty sends (a fresh dict, for
    :meth:`Timestep.from_validated`) and the arrival masks per
    destination, folded in send order.
    """
    capacities = problem._capacity
    num_tokens = problem.num_tokens
    valid: Dict[Tuple[int, int], TokenSet] = {}
    arrivals: Dict[int, int] = {}
    for (src, dst), tokens in sends.items():
        mask = tokens.mask
        if not mask:
            continue
        cap = capacities.get((src, dst))
        if cap is None:
            raise MoveError(f"no arc ({src}, {dst}) in the graph")
        if mask >> num_tokens:
            raise MoveError(
                f"arc ({src}, {dst}) carries tokens outside 0..{num_tokens - 1}"
            )
        count = mask.bit_count()
        if count > cap:
            raise MoveError.over_capacity(src, dst, count, cap)
        missing = mask & ~possession_masks[src]
        if missing:
            raise MoveError.unpossessed(src, missing)
        valid[(src, dst)] = tokens
        prev = arrivals.get(dst)
        arrivals[dst] = mask if prev is None else prev | mask
    return valid, arrivals


@dataclass(frozen=True, order=True)
class Move:
    """One token crossing one arc during one timestep."""

    src: int
    dst: int
    token: int

    def __repr__(self) -> str:
        return f"Move({self.src}->{self.dst}, t{self.token})"


class Timestep:
    """The set of simultaneous moves of one timestep.

    Stored as a mapping from arc ``(src, dst)`` to the :class:`TokenSet`
    sent across it — the paper's ``s_i`` function.
    """

    __slots__ = ("sends",)

    def __init__(self, sends: Mapping[Tuple[int, int], TokenSet] | None = None) -> None:
        self.sends: Dict[Tuple[int, int], TokenSet] = {}
        if sends:
            for arc, tokens in sends.items():
                if tokens:
                    self.sends[arc] = tokens

    @classmethod
    def from_validated(
        cls, sends: Dict[Tuple[int, int], TokenSet]
    ) -> "Timestep":
        """Adopt ``sends`` without copying or re-filtering.

        For engine hot paths that just built a fresh dict of validated,
        non-empty sends; the caller must not mutate ``sends`` afterwards.
        """
        step = cls()
        step.sends = sends
        return step

    @classmethod
    def from_moves(cls, moves: Iterable[Move]) -> "Timestep":
        step = cls()
        for move in moves:
            arc = (move.src, move.dst)
            step.sends[arc] = step.sends.get(arc, EMPTY_TOKENSET).add(move.token)
        return step

    def moves(self) -> List[Move]:
        """All moves of this timestep, in deterministic order."""
        out: List[Move] = []
        for (src, dst), tokens in sorted(self.sends.items()):
            for token in tokens:
                out.append(Move(src, dst, token))
        return out

    def num_moves(self) -> int:
        return sum(len(tokens) for tokens in self.sends.values())

    def send_arrays(self, num_tokens: int) -> Tuple[Any, Any, Any]:
        """The sends as ``(src, dst, masks)`` arrays, in insertion order.

        ``src`` and ``dst`` are int64 vectors; ``masks`` is a
        ``(K, planes)`` uint64 matrix in the :mod:`repro.core.bitplanes`
        layout for a ``num_tokens``-token universe.  This base class
        packs its dict; the kernel's lazy vector timestep hands over
        the arrays it already holds.
        """
        sends = self.sends
        count = len(sends)
        src = np.fromiter((src for src, _dst in sends), dtype=np.int64, count=count)
        dst = np.fromiter((dst for _src, dst in sends), dtype=np.int64, count=count)
        masks = masks_to_matrix([tokens.mask for tokens in sends.values()], num_tokens)
        return src, dst, masks

    def sent(self, src: int, dst: int) -> TokenSet:
        return self.sends.get((src, dst), EMPTY_TOKENSET)

    def __bool__(self) -> bool:
        return any(self.sends.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestep):
            return NotImplemented
        return self.sends == other.sends

    def __repr__(self) -> str:
        return f"Timestep({self.num_moves()} moves over {len(self.sends)} arcs)"


class Schedule:
    """A sequence of timesteps for one :class:`Problem`.

    The schedule does not store possession state; :meth:`replay`
    reconstructs the paper's ``p_i`` functions from the initial haves,
    and :meth:`validate` checks the capacity and possession constraints
    along the way.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[Timestep] = ()) -> None:
        self.steps: List[Timestep] = list(steps)

    @classmethod
    def from_move_lists(cls, move_lists: Sequence[Iterable[Move]]) -> "Schedule":
        return cls([Timestep.from_moves(moves) for moves in move_lists])

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> int:
        """Number of timesteps — the FOCD objective."""
        return len(self.steps)

    @property
    def bandwidth(self) -> int:
        """Total number of moves — the EOCD objective."""
        return sum(step.num_moves() for step in self.steps)

    def moves(self) -> List[Tuple[int, Move]]:
        """All ``(timestep_index, move)`` pairs in schedule order."""
        out: List[Tuple[int, Move]] = []
        for i, step in enumerate(self.steps):
            for move in step.moves():
                out.append((i, move))
        return out

    # ------------------------------------------------------------------
    # Replay and validation
    # ------------------------------------------------------------------
    def validate(self, problem: Problem) -> List[List[TokenSet]]:
        """Check every model constraint; return the possession history.

        Returns ``t + 1`` possession vectors ``p_0 .. p_t``.  Raises
        :class:`ScheduleError` on the first violation that
        :func:`check_sends` finds: an unknown arc, a token id outside the
        universe, a capacity overflow, or a send of an unpossessed token.
        This is the polynomial-time verifier from the proof of Theorem 3,
        and the one schedule replay: every possession history is read
        from it, so no reader sees tokens a sender never held.
        """
        masks = [tokens.mask for tokens in problem.have]
        possession: List[List[TokenSet]] = [list(problem.have)]
        for i, step in enumerate(self.steps):
            try:
                _sends, arrivals = check_sends(problem, step.sends, masks)
            except MoveError as err:
                raise ScheduleError(f"timestep {i}: {err}") from None
            current = list(possession[-1])
            for dst, mask in arrivals.items():
                masks[dst] |= mask
                current[dst] = TokenSet(masks[dst])
            possession.append(current)
        return possession

    def is_valid(self, problem: Problem) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(problem)
        except ScheduleError:
            return False
        return True

    def is_successful(self, problem: Problem) -> bool:
        """Whether the final possession covers every want (after validating)."""
        final = self.validate(problem)[-1]
        return all(
            problem.want[v] <= final[v] for v in range(problem.num_vertices)
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "steps": [
                {f"{src},{dst}": sorted(tokens) for (src, dst), tokens in step.sends.items()}
                for step in self.steps
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schedule":
        steps: List[Timestep] = []
        for step_data in data["steps"]:
            sends: Dict[Tuple[int, int], TokenSet] = {}
            for arc_key, tokens in step_data.items():
                src_s, dst_s = arc_key.split(",")
                sends[(int(src_s), int(dst_s))] = TokenSet.from_iterable(tokens)
            steps.append(Timestep(sends))
        return cls(steps)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Timestep]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> Timestep:
        return self.steps[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.steps == other.steps

    def __repr__(self) -> str:
        return f"<Schedule makespan={self.makespan} bandwidth={self.bandwidth}>"
