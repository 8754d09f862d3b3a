"""Constructive certificates for Theorems 1–3.

* **Theorem 1** — a satisfiable FOCD instance is satisfiable in
  ``m(n-1)`` moves: no useful schedule delivers a token twice to the
  same vertex.  :func:`cleanup_schedule` performs exactly the proof's
  cleanup (drop repeat deliveries) and the tests check the resulting
  bandwidth never exceeds the bound.

* **Theorem 2** — some successful run can be described in
  ``O(nm (log n + log m))`` bits.  :func:`encode_schedule` implements the
  proof's encoding (a move list of ``2 log n + log m``-bit entries plus
  per-timestep segment counts) as an actual bit string, and
  :func:`decode_schedule` inverts it, so the bound is witnessed by real
  serialized bytes rather than a formula.

* **Theorem 3** — solutions are verifiable in polynomial time.
  :func:`polynomial_verifier` is that verifier: a single pass over the
  moves checking possession, capacity, and the end condition (it simply
  delegates to :meth:`repro.core.Schedule.validate`, which is the
  authority on the model's constraints).
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.problem import Problem
from repro.core.pruning import _dedup_pass
from repro.core.schedule import Schedule, ScheduleError, Timestep

__all__ = [
    "cleanup_schedule",
    "theorem1_bound",
    "encode_schedule",
    "decode_schedule",
    "theorem2_bit_bound",
    "polynomial_verifier",
]


def theorem1_bound(problem: Problem) -> int:
    """``m(n-1)``: the maximum number of useful moves."""
    return problem.move_bound()


def cleanup_schedule(problem: Problem, schedule: Schedule) -> Schedule:
    """The Theorem 1 cleanup: drop every move that delivers a token the
    destination already possesses, then compress out timesteps left with
    no moves at all (removing an idle step keeps a schedule valid —
    possession only ever grows).  The result has at most ``m(n-1)``
    moves spread over at most ``m(n-1)`` timesteps, which is what the
    Theorem 2 encoding budget assumes."""
    steps = [
        Timestep(step) for step in _dedup_pass(problem, schedule) if step
    ]
    return Schedule(steps)


# ----------------------------------------------------------------------
# Theorem 2: the explicit bit encoding
# ----------------------------------------------------------------------
class _BitWriter:
    def __init__(self) -> None:
        self.bits: List[int] = []

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for i in reversed(range(width)):
            self.bits.append((value >> i) & 1)

    def getvalue(self) -> bytes:
        out = bytearray()
        for i in range(0, len(self.bits), 8):
            byte = 0
            for bit in self.bits[i : i + 8]:
                byte = (byte << 1) | bit
            byte <<= (8 - min(8, len(self.bits) - i))
            out.append(byte)
        return bytes(out)

    def __len__(self) -> int:
        return len(self.bits)


class _BitReader:
    def __init__(self, data: bytes, num_bits: int) -> None:
        self.data = data
        self.num_bits = num_bits
        self.pos = 0

    def read(self, width: int) -> int:
        if self.pos + width > self.num_bits:
            raise ValueError("bit stream exhausted")
        value = 0
        for _ in range(width):
            byte = self.data[self.pos // 8]
            bit = (byte >> (7 - self.pos % 8)) & 1
            value = (value << 1) | bit
            self.pos += 1
        return value


def _field_widths(problem: Problem) -> Tuple[int, int, int]:
    """Bit widths for (vertex, token, counter) fields.

    Counters hold per-step move counts and the number of timesteps; the
    proof caps both by ``m(n-1) <= nm`` for cleaned schedules, so
    ``ceil(log2(nm + 1))`` bits suffice.
    """
    n = max(problem.num_vertices, 2)
    m = max(problem.num_tokens, 2)
    vertex_bits = math.ceil(math.log2(n))
    token_bits = math.ceil(math.log2(m))
    count_bits = max(1, math.ceil(math.log2(n * m + 1)))
    return vertex_bits, token_bits, count_bits


def encode_schedule(problem: Problem, schedule: Schedule) -> Tuple[bytes, int]:
    """Serialize a schedule with the Theorem 2 encoding.

    Returns ``(payload, num_bits)``.  Layout: a ``count_bits`` header with
    the number of timesteps, then per timestep a ``count_bits`` move
    count followed by ``(src, dst, token)`` records of
    ``2 log n + log m`` bits each.

    The encoding is defined for *cleaned* schedules, exactly as in the
    proof: at most ``nm`` moves per timestep and at most ``nm``
    timesteps.  Raises :class:`ScheduleError` otherwise — run
    :func:`cleanup_schedule` first.
    """
    vertex_bits, token_bits, count_bits = _field_widths(problem)
    limit = (1 << count_bits) - 1
    if len(schedule.steps) > limit:
        raise ScheduleError(
            f"{len(schedule.steps)} timesteps exceed the cleaned-schedule "
            f"budget of {limit}; apply cleanup_schedule first"
        )
    writer = _BitWriter()
    writer.write(len(schedule.steps), count_bits)
    for i, step in enumerate(schedule.steps):
        moves = step.moves()
        if len(moves) > limit:
            raise ScheduleError(
                f"timestep {i} has {len(moves)} moves, above the "
                f"cleaned-schedule budget of {limit}; apply cleanup_schedule "
                f"first"
            )
        writer.write(len(moves), count_bits)
        for move in moves:
            writer.write(move.src, vertex_bits)
            writer.write(move.dst, vertex_bits)
            writer.write(move.token, token_bits)
    return writer.getvalue(), len(writer)


def decode_schedule(problem: Problem, payload: bytes, num_bits: int) -> Schedule:
    """Invert :func:`encode_schedule`."""
    from repro.core.schedule import Move

    vertex_bits, token_bits, count_bits = _field_widths(problem)
    reader = _BitReader(payload, num_bits)
    num_steps = reader.read(count_bits)
    steps = []
    for _ in range(num_steps):
        count = reader.read(count_bits)
        moves = []
        for _ in range(count):
            src = reader.read(vertex_bits)
            dst = reader.read(vertex_bits)
            token = reader.read(token_bits)
            moves.append(Move(src, dst, token))
        steps.append(moves)
    return Schedule.from_move_lists(steps)


def theorem2_bit_bound(problem: Problem) -> int:
    """Explicit bit budget for the encoding of any cleaned schedule.

    Worst case: ``m(n-1)`` timesteps of one move each, so one header
    counter plus ``m(n-1)`` per-step counters plus ``m(n-1)`` move
    records.  This constant-factor-tight version of the proof's
    ``O(nm(log n + log m))`` uses the same field widths as
    :func:`encode_schedule`, so the inequality it promises is exact.
    """
    vertex_bits, token_bits, count_bits = _field_widths(problem)
    worst_moves = problem.move_bound()
    bits_per_move = 2 * vertex_bits + token_bits
    return count_bits + worst_moves * (count_bits + bits_per_move)


def polynomial_verifier(problem: Problem, schedule: Schedule) -> bool:
    """Theorem 3's certificate verifier: is this a valid *and* successful
    schedule?  One pass over the moves — time polynomial in the
    ``O(nm(log n + log m))``-bit description."""
    try:
        return schedule.is_successful(problem)
    except ScheduleError:
        return False
