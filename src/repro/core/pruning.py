"""Schedule pruning — the bandwidth-reducing post-pass of Section 5.1.

    "Pruning first removes all moves that deliver a token repeatedly to
    the same vertex, and then works back from the last move to the first,
    removing moves that deliver tokens which were never used by the
    destination vertex."

Pass 1 (*dedup*) keeps only the earliest delivery of each token to each
vertex and drops deliveries of tokens the vertex started with.  Within
one timestep, parallel deliveries of the same token to the same vertex
over different arcs are reduced to one: the lowest source id wins.  This
never changes any possession set, so validity and success are preserved
exactly.

Pass 2 (*backward sweep*) walks timesteps from last to first and removes a
delivery of token ``t`` to vertex ``v`` when ``v`` neither wants ``t`` nor
forwards ``t`` in any *retained* later timestep.  Because removability at
timestep ``i`` depends only on retained moves at timesteps ``> i`` (a
vertex can only send what it possessed at the start of the step), a single
backward pass removes entire useless relay chains.

Both passes are array passes over the :mod:`repro.core.bitplanes` layout:
each step is read as ``(src, dst, masks)`` arrays
(:meth:`repro.core.schedule.Timestep.send_arrays`), so a vector-path
schedule is pruned without building a ``TokenSet`` per send.  Only the
retained sends become dicts, inserted in ``(src, dst)`` order.  The
per-send scalar passes these replace are kept in ``tests/core/
test_pruning.py`` as the oracle the array passes must match, order of
every step's dict included.

Pruning never changes the makespan: timesteps are kept in place, possibly
empty.  Use :func:`drop_empty_tail` afterwards if trailing empty steps
should be trimmed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.core.bitplanes import masks_to_matrix, matrix_to_masks, np
from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import TokenSet

__all__ = ["PruneStats", "prune_schedule", "dedup_schedule", "drop_empty_tail"]

#: One step's sends as ``(src, dst, masks)`` arrays, rows in
#: ``(src, dst)`` order, every mask row nonzero.
_Sends = Tuple[Any, Any, Any]


@dataclass(frozen=True)
class PruneStats:
    """How much each pruning pass removed."""

    original_bandwidth: int
    after_dedup: int
    after_backward: int

    @property
    def removed_by_dedup(self) -> int:
        return self.original_bandwidth - self.after_dedup

    @property
    def removed_by_backward(self) -> int:
        return self.after_dedup - self.after_backward

    @property
    def total_removed(self) -> int:
        return self.original_bandwidth - self.after_backward


def _nonzero_rows(src: Any, dst: Any, masks: Any) -> _Sends:
    keep = masks.any(axis=1)
    return src[keep], dst[keep], masks[keep]


def _group_starts(keys: Any) -> Any:
    """Indices where each run of equal values in sorted ``keys`` begins."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def _dedup_arrays(problem: Problem, schedule: Schedule) -> List[_Sends]:
    """Keep only the first delivery of each token to each vertex.

    Per step, the sends are ordered by ``(dst, src)``; within each
    destination group an exclusive prefix-OR gives the tokens a lower
    source already delivers this step, and ``delivered`` the tokens the
    destination held before it.  What is left is kept, and each group's
    tokens are folded into ``delivered``.
    """
    num_tokens = problem.num_tokens
    delivered = masks_to_matrix([tokens.mask for tokens in problem.have], num_tokens)
    steps: List[_Sends] = []
    for step in schedule.steps:
        src, dst, masks = step.send_arrays(num_tokens)
        if not len(src):
            steps.append((src, dst, masks))
            continue
        order = np.lexsort((src, dst))
        src, dst, masks = src[order], dst[order], masks[order]
        starts = _group_starts(dst)
        rank = np.arange(len(dst)) - np.repeat(starts, np.diff(np.r_[starts, len(dst)]))
        # Inclusive prefix-OR within each destination group, by doubling:
        # after the round with stride d, row i holds the OR of rows
        # max(start, i - 2d + 1) .. i of its group.
        prefix = masks.copy()
        stride, top = 1, int(rank.max())
        while stride <= top:
            rows = np.flatnonzero(rank >= stride)
            prefix[rows] |= prefix[rows - stride]  # reads before it writes
            stride *= 2
        earlier = np.zeros_like(masks)
        later = np.flatnonzero(rank)
        earlier[later] = prefix[later - 1]
        useful = masks & ~earlier & ~delivered[dst]
        ends = np.r_[starts[1:], len(dst)] - 1
        delivered[dst[ends]] |= prefix[ends]
        src, dst, useful = _nonzero_rows(src, dst, useful)
        order = np.lexsort((dst, src))
        steps.append((src[order], dst[order], useful[order]))
    return steps


def _backward_arrays(problem: Problem, steps: List[_Sends]) -> List[_Sends]:
    """Remove deliveries whose token the destination never uses.

    ``future`` row ``v`` accumulates the tokens vertex ``v`` sends in
    retained timesteps strictly after the one being examined; a step's
    retained sends fold into it with one OR per source group.
    """
    want = masks_to_matrix([tokens.mask for tokens in problem.want], problem.num_tokens)
    future = np.zeros_like(want)
    pruned: List[_Sends] = []
    for src, dst, masks in reversed(steps):
        src, dst, used = _nonzero_rows(src, dst, masks & (want[dst] | future[dst]))
        if len(src):
            starts = _group_starts(src)
            future[src[starts]] |= np.bitwise_or.reduceat(used, starts, axis=0)
        pruned.append((src, dst, used))
    pruned.reverse()
    return pruned


def _moves(steps: List[_Sends]) -> int:
    return sum(int(np.bitwise_count(masks).sum()) for _src, _dst, masks in steps)


def _schedule(steps: List[_Sends]) -> Schedule:
    timesteps = []
    for src, dst, masks in steps:
        sends = {
            key: TokenSet(mask)
            for key, mask in zip(
                zip(src.tolist(), dst.tolist()), matrix_to_masks(masks)
            )
        }
        timesteps.append(Timestep.from_validated(sends))
    return Schedule(timesteps)


def dedup_schedule(problem: Problem, schedule: Schedule) -> Schedule:
    """The schedule with only the dedup pass applied (steps kept in place).

    Every step's sends are inserted in ``(src, dst)`` order.
    """
    return _schedule(_dedup_arrays(problem, schedule))


def prune_schedule(problem: Problem, schedule: Schedule) -> Tuple[Schedule, PruneStats]:
    """Apply both pruning passes; return the pruned schedule and stats.

    The input schedule must be valid for ``problem``; the output is valid,
    has the same makespan, never more bandwidth, and is successful iff the
    input was.
    """
    deduped = _dedup_arrays(problem, schedule)
    swept = _backward_arrays(problem, deduped)
    stats = PruneStats(
        original_bandwidth=schedule.bandwidth,
        after_dedup=_moves(deduped),
        after_backward=_moves(swept),
    )
    return _schedule(swept), stats


def drop_empty_tail(schedule: Schedule) -> Schedule:
    """Trim trailing timesteps that carry no moves.

    Pruning keeps empty steps in place so the makespan is comparable with
    the unpruned run; call this when the shortest equivalent schedule is
    wanted instead.
    """
    steps = list(schedule.steps)
    while steps and not steps[-1]:
        steps.pop()
    return Schedule(steps)
