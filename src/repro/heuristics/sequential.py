"""A sequential (in-order) variant of the Local heuristic.

Streaming clients fetch pieces in playback order rather than rarest
first.  This heuristic is the Local heuristic with the priority flipped:
receivers still subdivide requests across suppliers (no duplicate pulls
of one token per turn), but ask for the **lowest-indexed** missing
tokens first instead of the rarest.

It exists to quantify the classic swarm/streaming tradeoff against
:class:`repro.heuristics.LocalRarestHeuristic`: in-order fetching
minimizes playback startup delay (see
:mod:`repro.analysis.streaming`) while rarest-first minimizes the
overall makespan by keeping the token population diverse.

It is that class with one override, the request order: the request
lists Local builds are already token-ascending, so it leaves them as
they are — no shuffle, no rank, and no aggregate need vector.  The
supplier draws, the vector path and the send order are Local's.
"""

from __future__ import annotations

from typing import Callable, List

from repro.heuristics.local_rarest import LocalRarestHeuristic

__all__ = ["SequentialHeuristic"]


def _ascending(requests: List[int]) -> None:
    """Serve the requests as listed: lowest-indexed token first."""


class SequentialHeuristic(LocalRarestHeuristic):
    """In-order flooding with per-peer request subdivision."""

    name = "sequential"

    def _request_order(
        self,
        shuffle: Callable[[List[int]], None],
        ranks: Callable[[], List[int]],
    ) -> Callable[[List[int]], None]:
        return _ascending
