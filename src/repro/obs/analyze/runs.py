"""Shared trace-analytics plumbing: run grouping and instance decoding.

Every analyzer in this package starts the same way: take the flat event
stream of one trace file (:func:`repro.obs.read_events`) and regroup it
into per-run event sequences with :func:`repro.obs.runs.split_runs`,
then — for the replay — decode the ``instance`` payload that
``run_start`` events carry (the ``Problem.to_dict`` form) into the
integer-mask representation the analyzers compute with.

The decoder is deliberately *independent* of :mod:`repro.core` and
:mod:`repro.sim`: the replay validator re-implements the paper's §2
schedule-validity semantics from the raw JSON so that a kernel bug
cannot hide by also corrupting the checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.obs.runs import JsonDict, TraceRun, split_runs

__all__ = [
    "DecodedInstance",
    "JsonDict",
    "TraceRun",
    "mask_of",
    "split_runs",
    "tokens_of",
]


def mask_of(tokens: Iterable[int]) -> int:
    """Token ids to the bitmask the analyzers compute with."""
    mask = 0
    for t in tokens:
        mask |= 1 << int(t)
    return mask


def tokens_of(mask: int) -> List[int]:
    """Sorted token ids of a bitmask (inverse of :func:`mask_of`)."""
    out: List[int] = []
    t = 0
    while mask:
        if mask & 1:
            out.append(t)
        mask >>= 1
        t += 1
    return out


@dataclass(frozen=True)
class DecodedInstance:
    """The ``run_start`` instance payload in analyzer-native form."""

    name: str
    num_vertices: int
    num_tokens: int
    #: ``(src, dst) -> capacity`` for every declared arc.
    capacities: Dict[Tuple[int, int], int]
    #: Initial possession ``h(v)`` as one bitmask per vertex.
    have_masks: Tuple[int, ...]
    #: Demand ``w(v)`` as one bitmask per vertex.
    want_masks: Tuple[int, ...]

    @classmethod
    def from_payload(cls, data: Any) -> "DecodedInstance":
        """Decode a ``Problem.to_dict`` payload; raises ``ValueError``
        on anything structurally unusable."""
        if not isinstance(data, dict):
            raise ValueError("instance payload is not a JSON object")
        try:
            n = int(data["num_vertices"])
            m = int(data["num_tokens"])
            capacities: Dict[Tuple[int, int], int] = {}
            for arc in data["arcs"]:
                src, dst, cap = (int(x) for x in arc)
                if not (0 <= src < n and 0 <= dst < n):
                    raise IndexError(f"arc ({src}, {dst}) out of range")
                capacities[(src, dst)] = cap
            have = [0] * n
            want = [0] * n
            for target, key in ((have, "have"), (want, "want")):
                for v, tokens in data.get(key, {}).items():
                    if not 0 <= int(v) < n:
                        raise IndexError(f"vertex {v} out of range")
                    target[int(v)] = mask_of(tokens)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"instance payload malformed: {exc}") from None
        return cls(
            name=str(data.get("name", "")),
            num_vertices=n,
            num_tokens=m,
            capacities=capacities,
            have_masks=tuple(have),
            want_masks=tuple(want),
        )

    def deficits(self, have_masks: Sequence[int]) -> List[int]:
        """Per-vertex wanted-but-missing counts for a possession state."""
        return [
            (self.want_masks[v] & ~have_masks[v]).bit_count()
            for v in range(self.num_vertices)
        ]
