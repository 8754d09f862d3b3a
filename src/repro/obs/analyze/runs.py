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
from functools import cached_property
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.runs import JsonDict, TraceRun, split_runs

__all__ = [
    "DecodedInstance",
    "InstanceDecoder",
    "JsonDict",
    "TraceRun",
    "split_runs",
    "token_mask",
    "tokens_of",
]


def token_mask(tokens: Any, bits: List[int]) -> int:
    """The bitmask of a JSON token list, given ``bits[t] == 1 << t``.

    Raises ``ValueError`` unless ``tokens`` is a list of JSON integers in
    ``range(len(bits))``: a float, a string, ``true`` or a negative id is
    never read as some other token.
    """
    if type(tokens) is not list:
        raise ValueError(f"token list {tokens!r} is not a list")
    mask = 0
    try:
        for token in tokens:
            if type(token) is not int or token < 0:
                raise IndexError
            mask |= bits[token]
    except IndexError:
        raise ValueError(f"token list {tokens!r} holds a non-token") from None
    return mask


def tokens_of(mask: int) -> List[int]:
    """Sorted token ids of a bitmask (inverse of :func:`token_mask`)."""
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
    #: Arc id ``src * num_vertices + dst`` -> capacity, for every
    #: declared arc.
    capacities: Dict[int, int]
    #: Initial possession ``h(v)`` as one bitmask per vertex.
    have_masks: Tuple[int, ...]
    #: Demand ``w(v)`` as one bitmask per vertex.
    want_masks: Tuple[int, ...]

    @classmethod
    def from_payload(cls, data: Any) -> "DecodedInstance":
        """Decode a ``Problem.to_dict`` payload; raises ``ValueError``
        on anything structurally unusable, a non-integer count, arc field
        or token included."""
        if not isinstance(data, dict):
            raise ValueError("instance payload is not a JSON object")
        try:
            _check_integers(data)
            n, m = data["num_vertices"], data["num_tokens"]
            capacities: Dict[int, int] = {}
            for src, dst, cap in data["arcs"]:
                if not (0 <= src < n and 0 <= dst < n):
                    raise IndexError(f"arc ({src}, {dst}) out of range")
                capacities[src * n + dst] = cap
            bits = [1 << t for t in range(m)]
            have = [0] * n
            want = [0] * n
            for target, key in ((have, "have"), (want, "want")):
                # Object keys are strings in JSON, so vertex ids parse.
                for v, tokens in data.get(key, {}).items():
                    if not 0 <= int(v) < n:
                        raise IndexError(f"vertex {v} out of range")
                    target[int(v)] = token_mask(tokens, bits)
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

    @cached_property
    def in_arcs(self) -> List[List[Tuple[int, int]]]:
        """``(src, cap)`` per vertex, by ``src``, from the declared arcs."""
        n = self.num_vertices
        in_arcs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for arc, cap in sorted(self.capacities.items()):
            src, dst = divmod(arc, n)
            in_arcs[dst].append((src, cap))
        return in_arcs

    def deficits(self, have_masks: Sequence[int]) -> List[int]:
        """Per-vertex wanted-but-missing counts for a possession state."""
        return [
            (self.want_masks[v] & ~have_masks[v]).bit_count()
            for v in range(self.num_vertices)
        ]


def _check_integers(data: JsonDict) -> None:
    """Raise ``TypeError`` unless every number the decode reads is a JSON
    integer (``true`` is not one)."""
    arcs = data["arcs"]
    if type(arcs) is not list or not set(map(type, arcs)) <= {list}:
        raise TypeError("arcs is not a list of [src, dst, capacity] lists")
    numbers = [data["num_vertices"], data["num_tokens"], *chain.from_iterable(arcs)]
    for key in ("have", "want"):
        sets = data.get(key, {})
        if type(sets) is not dict or not set(map(type, sets.values())) <= {list}:
            raise TypeError(f"{key} is not an object of token lists")
        numbers += chain.from_iterable(sets.values())
    if not set(map(type, numbers)) <= {int}:
        raise TypeError("a count, arc field or token is not an integer")


class InstanceDecoder:
    """Decodes the ``run_start`` payloads of one analysis call.

    A sweep trace holds several runs over one instance, so a payload
    equal to the previous run's reuses that run's decode.  ``==`` cannot
    tell ``1``, ``1.0`` and ``true`` apart, so an equal payload still has
    its numbers type-checked, with the same error a fresh decode raises.
    It keeps only the last payload; make one per call.
    """

    def __init__(self) -> None:
        self._last: Optional[Tuple[JsonDict, DecodedInstance]] = None

    def __call__(self, payload: Any) -> DecodedInstance:
        last = self._last
        if last is not None and payload == last[0]:
            try:
                _check_integers(payload)
            except TypeError as exc:
                raise ValueError(f"instance payload malformed: {exc}") from None
            return last[1]
        instance = DecodedInstance.from_payload(payload)
        self._last = (payload, instance)
        return instance
