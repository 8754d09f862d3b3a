"""Bulk ``random()`` draws that stay on a ``random.Random``'s own stream.

A plain ``random.Random`` is an MT19937 generator.  ``random()`` takes
two consecutive 32-bit words ``a``, ``b`` and returns ``((a >> 5) *
2**26 + (b >> 6)) / 2**53``; ``getrandbits(64 * count)`` takes the next
``2 * count`` words in the same order, the first in the least
significant 32 bits.  So when the number of draws is fixed before
drawing, one ``getrandbits`` call gives the words of ``count``
``random()`` calls, the doubles are built from them as one array
operation, and the generator is left where ``count`` calls of its own
``random()`` would leave it: the values and the later stream are
identical.

Only ``type(rng) is random.Random`` takes this path.  A subclass may
override ``random`` or ``getrandbits``, so it keeps its own methods,
called once per value.  Bulk drawing does not pay where each draw is
followed by Python work anyway (reading the values from a list costs
about what the calls do); it pays where the draws feed array
operations.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.bitplanes import np

__all__ = ["random_doubles"]

#: ``random()``'s scale: its 53 random bits over 2**53.
_SCALE = 2.0**-53


def random_doubles(rng: random.Random, count: int) -> Any:
    """The next ``count`` ``rng.random()`` values as a float64 array,
    with ``rng`` left in the state those calls would leave."""
    if type(rng) is not random.Random:
        rand = rng.random
        return np.fromiter((rand() for _ in range(count)), dtype=np.float64, count=count)
    # One uint64 per draw: word a in the low half, word b in the high half.
    pairs = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u8"
    )
    # In place: three arrays per block instead of seven.
    bits = pairs & 0xFFFFFFFF
    bits >>= 5
    bits <<= 26
    bits |= pairs >> 38
    values = bits.astype(np.float64)
    values *= _SCALE
    return values
