"""Immutable sets of content tokens, backed by integer bitmasks.

The paper models all content as unit-sized *tokens*; files are simply sets
of tokens.  Every hot path in the simulator and the exact solvers performs
set algebra on token sets (possession updates, "useful token" computations,
rarity counts), so the representation matters: a :class:`TokenSet` stores
its members as a single Python integer bitmask, where bit ``t`` is set iff
token ``t`` is a member.  Union, intersection, and difference are then
single machine-level big-int operations, and cardinality is a popcount.

Tokens are identified by small non-negative integers ``0..m-1`` where ``m``
is the number of tokens in the problem instance.  A :class:`TokenSet` does
not carry ``m`` itself; it is a bare set of naturals, and the enclosing
:class:`repro.core.problem.Problem` defines the universe.
"""

from __future__ import annotations

from typing import Final, Iterable, Iterator

__all__ = ["TokenSet", "EMPTY_TOKENSET"]


class TokenSet:
    """An immutable set of token identifiers backed by an int bitmask.

    Instances are hashable and support the standard set operators
    (``|``, ``&``, ``-``, ``^``), comparisons (``<=`` for subset), length,
    iteration (in increasing token order), and membership tests.

    >>> a = TokenSet.of(0, 2, 5)
    >>> b = TokenSet.of(2, 3)
    >>> sorted(a | b)
    [0, 2, 3, 5]
    >>> len(a - b)
    2
    >>> 2 in a
    True
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0) -> None:
        if mask < 0:
            raise ValueError(f"token bitmask must be non-negative, got {mask}")
        self.mask: Final = mask

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *tokens: int) -> "TokenSet":
        """Build a set from explicitly listed token ids."""
        return cls.from_iterable(tokens)

    @classmethod
    def from_iterable(cls, tokens: Iterable[int]) -> "TokenSet":
        """Build a set from any iterable of token ids."""
        mask = 0
        for t in tokens:
            if t < 0:
                raise ValueError(f"token ids must be non-negative, got {t}")
            mask |= 1 << t
        return cls(mask)

    @classmethod
    def full(cls, num_tokens: int) -> "TokenSet":
        """The complete universe ``{0, ..., num_tokens - 1}``."""
        if num_tokens < 0:
            raise ValueError(f"num_tokens must be non-negative, got {num_tokens}")
        return cls((1 << num_tokens) - 1)

    @classmethod
    def single(cls, token: int) -> "TokenSet":
        """The singleton set ``{token}``."""
        if token < 0:
            raise ValueError(f"token ids must be non-negative, got {token}")
        return cls(1 << token)

    @classmethod
    def token_range(cls, start: int, stop: int) -> "TokenSet":
        """The contiguous set ``{start, ..., stop - 1}``."""
        if not 0 <= start <= stop:
            raise ValueError(f"invalid token range [{start}, {stop})")
        return cls(((1 << (stop - start)) - 1) << start)

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def __or__(self, other: "TokenSet") -> "TokenSet":
        return TokenSet(self.mask | other.mask)

    def __and__(self, other: "TokenSet") -> "TokenSet":
        return TokenSet(self.mask & other.mask)

    def __sub__(self, other: "TokenSet") -> "TokenSet":
        return TokenSet(self.mask & ~other.mask)

    def __xor__(self, other: "TokenSet") -> "TokenSet":
        return TokenSet(self.mask ^ other.mask)

    def union(self, *others: "TokenSet") -> "TokenSet":
        mask = self.mask
        for o in others:
            mask |= o.mask
        return TokenSet(mask)

    def intersection(self, *others: "TokenSet") -> "TokenSet":
        mask = self.mask
        for o in others:
            mask &= o.mask
        return TokenSet(mask)

    def difference(self, *others: "TokenSet") -> "TokenSet":
        mask = self.mask
        for o in others:
            mask &= ~o.mask
        return TokenSet(mask)

    def add(self, token: int) -> "TokenSet":
        """Return a new set with ``token`` included."""
        return TokenSet(self.mask | (1 << token))

    def remove(self, token: int) -> "TokenSet":
        """Return a new set with ``token`` excluded (no error if absent)."""
        return TokenSet(self.mask & ~(1 << token))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def __contains__(self, token: int) -> bool:
        return token >= 0 and (self.mask >> token) & 1 == 1

    def __le__(self, other: "TokenSet") -> bool:
        """Subset-or-equal test."""
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "TokenSet") -> bool:
        return self.mask != other.mask and self <= other

    def __ge__(self, other: "TokenSet") -> bool:
        return other <= self

    def __gt__(self, other: "TokenSet") -> bool:
        return other < self

    def issubset(self, other: "TokenSet") -> bool:
        return self <= other

    def issuperset(self, other: "TokenSet") -> bool:
        return other <= self

    def isdisjoint(self, other: "TokenSet") -> bool:
        return self.mask & other.mask == 0

    def __bool__(self) -> bool:
        return self.mask != 0

    # ------------------------------------------------------------------
    # Size and iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def min(self) -> int:
        """Smallest member; raises :class:`ValueError` on the empty set."""
        if not self.mask:
            raise ValueError("min() of an empty TokenSet")
        low = self.mask & -self.mask
        return low.bit_length() - 1

    def max(self) -> int:
        """Largest member; raises :class:`ValueError` on the empty set."""
        if not self.mask:
            raise ValueError("max() of an empty TokenSet")
        return self.mask.bit_length() - 1

    def take(self, count: int) -> "TokenSet":
        """The ``count`` smallest members (all members if fewer).

        Runs in ``O(log w)`` popcounts of ``w``-bit prefixes instead of
        ``count`` sequential low-bit extractions: bisect on the prefix
        length for the shortest truncation of the mask that holds exactly
        ``count`` set bits.  For a mask of ``w`` machine words this is
        ``O(w log w)`` word operations total versus ``O(count * w)`` for
        the extraction loop — the win grows with both the universe size
        and ``count`` (see ``benchmarks/test_tokenset_take.py``).
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        mask = self.mask
        if count == 0 or not mask:
            return EMPTY_TOKENSET
        if mask.bit_count() <= count:
            return self
        # Smallest prefix length whose truncated popcount reaches `count`;
        # it always ends one past a set bit, so the popcount is exact.
        lo, hi = 0, mask.bit_length()
        while lo < hi:
            mid = (lo + hi) // 2
            if (mask & ((1 << mid) - 1)).bit_count() < count:
                lo = mid + 1
            else:
                hi = mid
        return TokenSet(mask & ((1 << lo) - 1))

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, TokenSet):
            return self.mask == other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"TokenSet.of({', '.join(map(str, self))})"


EMPTY_TOKENSET = TokenSet(0)
"""The canonical empty token set."""
