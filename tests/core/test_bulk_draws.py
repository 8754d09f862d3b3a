"""``random_doubles`` draws a ``random.Random``'s own ``random()`` stream.

Each property replays the same calls on a twin generator and compares
the values word for word (float equality on doubles built from the same
53 bits) and the generator state afterwards, including ``gauss()``'s
cached value and a state whose next word needs a fresh twist (position
624).
"""

from __future__ import annotations

import random
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bulk_draws import random_doubles

#: A prior call on the generator before the bulk draws.
PRIOR = st.sampled_from(["random", "gauss", "getrandbits", "shuffle"])


def _prime(rng: random.Random, calls: List[str]) -> None:
    for call in calls:
        if call == "random":
            rng.random()
        elif call == "gauss":
            rng.gauss(0.0, 1.0)
        elif call == "getrandbits":
            rng.getrandbits(37)
        else:
            rng.shuffle(list(range(9)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    prior=st.lists(PRIOR, max_size=6),
    counts=st.lists(st.integers(min_value=0, max_value=1500), min_size=1, max_size=4),
)
def test_bulk_values_and_state_match_python(
    seed: int, prior: List[str], counts: List[int]
) -> None:
    rng = random.Random(seed)
    twin = random.Random(seed)
    _prime(rng, prior)
    _prime(twin, prior)
    for count in counts:
        values = random_doubles(rng, count).tolist()
        assert values == [twin.random() for _ in range(count)]
    assert rng.getstate() == twin.getstate()
    # The state is live: the next calls agree too.
    assert rng.gauss(0.0, 1.0) == twin.gauss(0.0, 1.0)
    assert rng.getrandbits(64) == twin.getrandbits(64)


def test_gauss_cache_is_kept() -> None:
    rng = random.Random(3)
    rng.gauss(0.0, 1.0)  # caches the second normal of the pair
    twin = random.Random(3)
    twin.gauss(0.0, 1.0)
    random_doubles(rng, 5)
    for _ in range(5):
        twin.random()
    assert rng.getstate()[2] is not None
    assert rng.getstate() == twin.getstate()
    assert rng.gauss(0.0, 1.0) == twin.gauss(0.0, 1.0)


def test_state_at_position_624() -> None:
    rng = random.Random(11)
    for _ in range(312):  # two words each: the whole key is used up
        rng.random()
    assert rng.getstate()[1][-1] == 624
    twin = random.Random()
    twin.setstate(rng.getstate())
    assert random_doubles(rng, 700).tolist() == [twin.random() for _ in range(700)]
    assert rng.getstate() == twin.getstate()


def test_no_draw_leaves_state_unchanged() -> None:
    rng = random.Random(5)
    before = rng.getstate()
    assert random_doubles(rng, 0).size == 0
    assert rng.getstate() == before


class _Halving(random.Random):
    """A subclass with its own ``random``: half the base value."""

    def random(self) -> float:
        return super().random() / 2.0


def test_subclass_keeps_its_own_stream() -> None:
    rng = _Halving(9)
    twin = _Halving(9)
    values = random_doubles(rng, 50).tolist()
    assert values == [twin.random() for _ in range(50)]
    assert all(v < 0.5 for v in values)
    assert rng.getstate() == twin.getstate()
