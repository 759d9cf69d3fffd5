"""The one draw rule of `opml.rng`."""

import random

import pytest

from opml import rng

#: Bounds around powers of two, where the rule's bit count changes, and 1,
#: which draws one bit until it is 0.
BOUNDS = [1, 2, 3, 5, 7, 8, 9, 10, 31, 32, 33, 255, 256, 257, 1000, 2**31 - 1, 2**32, 2**32 + 1,
          2**64 + 3]


def test_below_equals_randrange():
    """`below(r, n)` gives what `r.randrange(n)` gives on the running
    CPython, and leaves the stream where it does."""
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            for n in BOUNDS:
                assert rng.below(ours, n) == theirs.randrange(n)
                assert 1 + rng.below(ours, n) == theirs.randrange(1, n + 1)
                assert ours.getrandbits(7) == theirs.getrandbits(7)
        options = "abcdefghij"
        assert options[rng.below(ours, len(options))] == theirs.choice(options)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_below_rejects_an_empty_range(n):
    r = random.Random(1)
    with pytest.raises(ValueError, match="empty range"):
        rng.below(r, n)
    assert r.getstate() == random.Random(1).getstate()
