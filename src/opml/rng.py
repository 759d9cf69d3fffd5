"""Splittable deterministic randomness.

Every run derives all of its randomness from one 64-bit seed. A component
asks for a named stream; the stream's state is seeded by
sha256(seed_le64 || label), so adding a new consumer never perturbs the
draws of existing ones. The hash here is fixed (sha256) on purpose:
scenario reproducibility must not depend on the commitment-scheme choice.

Every bounded draw goes through `below`, which owns CPython's rule for
`randrange` and `choice`, so each draw consumes the stream through
`getrandbits` alone, whatever the Python version.
"""

from __future__ import annotations

import hashlib
import random
import struct


def stream(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF) + label.encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def below(r: random.Random, n: int) -> int:
    """A draw from range(n): `getrandbits(n.bit_length())`, drawn again
    while it is n or more, CPython's `_randbelow` rule, so `below(r, n)`
    equals `r.randrange(n)` and consumes the same bits. Raises ValueError
    for n < 1, as `randrange` does."""
    if n < 1:
        raise ValueError(f"empty range for below({n})")
    k = n.bit_length()
    value = r.getrandbits(k)
    while value >= n:
        value = r.getrandbits(k)
    return value
