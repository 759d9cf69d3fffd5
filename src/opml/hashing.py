"""Hash scheme registry shared by every commitment in the system.

All Merkle nodes, state roots and selection lotteries hash through one
scheme so that a whole run is reproducible from (inputs, seed, scheme name).
Its name is recorded in serialized artifacts that depend on it (witness
bundles, transcripts). Domain separation:

  leaf digest      H(0x00 || 32-byte leaf)
  internal node    H(left || right)          (64-byte input, length-distinct)
  vm state root    H(0x02 || fields || memory root)
  graph state      H(0x03 || header || field entries)

There is no process-wide default: every component that hashes takes a
`HashScheme` (from `get_scheme`) from its caller or from an argument that
already carries one; the `opml` command takes it from OPML_HASH.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType

ZERO_LEAF = b"\x00" * 32

LEAF_PREFIX = b"\x00"
VM_STATE_PREFIX = b"\x02"
GRAPH_STATE_PREFIX = b"\x03"

#: Tree height above the leaf-hash level; 2**27 leaves of 32 bytes span
#: the full 32-bit address space.
TREE_DEPTH = 27


class HashScheme:
    """A named 256-bit hash plus the memoized all-zero subtree digests."""

    def __init__(self, name: str, fn):
        self.name = name
        self._fn = fn
        zeros = [self.leaf_hash(ZERO_LEAF)]
        for _ in range(TREE_DEPTH):
            zeros.append(self.node_hash(zeros[-1], zeros[-1]))
        #: zero_hashes[k] = digest of an all-zero subtree covering 2**k leaves.
        self.zero_hashes = tuple(zeros)

    def digest(self, data: bytes) -> bytes:
        return self._fn(data)

    def leaf_hash(self, leaf: bytes) -> bytes:
        if len(leaf) != 32:
            raise ValueError(f"leaf must be 32 bytes, got {len(leaf)}")
        return self._fn(LEAF_PREFIX + leaf)

    def node_hash(self, left: bytes, right: bytes) -> bytes:
        return self._fn(left + right)


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _blake2b_256(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=32).digest()


def _sha3_256(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


_SCHEMES = MappingProxyType({
    name: HashScheme(name, fn)
    for name, fn in (("sha256", _sha256), ("blake2b", _blake2b_256), ("sha3", _sha3_256))
})


def get_scheme(name: str) -> HashScheme:
    """The compiled-in scheme called `name`; the same object on every call."""
    if name not in _SCHEMES:
        raise KeyError(f"unknown hash scheme {name!r}; choices: {sorted(_SCHEMES)}")
    return _SCHEMES[name]


def scheme_names() -> list[str]:
    return sorted(_SCHEMES)
