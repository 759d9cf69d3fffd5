"""Fixed-depth sparse Merkle tree over the VM's 32-bit address space.

The tree has exactly 27 levels above the leaf hashes; each leaf is a 32-byte
memory word group, so the leaves cover addresses 0 .. 2**32 - 1. Absent
leaves read as all zeros, and all-zero subtrees collapse to memoized digests,
so a tree touching a few pages stays small.

Updates are persistent: one writer, `_set`, copies each written path once
and shares the rest, so a snapshot is kept in O(1). `with_writes` and
`update_leaf` make an O(1) version that the first method to read or hash it
builds (`_top`). Digests are lazy: a copied node has none, and `root`,
`prove` and `subtree_root` hash a missing digest on first use and keep it in
the node. A whole image is loaded as one node, `region`'s `_Image`, which is
hashed from its bytes alone and read from them, and opened one path at a
time by the proofs and writes that descend into it, each half made once.
Only `_set` and an opening make nodes, and neither changes a node it has
returned, so no kept digest goes stale and trees may share an image. The
tree keeps no read cache.

`KeptProofs` keeps leaf proofs without a tree and moves its root by hashing
each written path once: the witness view of a window and the verifier's
chain of steps share it.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass

from .hashing import HashScheme, TREE_DEPTH, ZERO_LEAF
from .wire import Reader

NUM_LEAVES = 1 << TREE_DEPTH

#: Lowest level whose digests an `_Image` keeps when hashed, so a proof
#: into it hashes at most one 2**KEEP_LEVEL-leaf block per path.
KEEP_LEVEL = 5


class RangeError(ValueError):
    """Leaf index outside the fixed address space."""


class AlignmentError(ValueError):
    """Index or address not aligned to the requested subtree granularity."""


class _Node:
    """Internal node; children are _Node, _Image, bytes (a leaf) or None (zero).

    `digest` is None until `_child_digest` first needs it."""

    __slots__ = ("digest", "left", "right")

    def __init__(self, left, right):
        self.digest = None
        self.left = left
        self.right = right


def _child_digest(child, level: int, scheme: HashScheme) -> bytes:
    if child is None:
        return scheme.zero_hashes[level]
    if level == 0:
        return scheme.leaf_hash(child)
    if child.digest is None:
        child.digest = scheme.node_hash(_child_digest(child.left, level - 1, scheme),
                                        _child_digest(child.right, level - 1, scheme))
    return child.digest


def _set(node, level: int, items: list, stop: int):
    """Copy of the level-`level` `node` with its level-`stop` descendant over
    each `(index, subtree)` of `items` replaced by that subtree. `items` is
    sorted by index, each index once, and all of them lie under `node`.
    Each node on a written path is copied once, without a digest, and a
    copy left with no child is None."""
    if level == stop:
        return items[0][1]
    left = node.left if node is not None else None
    right = node.right if node is not None else None
    level -= 1
    last = items[-1][0]
    if not (last >> level) & 1:
        left = _set(left, level, items, stop)
    elif (items[0][0] >> level) & 1:
        right = _set(right, level, items, stop)
    else:
        cut = bisect_left(items, (last >> level << level,))  # the first index on the right
        left = _set(left, level, items[:cut], stop)
        right = _set(right, level, items[cut:], stop)
    if left is None and right is None:
        return None
    return _Node(left, right)


class MemTree:
    """Persistent sparse Merkle tree with a fixed depth of 27 levels: built,
    with its nodes under `_root`, or a pending version of `_base` with
    `_writes` still to apply."""

    __slots__ = ("scheme", "_root", "_base", "_writes")

    def __init__(self, scheme: HashScheme, _root=None):
        self.scheme = scheme
        self._root = _root
        self._base: MemTree | None = None
        self._writes: dict[int, bytes] | None = None

    def with_writes(self, writes: dict[int, bytes]) -> "MemTree":
        """A version that reads and hashes as self with each leaf of
        `writes` (leaf index -> 32-byte leaf) written; self reads the same
        as before. The version keeps `writes`, so the caller must not
        change it afterwards, and checks neither the indices nor the leaf
        lengths, which the caller vouches for. No writes give self."""
        if not writes:
            return self
        version = MemTree(self.scheme)
        version._base, version._writes = self, writes
        return version

    def _top(self):
        """The root node, after building this version if it is pending: the
        writes of its chain of pending versions, merged oldest first so each
        leaf is written once with its newest value, in one `_set` call."""
        if self._base is None:
            return self._root
        chain, built = [], self
        while built._base is not None:
            chain.append(built)
            built = built._base
        writes: dict[int, bytes] = {}
        for version in reversed(chain):
            writes.update(version._writes)
        items = [(index, None if leaf == ZERO_LEAF else leaf)
                 for index, leaf in sorted(writes.items())]
        node = _set(built._root, TREE_DEPTH, items, 0)
        self._root, self._base, self._writes = node, None, None
        return node

    def root(self) -> bytes:
        return _child_digest(self._top(), TREE_DEPTH, self.scheme)

    def get_leaf(self, index: int) -> bytes:
        out: dict[int, bytes] = {}
        self.leaf_block(index, 0, out)
        return out[32 * index]

    def leaf_block(self, index: int, level: int, out: dict[int, bytes]) -> None:
        """Put into `out` each leaf it lacks of the aligned block of
        2**level leaves that holds `index`, keyed by base address (32 *
        leaf index), an absent leaf as ZERO_LEAF, in one descent from the
        root, slicing an image's bytes; `get_leaf` is its one-leaf case. An
        entry `out` already holds is kept. Hashes nothing and opens no image."""
        if not 0 <= index < NUM_LEAVES:
            raise RangeError(f"leaf index {index} out of range")
        node, depth = self._top(), TREE_DEPTH
        while depth > level and node.__class__ is _Node:
            depth -= 1
            node = node.right if (index >> depth) & 1 else node.left
        first = index >> level << level
        for offset, leaf in enumerate(_block(node, level, first & ((1 << depth) - 1))):
            out.setdefault(32 * (first + offset), leaf)

    def update_leaf(self, index: int, leaf: bytes) -> "MemTree":
        """The `with_writes` version with `leaf` written at `index`, after
        checking both; self reads the same as before."""
        self._check_aligned(index, 0)
        if len(leaf) != 32:
            raise ValueError(f"leaf must be 32 bytes, got {len(leaf)}")
        return self.with_writes({index: leaf})

    def splice(self, index: int, level: int, subtree) -> "MemTree":
        """Return a new tree with the region of 2**level leaves at `index`
        replaced by `subtree` (from `region`); self is unchanged."""
        self._check_aligned(index, level)
        return MemTree(self.scheme, _set(self._top(), TREE_DEPTH, [(index, subtree)], level))

    def prove(self, index: int, subtree_level: int = 0) -> "MerkleProof":
        """Membership proof for the subtree of 2**subtree_level leaves at `index`."""
        self._check_aligned(index, subtree_level)
        siblings: list[bytes] = []
        node = self._top()
        for level in range(TREE_DEPTH - 1, subtree_level - 1, -1):
            left = node.left if node is not None else None
            right = node.right if node is not None else None
            if (index >> level) & 1:
                siblings.append(_child_digest(left, level, self.scheme))
                node = right
            else:
                siblings.append(_child_digest(right, level, self.scheme))
                node = left
        siblings.reverse()
        return MerkleProof(leaf_index=index, subtree_level=subtree_level, siblings=siblings)

    def subtree_root(self, region_base: int, region_level: int) -> bytes:
        """Digest of the internal node covering 32 * 2**region_level bytes at region_base."""
        if region_base % 32 != 0:
            raise AlignmentError(f"region base {region_base:#x} not leaf aligned")
        index = region_base // 32
        self._check_aligned(index, region_level)
        node = self._top()
        for level in range(TREE_DEPTH - 1, region_level - 1, -1):
            if node is None:
                break
            node = node.right if (index >> level) & 1 else node.left
        return _child_digest(node, region_level, self.scheme)

    @staticmethod
    def _check_aligned(index: int, subtree_level: int) -> None:
        if not 0 <= subtree_level <= TREE_DEPTH:
            raise RangeError(f"subtree level {subtree_level} out of range")
        if not 0 <= index < NUM_LEAVES:
            raise RangeError(f"leaf index {index} out of range")
        if index & ((1 << subtree_level) - 1):
            raise AlignmentError(
                f"index {index} not aligned to subtree level {subtree_level}"
            )


@dataclass(frozen=True)
class MerkleProof:
    leaf_index: int
    subtree_level: int
    siblings: list[bytes]

    def to_bytes(self) -> bytes:
        """u32le leaf_index, u8 subtree_level, u8 sibling_count, siblings."""
        head = struct.pack("<IBB", self.leaf_index, self.subtree_level, len(self.siblings))
        return head + b"".join(self.siblings)

    @classmethod
    def read(cls, r: Reader) -> "MerkleProof":
        index, level, count = r.u32("proof header"), r.u8("proof header"), r.u8("proof header")
        return cls(index, level, [r.take(32, "proof siblings") for _ in range(count)])

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerkleProof":
        return Reader(data).whole(cls.read, "proof")


def verify(root: bytes, claimed: bytes, proof: MerkleProof, scheme: HashScheme) -> bool:
    """Check that `claimed` is the subtree digest at the proof's position,
    from the proof alone: no tree or zero-hash table is consulted."""
    if len(proof.siblings) != TREE_DEPTH - proof.subtree_level:
        return False
    if not 0 <= proof.leaf_index < NUM_LEAVES:
        return False
    if proof.leaf_index & ((1 << proof.subtree_level) - 1):
        return False
    if any(len(sibling) != 32 for sibling in proof.siblings):
        return False
    return recompute_root(claimed, proof, scheme) == root


def recompute_root(new_leaf_digest: bytes, proof: MerkleProof, scheme: HashScheme) -> bytes:
    """Root that results from replacing the proven position with a new digest."""
    acc = new_leaf_digest
    index = proof.leaf_index >> proof.subtree_level
    for sibling in proof.siblings:
        if index & 1:
            acc = scheme.node_hash(sibling, acc)
        else:
            acc = scheme.node_hash(acc, sibling)
        index >>= 1
    return acc


class KeptProofs:
    """Leaf proofs kept by leaf index under a memory root that moves only by
    `write`, with no tree: each keeps its leaf as it is now and its level-0
    proof under `root` or an earlier root of the chain. `current` makes a
    kept proof one under `root` by replacing each sibling on a path written
    since with the digest `write` recorded for it, and caches it until the
    next write. The recorded digests are one per node ever written, newest
    only, so every recorded digest is that node's digest under `root`."""

    __slots__ = ("root", "scheme", "_kept", "_written", "_current")

    def __init__(self, root: bytes, scheme: HashScheme):
        self.root, self.scheme = root, scheme
        self._kept: dict[int, tuple[bytes, MerkleProof]] = {}
        self._written: list[dict[int, bytes]] = [{} for _ in range(TREE_DEPTH)]  # by level
        self._current: dict[int, tuple[bytes, MerkleProof]] = {}  # under `root`

    def keep(self, leaf: bytes, proof: MerkleProof) -> tuple[bytes, MerkleProof]:
        """Keep `leaf` with its level-0 `proof` under `root`, or under an
        earlier root of the chain, as a start tree's proof is; returns
        them made current."""
        self._kept[proof.leaf_index] = (leaf, proof)
        self._current.pop(proof.leaf_index, None)
        return self.current(proof.leaf_index)

    def current(self, index: int) -> tuple[bytes, MerkleProof] | None:
        """The kept leaf at `index` and its proof under `root`; None when
        no proof of it is kept."""
        opened = self._current.get(index)
        if opened is None:
            opened = self._kept.get(index)
            if opened is not None and self._written[0]:
                leaf, proof = opened
                siblings = [written.get((index >> level) ^ 1, sibling) for level, (written, sibling)
                            in enumerate(zip(self._written, proof.siblings))]
                opened = self._current[index] = (leaf, MerkleProof(index, 0, siblings))
        return opened

    def holds(self, leaf: bytes, proof: MerkleProof) -> bool:
        """`verify` of a 32-byte `leaf` under `root` by its level-0 `proof`:
        true with no hash when the leaf and the siblings equal the kept
        ones, else checked alone, and kept, current, once it holds."""
        kept = self.current(proof.leaf_index)
        if kept is not None and kept[0] == leaf and kept[1].siblings == proof.siblings:
            return True
        if not verify(self.root, self.scheme.leaf_hash(leaf), proof, self.scheme):
            return False
        self._kept[proof.leaf_index] = self._current[proof.leaf_index] = (leaf, proof)
        return True

    def write(self, index: int, leaf: bytes) -> bytes:
        """Write `leaf` at `index`, whose proof is kept: hash its path once,
        from that proof, record each digest on it, and return the new root."""
        _old, proof = self.current(index)
        node_hash, written = self.scheme.node_hash, self._written
        digest = self.scheme.leaf_hash(leaf)
        for level, sibling in enumerate(proof.siblings):
            written[level][index >> level] = digest
            if (index >> level) & 1:
                digest = node_hash(sibling, digest)
            else:
                digest = node_hash(digest, sibling)
        self.root = digest
        self._kept[index] = (leaf, proof)
        self._current = {index: (leaf, proof)}
        return digest


def region(data: bytes, level: int, scheme: HashScheme):
    """Subtree of a 2**level-leaf region holding `data` left-aligned and zero
    padded, for `MemTree.splice`: None when it is all zero, the leaf at
    level 0, else an `_Image`, which hashes nothing yet. Raises RangeError
    when `data` does not fit the region."""
    if len(data) > 32 << level:
        raise RangeError(f"{len(data)} bytes exceed region of level {level}")
    if data.count(0) == len(data):
        return None
    return _Image(data, level, scheme) if level else data.ljust(32, b"\x00")


def region_root(data: bytes, region_level: int, scheme: HashScheme) -> bytes:
    """Digest of a 2**region_level-leaf region holding `data` left-aligned,
    zero padded: that region's `subtree_root` after writing `data` from its
    base into an empty tree, hashed with no node made."""
    return _child_digest(region(data, region_level, scheme), region_level, scheme)


def _pairs(items: list, join) -> list:
    """Subtrees (None if all zero) paired into the level above by `join`."""
    if len(items) % 2:
        items.append(None)
    return [None if left is None and right is None else join(left, right)
            for left, right in zip(items[::2], items[1::2])]


def _block(node, level: int, first: int = 0) -> list[bytes]:
    """The 2**level leaves under `node` from its leaf `first`, absent ones
    ZERO_LEAF; `first` is nonzero only for an image or None."""
    if node.__class__ is _Node:
        return _block(node.left, level - 1) + _block(node.right, level - 1)
    if node.__class__ is _Image:
        return node.leaves(first, 1 << level)
    return [ZERO_LEAF] * (1 << level) if node is None else [node]


class _Image:
    """A nonzero region of 2**level leaves, level >= 1, holding `data` from
    its leaf `first`, as one node. A region's `digest` is hashed from
    `data` a 2**KEEP_LEVEL-leaf block at a time, then level by level, with
    the calls `_child_digest` makes over its nodes, keeping the digests
    from KEEP_LEVEL up in one table indexed from leaf 0. The first read of
    `left` or `right` makes both halves once, as `update_leaf` writes
    would: above KEEP_LEVEL an `_Image` over the same `data` with its
    digest from the table, below it `_Node`s, at KEEP_LEVEL with the kept
    digest preset. An image is hashed from `data` before it is first
    opened, so every tree and version sharing it sees one tree."""

    __slots__ = ("data", "level", "scheme", "first", "_digest", "_kept", "_children")

    def __init__(self, data: bytes, level: int, scheme: HashScheme, first=0, digest=None, kept=None):
        self.data, self.level, self.scheme, self.first = data, level, scheme, first
        self._digest, self._kept, self._children = digest, kept, None

    @property
    def digest(self) -> bytes:
        if self._digest is None:
            scheme, low, blocks, self._kept = self.scheme, min(KEEP_LEVEL, self.level), [], []
            for first in range(0, -(-len(self.data) // 32), 1 << low):
                leaves = self.leaves(first, 1 << low)
                digests = [None if leaf == ZERO_LEAF else scheme.leaf_hash(leaf) for leaf in leaves]
                blocks += self._hash_up(digests, 0, low)
            self._digest = self._hash_up(blocks, low, self.level)[0]
        return self._digest

    def _hash_up(self, digests: list, low: int, top: int) -> list:
        """`digests` at level `low`, None if all zero, paired up to `top`; kept from KEEP_LEVEL."""
        node_hash = self.scheme.node_hash
        for level in range(low, top):
            if level >= KEEP_LEVEL:
                self._kept.append(digests)
            zero = self.scheme.zero_hashes[level]
            digests = _pairs(digests, lambda left, right: node_hash(left or zero, right or zero))
        return digests

    @property
    def left(self):
        return (self._children or self._open())[0]

    @property
    def right(self):
        return (self._children or self._open())[1]

    def _open(self) -> tuple:
        self.digest  # hashed, keeping its table, before it is first opened
        level, halves = self.level - 1, [None, None]
        if level <= KEEP_LEVEL:
            halves = [None if leaf == ZERO_LEAF else leaf for leaf in self.leaves(0, 1 << self.level)]
            for _ in range(level):
                halves = _pairs(halves, _Node)
        if level >= KEEP_LEVEL:
            index = self.first >> level
            for side, digest in enumerate(self._kept[level - KEEP_LEVEL][index : index + 2]):
                if level > KEEP_LEVEL and digest is not None:
                    halves[side] = _Image(self.data, level, self.scheme, self.first + (side << level),
                                          digest, self._kept)
                elif halves[side] is not None:
                    halves[side].digest = digest
        self._children = tuple(halves)
        return self._children

    def leaves(self, first: int, count: int) -> list[bytes]:
        """The `count` leaves from the image's leaf `first`, ZERO_LEAF past its data."""
        chunk = self.data[32 * (self.first + first) : 32 * (self.first + first + count)]
        leaves = [chunk[i : i + 32] for i in range(0, len(chunk), 32)]
        if len(chunk) % 32:
            leaves[-1] = leaves[-1].ljust(32, b"\x00")
        return leaves + [ZERO_LEAF] * (count - len(leaves))


def root_from_regions(regions: list[tuple[int, int, bytes]], scheme: HashScheme) -> bytes:
    """Full-tree root given (leaf_index, level, digest) subtree anchors, rest
    zero. The anchors must be aligned and disjoint, as the entrance check's
    two are; they are not checked. Hashed bottom-up over their paths alone,
    one `node_hash` per distinct ancestor, with no node made."""
    digests: dict[int, bytes] = {}
    for level, zero in enumerate(scheme.zero_hashes):
        digests.update((index >> level, digest) for index, at, digest in regions if at == level)
        if level < TREE_DEPTH:
            digests = {i: scheme.node_hash(digests.get(2 * i, zero), digests.get(2 * i + 1, zero))
                       for i in {j >> 1 for j in digests}}
    return digests.get(0, scheme.zero_hashes[TREE_DEPTH])
