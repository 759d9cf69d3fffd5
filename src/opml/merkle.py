"""Fixed-depth sparse Merkle tree over the VM's 32-bit address space.

The tree has exactly 27 levels above the leaf hashes; each leaf is a 32-byte
memory word group, so the leaves cover addresses 0 .. 2**32 - 1. Absent
leaves read as all zeros, and all-zero subtrees collapse to memoized digests,
so a tree touching a few pages stays small.

Updates are persistent: `update_leaf` copies the 27-node path and shares
everything else, so any snapshot can be kept in O(1) while a successor
version evolves. Digests are lazy: a copied node is built without one, and
`root`, `prove` and `subtree_root` hash a missing digest on first use and
keep it in the node. A VM run that writes on every step but opens a
handful of roots hashes only the paths those roots cover. A whole image is
loaded bottom-up: `build_region` builds a region's subtree, unhashed like
any path copy, and `MemTree.splice` hangs it in at its aligned place;
`region_root` hashes one on its own.

The tree keeps no read cache: `get_leaf` always walks from the root, so
every version reads alike. A VM run keeps its own cache of the leaves it
has touched (`fpvm._TreeMemory`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .hashing import HashScheme, TREE_DEPTH, ZERO_LEAF
from .wire import Reader

NUM_LEAVES = 1 << TREE_DEPTH


class RangeError(ValueError):
    """Leaf index outside the fixed address space."""


class AlignmentError(ValueError):
    """Index or address not aligned to the requested subtree granularity."""


class _Node:
    """Internal node; children are _Node, bytes (a leaf value) or None (zero).

    `digest` is None until `_child_digest` first needs it and then memoised:
    a node's children never change, so a stored digest never goes stale.
    An anchor of `root_from_regions` is a _Node with only a preset digest,
    at any level, the leaf level included."""

    __slots__ = ("digest", "left", "right")

    def __init__(self, left, right):
        self.digest = None
        self.left = left
        self.right = right


def _child_digest(child, level: int, scheme: HashScheme) -> bytes:
    if child is None:
        return scheme.zero_hashes[level]
    if level == 0:
        return child.digest if child.__class__ is _Node else scheme.leaf_hash(child)
    if child.digest is None:
        child.digest = scheme.node_hash(_child_digest(child.left, level - 1, scheme),
                                        _child_digest(child.right, level - 1, scheme))
    return child.digest


def _set(node, level: int, index: int, subtree, stop: int):
    """Copy of the level-`level` `node` with its level-`stop` descendant over
    `index` replaced by `subtree`. The copied path nodes get no digest."""
    if level == stop:
        return subtree
    left = node.left if node is not None else None
    right = node.right if node is not None else None
    if (index >> (level - 1)) & 1:
        right = _set(right, level - 1, index, subtree, stop)
    else:
        left = _set(left, level - 1, index, subtree, stop)
    if left is None and right is None:
        return None
    return _Node(left, right)


class MemTree:
    """Persistent sparse Merkle tree with a fixed depth of 27 levels."""

    __slots__ = ("scheme", "_root")

    def __init__(self, scheme: HashScheme, _root=None):
        self.scheme = scheme
        self._root = _root

    def root(self) -> bytes:
        return _child_digest(self._root, TREE_DEPTH, self.scheme)

    def get_leaf(self, index: int) -> bytes:
        if not 0 <= index < NUM_LEAVES:
            raise RangeError(f"leaf index {index} out of range")
        node = self._root
        for level in range(TREE_DEPTH - 1, -1, -1):
            if node is None:
                break
            node = node.right if (index >> level) & 1 else node.left
        return ZERO_LEAF if node is None else node

    def update_leaf(self, index: int, leaf: bytes) -> "MemTree":
        """Return a new tree with `leaf` written at `index`; self reads the
        same as before."""
        if not 0 <= index < NUM_LEAVES:
            raise RangeError(f"leaf index {index} out of range")
        if len(leaf) != 32:
            raise ValueError(f"leaf must be 32 bytes, got {len(leaf)}")
        new_root = _set(self._root, TREE_DEPTH, index, None if leaf == ZERO_LEAF else leaf, 0)
        return MemTree(self.scheme, new_root)

    def splice(self, index: int, level: int, subtree) -> "MemTree":
        """Return a new tree with the region of 2**level leaves at `index`
        replaced by `subtree` (from `build_region`); self is unchanged."""
        self._check_aligned(index, level)
        return MemTree(self.scheme, _set(self._root, TREE_DEPTH, index, subtree, level))

    def prove(self, index: int, subtree_level: int = 0) -> "MerkleProof":
        """Membership proof for the subtree of 2**subtree_level leaves at `index`."""
        self._check_aligned(index, subtree_level)
        siblings: list[bytes] = []
        node = self._root
        # Walk down from the top, recording the sibling at each branch.
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
        node = self._root
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
        r = Reader(data)
        proof = cls.read(r)
        r.end("proof")
        return proof


def verify(root: bytes, claimed: bytes, proof: MerkleProof, scheme: HashScheme) -> bool:
    """Check that `claimed` is the subtree digest at the proof's position.

    Pure function of its arguments: the proof carries every sibling, so no
    tree or zero-hash table is consulted.
    """
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


def build_region(data: bytes, region_level: int):
    """Subtree of a 2**region_level-leaf region holding `data` left-aligned
    and zero padded, built bottom-up and, like a path `update_leaf` copies,
    not yet hashed.

    All-zero subtrees stay None, as in a tree built by `update_leaf`.
    Raises RangeError before building anything when `data` does not fit
    the region.
    """
    if len(data) > 32 << region_level:
        raise RangeError(f"{len(data)} bytes exceed region of level {region_level}")
    nodes = []
    for i in range(0, len(data), 32):
        leaf = data[i : i + 32].ljust(32, b"\x00")
        nodes.append(None if leaf == ZERO_LEAF else leaf)
    if not nodes:
        return None
    for level in range(region_level):
        if len(nodes) % 2:
            nodes.append(None)
        nodes = [None if left is None and right is None else _Node(left, right)
                 for left, right in zip(nodes[::2], nodes[1::2])]
    return nodes[0]


def region_root(data: bytes, region_level: int, scheme: HashScheme) -> bytes:
    """Digest of a 2**region_level-leaf region holding `data` left-aligned, zero padded.

    Equivalent to writing `data` from the region base into an empty tree and
    asking for that region's subtree root.
    """
    return _child_digest(build_region(data, region_level), region_level, scheme)


def root_from_regions(regions: list[tuple[int, int, bytes]], scheme: HashScheme) -> bytes:
    """Full-tree root given (leaf_index, level, digest) subtree anchors, rest zero.

    Each anchor is spliced into an empty tree as a node whose only content
    is its digest, so the tree hashes over it but cannot read through it.
    This is the reconstruction the arbitration side runs when it rebuilds an
    initial VM memory root from the public program digest plus the
    disputed operand field.
    """
    tree = MemTree(scheme)
    for leaf_index, level, digest in regions:
        anchor = _Node(None, None)
        anchor.digest = digest
        tree = tree.splice(leaf_index, level, anchor)
    return tree.root()
