"""Fixed-depth sparse Merkle tree over the VM's 32-bit address space.

The tree has exactly 27 levels above the leaf hashes; each leaf is a 32-byte
memory word group, so the leaves cover addresses 0 .. 2**32 - 1. Absent
leaves read as all zeros, and all-zero subtrees collapse to memoized digests,
so a tree touching a few pages stays small.

Updates are persistent: `update_leaf` copies the 27-node path and shares
everything else, so any snapshot can be kept in O(1) while a successor
version evolves. A batch of writes can wait: `with_writes` is an O(1)
version that reads as its base plus a dict of leaf writes, and the first
method that reads or hashes it builds it. The build merges the pending
writes of its chain of unbuilt versions, newest value per leaf, and applies
them under one owner token: a path node this build made is changed in place
by its later leaves, and any other node is copied as `update_leaf` copies
it. So a VM run that yields many states builds only those that something
reads, each once, and copies a node at most once per build. Digests are
lazy: a copied node is built without one, and `root`, `prove` and
`subtree_root` hash a missing digest on first use and keep it in the node.
No build hashes, so no kept digest goes stale. A VM run that writes on
every step but opens a handful of roots hashes only the paths those roots
cover. A whole image is loaded bottom-up: `build_region` builds a region's
subtree, unhashed like any path copy, and `MemTree.splice` hangs it in at
its aligned place; `region_root` hashes one on its own. The program region
is the exception: `fpvm.load_program` hands its subtree the digest that
`fpvm.program_root` keeps for the program's content (`subtree_digest` with
`known`), so a reloaded program's interior is hashed only where a proof
opens a path.

The tree keeps no read cache: `get_leaf` walks from the root to one leaf,
and `leaf_block` walks once to an aligned block of leaves and reads each
one its caller's dict lacks, so every version reads alike. A VM run keeps
its own cache of the leaves it has read or written (`fpvm._TreeMemory`): a
whole run fills it a block at a time, and a single step or a replay leaf
by leaf.
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
    a node's children change only while the build that made it runs, which
    hashes nothing (`_write`), so a stored digest never goes stale.
    An anchor of `root_from_regions` is a _Node with only a preset digest,
    at any level, the leaf level included."""

    __slots__ = ("digest", "left", "right")
    owner = None  # no build owns a plain node (see _OwnedNode)

    def __init__(self, left, right):
        self.digest = None
        self.left = left
        self.right = right


class _OwnedNode(_Node):
    """A node that a build of a pending `MemTree` made (`_write`), with the
    build's token as `owner`. Only such nodes pay for the slot: a tree
    holds far more nodes that `build_region` or a path copy made."""

    __slots__ = ("owner",)

    def __init__(self, left, right, owner):
        self.digest = None
        self.left = left
        self.right = right
        self.owner = owner


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


def _write(root, index: int, leaf: bytes, owner):
    """`root`, a level-TREE_DEPTH node or None, with the non-zero `leaf` at
    `index`. A node on the path that `owner` owns is changed in place, and
    any other one is replaced by a copy that `owner` owns. Only the build
    that holds `owner` may pass it, and it hashes nothing until it is done,
    so no node it changes has a digest yet."""
    if root is None:
        root = _OwnedNode(None, None, owner)
    elif root.owner is not owner:
        root = _OwnedNode(root.left, root.right, owner)
    node = root
    for level in range(TREE_DEPTH - 1, 0, -1):
        right = (index >> level) & 1
        child = node.right if right else node.left
        if child is None or child.owner is not owner:
            child = (_OwnedNode(None, None, owner) if child is None
                     else _OwnedNode(child.left, child.right, owner))
            if right:
                node.right = child
            else:
                node.left = child
        node = child
    if index & 1:
        node.right = leaf
    else:
        node.left = leaf
    return root


class MemTree:
    """Persistent sparse Merkle tree with a fixed depth of 27 levels.

    A tree is built, with its nodes under `_root`, or pending: a
    `with_writes` version of `_base` with `_writes` still to apply, which
    the first method that reads or hashes it builds (`_top`)."""

    __slots__ = ("scheme", "_root", "_base", "_writes")

    def __init__(self, scheme: HashScheme, _root=None):
        self.scheme = scheme
        self._root = _root
        self._base: MemTree | None = None
        self._writes: dict[int, bytes] | None = None

    def with_writes(self, writes: dict[int, bytes]) -> "MemTree":
        """A version that reads and hashes as self with each leaf of
        `writes` (leaf index -> 32-byte leaf) written, made in O(1) and
        built when first read; self reads the same as before. The version
        keeps `writes`, so the caller must not change it afterwards, and
        checks neither the indices nor the leaf lengths, which the caller
        vouches for. No writes give self."""
        if not writes:
            return self
        version = MemTree(self.scheme)
        version._base, version._writes = self, writes
        return version

    def _top(self):
        """The root node, after building this version if it is pending.

        The build walks up to the nearest built version, merges the pending
        writes of the chain oldest first, so each leaf is written once with
        its newest value, applies them under a fresh owner token
        (`_write`), and drops the base and the writes. A ZERO_LEAF write is
        a plain path copy (`_set`), as its path may collapse."""
        if self._base is None:
            return self._root
        chain, built = [], self
        while built._base is not None:
            chain.append(built)
            built = built._base
        node = built._root
        writes: dict[int, bytes] = {}
        for version in reversed(chain):
            writes.update(version._writes)
        owner = object()
        for index, leaf in writes.items():
            if leaf == ZERO_LEAF:
                node = _set(node, TREE_DEPTH, index, None, 0)
            else:
                node = _write(node, index, leaf, owner)
        self._root, self._base, self._writes = node, None, None
        return node

    def root(self) -> bytes:
        return _child_digest(self._top(), TREE_DEPTH, self.scheme)

    def get_leaf(self, index: int) -> bytes:
        if not 0 <= index < NUM_LEAVES:
            raise RangeError(f"leaf index {index} out of range")
        node = self._top()
        for level in range(TREE_DEPTH - 1, -1, -1):
            if node is None:
                break
            node = node.right if (index >> level) & 1 else node.left
        return ZERO_LEAF if node is None else node

    def leaf_block(self, index: int, level: int, out: dict[int, bytes]) -> None:
        """Put into `out` each leaf it lacks of the aligned block of
        2**level leaves that holds `index`, keyed by base address (32 *
        leaf index), an absent leaf as ZERO_LEAF: what `get_leaf` reads for
        it, in one descent from the root. An entry `out` already holds is
        kept, so a VM run's newer leaves stay (`fpvm._TreeMemory`). Hashes
        nothing."""
        if not 0 <= index < NUM_LEAVES:
            raise RangeError(f"leaf index {index} out of range")
        node = self._top()
        for depth in range(TREE_DEPTH - 1, level - 1, -1):
            if node is None:
                break
            node = node.right if (index >> depth) & 1 else node.left
        nodes = [node]
        for _ in range(level):
            nodes = [child for parent in nodes
                     for child in ((None, None) if parent is None else (parent.left, parent.right))]
        base = (index >> level << level) * 32
        for offset, leaf in enumerate(nodes):
            out.setdefault(base + 32 * offset, ZERO_LEAF if leaf is None else leaf)

    def update_leaf(self, index: int, leaf: bytes) -> "MemTree":
        """Return a new tree with `leaf` written at `index`; self reads the
        same as before."""
        if not 0 <= index < NUM_LEAVES:
            raise RangeError(f"leaf index {index} out of range")
        if len(leaf) != 32:
            raise ValueError(f"leaf must be 32 bytes, got {len(leaf)}")
        new_root = _set(self._top(), TREE_DEPTH, index, None if leaf == ZERO_LEAF else leaf, 0)
        return MemTree(self.scheme, new_root)

    def splice(self, index: int, level: int, subtree) -> "MemTree":
        """Return a new tree with the region of 2**level leaves at `index`
        replaced by `subtree` (from `build_region`); self is unchanged."""
        self._check_aligned(index, level)
        return MemTree(self.scheme, _set(self._top(), TREE_DEPTH, index, subtree, level))

    def prove(self, index: int, subtree_level: int = 0) -> "MerkleProof":
        """Membership proof for the subtree of 2**subtree_level leaves at `index`."""
        self._check_aligned(index, subtree_level)
        siblings: list[bytes] = []
        node = self._top()
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


def subtree_digest(
    subtree, region_level: int, scheme: HashScheme, known: bytes | None = None
) -> bytes:
    """Digest of a `build_region` subtree of 2**region_level leaves, kept in it.

    Without `known`, every digest the subtree lacks is hashed and kept in
    its nodes. With `known`, the caller vouches that it is the subtree's
    digest: it is kept as the subtree's own, and nothing below is hashed
    until a proof or root opens a path into it.
    """
    if known is not None and subtree.__class__ is _Node:
        subtree.digest = known
    return _child_digest(subtree, region_level, scheme)


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
