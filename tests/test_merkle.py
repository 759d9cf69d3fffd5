"""Tree commitments: completeness, soundness sampling, zero-subtree algebra.

The zero-hash chain and two-leaf roots are recomputed here with hashlib
directly (independent of the module under test) before being compared.
"""

import hashlib
import random

import pytest

from opml import fpvm, merkle
from opml.hashing import TREE_DEPTH, ZERO_LEAF, HashScheme, get_scheme, scheme_names

from fixtures import counting_scheme, draw_int

SCHEME = get_scheme("sha256")


def h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def oracle_zero_chain() -> list[bytes]:
    """Independent recomputation: Z0 = H(0x00 || 32 zero bytes), Zk+1 = H(Zk || Zk)."""
    chain = [h(b"\x00" + b"\x00" * 32)]
    for _ in range(TREE_DEPTH):
        chain.append(h(chain[-1] + chain[-1]))
    return chain


def oracle_single_leaf_root(index: int, leaf: bytes) -> bytes:
    """Root of a tree holding exactly one leaf, folded by hand."""
    chain = oracle_zero_chain()
    acc = h(b"\x00" + leaf)
    for level in range(TREE_DEPTH):
        if (index >> level) & 1:
            acc = h(chain[level] + acc)
        else:
            acc = h(acc + chain[level])
    return acc


def rand_leaf(rng: random.Random) -> bytes:
    return rng.randbytes(32)


def test_empty_root_matches_zero_chain():
    assert merkle.MemTree(SCHEME).root() == oracle_zero_chain()[TREE_DEPTH]
    assert SCHEME.zero_hashes[TREE_DEPTH] == oracle_zero_chain()[TREE_DEPTH]


def test_single_leaf_roots_match_oracle():
    rng = random.Random(1)
    for index in [0, 1, 7, 2**20, merkle.NUM_LEAVES - 1]:
        leaf = rand_leaf(rng)
        tree = merkle.MemTree(SCHEME).update_leaf(index, leaf)
        assert tree.root() == oracle_single_leaf_root(index, leaf)


def test_two_single_leaf_writes_differ():
    rng = random.Random(2)
    a = merkle.MemTree(SCHEME).update_leaf(5, rand_leaf(rng))
    b = merkle.MemTree(SCHEME).update_leaf(5, rand_leaf(rng))
    assert a.root() != b.root()
    # and both match the hand-folded values
    assert a.root() == oracle_single_leaf_root(5, a.get_leaf(5))
    assert b.root() == oracle_single_leaf_root(5, b.get_leaf(5))


def _order_cases(count: int, seed: int):
    """`count` lists of up to 20 (index, leaf) writes, indices in 0-1000:
    about half repeat an earlier index and a quarter write ZERO_LEAF."""
    rng = random.Random(seed)
    for _ in range(count):
        writes: list[tuple[int, bytes]] = []
        for _ in range(rng.randint(0, 20)):
            index = rng.choice(writes)[0] if writes and rng.random() < 0.5 else rng.randint(0, 1000)
            writes.append((index, ZERO_LEAF if rng.random() < 0.25 else rand_leaf(rng)))
        yield writes


def tree_of(writes) -> merkle.MemTree:
    tree = merkle.MemTree(SCHEME)
    for idx, leaf in writes:
        tree = tree.update_leaf(idx, leaf)
    return tree


def test_root_independent_of_insertion_order():
    for writes in _order_cases(60, 71):
        tree_fwd = tree_of(writes)
        tree_rev = merkle.MemTree(SCHEME)
        final = {}
        for idx, leaf in writes:
            final[idx] = leaf
        for idx, leaf in sorted(final.items(), reverse=True):
            tree_rev = tree_rev.update_leaf(idx, leaf)
        # forward insertion keeps stale values overwritten; rebuild to compare
        tree_fwd2 = merkle.MemTree(SCHEME)
        for idx, leaf in final.items():
            tree_fwd2 = tree_fwd2.update_leaf(idx, leaf)
        assert tree_fwd2.root() == tree_rev.root()
        assert tree_fwd.root() == tree_fwd2.root()
        # The same writes as one pending version, built by one `_set` call over
        # all of them, on an empty tree and on the tree of the first half.
        half = len(writes) // 2
        for base, batch in ((merkle.MemTree(SCHEME), writes), (tree_of(writes[:half]), writes[half:])):
            batched = base.with_writes(dict(batch))
            assert shape(batched._top()) == shape(tree_fwd._top())
            assert batched.root() == tree_fwd.root()


def test_update_is_persistent():
    rng = random.Random(3)
    base = merkle.MemTree(SCHEME).update_leaf(9, rand_leaf(rng))
    root_before = base.root()
    changed = base.update_leaf(9, rand_leaf(rng))
    assert base.root() == root_before
    assert changed.root() != root_before


def test_write_back_restores_root():
    rng = random.Random(4)
    leaf = rand_leaf(rng)
    t0 = merkle.MemTree(SCHEME).update_leaf(42, leaf)
    r0 = t0.root()
    t1 = t0.update_leaf(42, rand_leaf(rng))
    t2 = t1.update_leaf(42, leaf)
    assert t2.root() == r0


def test_write_zero_to_absent_leaf_keeps_root():
    t = merkle.MemTree(SCHEME).update_leaf(3, b"\x01" * 32)
    r = t.root()
    assert t.update_leaf(100, ZERO_LEAF).root() == r


def test_out_of_range_index_rejected():
    tree = merkle.MemTree(SCHEME)
    with pytest.raises(merkle.RangeError):
        tree.update_leaf(merkle.NUM_LEAVES, b"\x01" * 32)
    with pytest.raises(merkle.RangeError, match="leaf index"):
        tree.get_leaf(merkle.NUM_LEAVES)
    with pytest.raises(merkle.RangeError, match="leaf index"):
        tree.prove(-1)
    with pytest.raises(merkle.RangeError, match="subtree level 28"):
        tree.prove(0, TREE_DEPTH + 1)
    with pytest.raises(ValueError, match="leaf must be 32 bytes, got 31"):
        tree.update_leaf(0, b"\x01" * 31)
    for index in (merkle.NUM_LEAVES, -1):
        with pytest.raises(merkle.RangeError, match="leaf index"):
            tree.leaf_block(index, 5, {})


def test_a_block_read_holds_what_get_leaf_reads_and_hashes_nothing():
    """Trees built by `update_leaf`, by a `region` image + `splice` (zero
    leaves inside the region included) and the empty tree; blocks inside
    written and absent subtrees and the last block of the address space, at
    levels 0 to 6 and from indices inside a block as well as at its start."""
    scheme, calls = counting_scheme()
    rng = random.Random(32)
    updated = merkle.MemTree(scheme)
    for _ in range(200):
        updated = updated.update_leaf(rng.randrange(4096), rand_leaf(rng))
    image = [rand_leaf(rng) for _ in range(300)]
    image[50:60] = [ZERO_LEAF] * 10
    spliced = merkle.MemTree(scheme).splice(4096, 10, merkle.region(b"".join(image), 10, scheme))
    last = merkle.NUM_LEAVES - 1
    trees = [merkle.MemTree(scheme), updated, spliced, updated.update_leaf(last, rand_leaf(rng))]
    indices = [0, 5, 31, 33, 4095, 4096 + 17, 4096 + 55, 4096 + 299, 4096 + 1023, 1 << 20, last]
    for tree in trees:
        for index in indices:
            for level in (0, 1, 3, 5, 6):
                out: dict[int, bytes] = {}
                tree.leaf_block(index, level, out)
                first = index >> level << level
                assert out == {32 * i: tree.get_leaf(i) for i in range(first, first + (1 << level))}
    # Entries `out` already holds are kept, whatever the tree reads there.
    kept = {32 * 4096: b"kept", 32 * (4096 + 31): ZERO_LEAF, 32 * 99: b"outside the block"}
    out = dict(kept)
    spliced.leaf_block(4096 + 7, 5, out)
    assert out == {**{32 * i: spliced.get_leaf(i) for i in range(4096, 4096 + 32)}, **kept}
    assert calls == []


def test_prove_verify_roundtrip_and_size():
    rng = random.Random(5)
    tree = merkle.MemTree(SCHEME)
    for _ in range(30):
        tree = tree.update_leaf(rng.randrange(0, 5000), rand_leaf(rng))
    for _ in range(20):
        idx = rng.randrange(0, 5000)
        proof = tree.prove(idx)
        assert len(proof.siblings) == TREE_DEPTH
        assert len(proof.to_bytes()) == 6 + TREE_DEPTH * 32
        claimed = SCHEME.leaf_hash(tree.get_leaf(idx))
        assert merkle.verify(tree.root(), claimed, proof, SCHEME)


def test_single_bit_mutations_fail_verification():
    rng = random.Random(6)
    tree = merkle.MemTree(SCHEME)
    for _ in range(10):
        tree = tree.update_leaf(rng.randrange(0, 4096), rand_leaf(rng))
    idx = 1337
    tree = tree.update_leaf(idx, rand_leaf(rng))
    root = tree.root()
    proof = tree.prove(idx)
    claimed = SCHEME.leaf_hash(tree.get_leaf(idx))
    assert merkle.verify(root, claimed, proof, SCHEME)
    for _ in range(1000):
        what = rng.randrange(3)
        if what == 0:
            mutated = bytearray(claimed)
            mutated[rng.randrange(32)] ^= 1 << rng.randrange(8)
            assert not merkle.verify(root, bytes(mutated), proof, SCHEME)
        elif what == 1:
            sibs = [bytearray(s) for s in proof.siblings]
            sibs[rng.randrange(len(sibs))][rng.randrange(32)] ^= 1 << rng.randrange(8)
            bad = merkle.MerkleProof(proof.leaf_index, proof.subtree_level, [bytes(s) for s in sibs])
            assert not merkle.verify(root, claimed, bad, SCHEME)
        else:
            bad_index = proof.leaf_index ^ (1 << rng.randrange(TREE_DEPTH))
            bad = merkle.MerkleProof(bad_index, proof.subtree_level, proof.siblings)
            assert not merkle.verify(root, claimed, bad, SCHEME)


def test_malformed_proofs_fail_verification():
    """Each structural guard of `verify`: the misaligned and out-of-range
    indices would recompute the true root without theirs."""
    tree = merkle.MemTree(SCHEME).update_leaf(8, b"\x05" * 32).update_leaf(300, b"\x06" * 32)
    root, claimed = tree.root(), tree.subtree_root(8 * 32, 3)
    proof = tree.prove(8, 3)
    assert merkle.verify(root, claimed, proof, SCHEME)
    sibs = proof.siblings
    for bad in (
        merkle.MerkleProof(8, 3, sibs[:-1]),
        merkle.MerkleProof(8, 3, sibs + [sibs[0]]),
        merkle.MerkleProof(8 + merkle.NUM_LEAVES, 3, sibs),
        merkle.MerkleProof(-8, 3, sibs),
        merkle.MerkleProof(9, 3, sibs),
        merkle.MerkleProof(8, 3, [sibs[0][:31]] + sibs[1:]),
    ):
        assert not merkle.verify(root, claimed, bad, SCHEME)


def test_whole_tree_proof_degenerates_to_equality():
    tree = merkle.MemTree(SCHEME).update_leaf(0, b"\x07" * 32)
    proof = tree.prove(0, TREE_DEPTH)
    assert proof.siblings == []
    assert merkle.verify(tree.root(), tree.root(), proof, SCHEME)
    assert not merkle.verify(tree.root(), b"\x00" * 32, proof, SCHEME)


def test_subtree_roots():
    rng = random.Random(7)
    tree = merkle.MemTree(SCHEME)
    assert tree.subtree_root(0, 5) == SCHEME.zero_hashes[5]
    leaf = rand_leaf(rng)
    tree = tree.update_leaf(0, leaf)
    assert tree.subtree_root(0, 0) == SCHEME.leaf_hash(leaf)
    assert tree.subtree_root(0, TREE_DEPTH) == tree.root()
    # region root changes iff the region content changes
    region_before = tree.subtree_root(64 * 32, 4)
    tree2 = tree.update_leaf(64, rand_leaf(rng))
    assert tree2.subtree_root(64 * 32, 4) != region_before
    assert tree2.subtree_root(0, 0) == SCHEME.leaf_hash(leaf)


def test_subtree_alignment_errors():
    tree = merkle.MemTree(SCHEME)
    with pytest.raises(merkle.AlignmentError):
        tree.subtree_root(33, 0)
    with pytest.raises(merkle.AlignmentError):
        tree.subtree_root(32, 3)
    with pytest.raises(merkle.AlignmentError):
        tree.prove(1, 1)


def test_subtree_proof_roundtrip():
    rng = random.Random(8)
    tree = merkle.MemTree(SCHEME)
    for i in range(16):
        tree = tree.update_leaf(512 + i, rand_leaf(rng))
    sub = tree.subtree_root(512 * 32, 4)
    proof = tree.prove(512, 4)
    assert len(proof.siblings) == TREE_DEPTH - 4
    assert merkle.verify(tree.root(), sub, proof, SCHEME)


def test_region_root_matches_tree_subtree():
    rng = random.Random(9)
    data = rng.randbytes(100)
    level = 4
    tree = merkle.MemTree(SCHEME)
    base = 1024 * 32  # leaf 1024, aligned to 2**4
    for i in range(0, len(data), 32):
        chunk = data[i : i + 32]
        chunk += b"\x00" * (32 - len(chunk))
        tree = tree.update_leaf((base + i) // 32, chunk)
    assert merkle.region_root(data, level, SCHEME) == tree.subtree_root(base, level)
    assert merkle.region_root(b"", level, SCHEME) == SCHEME.zero_hashes[level]


def test_root_from_regions_reconstructs():
    rng = random.Random(10)
    tree = merkle.MemTree(SCHEME)
    data_a = rng.randbytes(70)
    data_b = rng.randbytes(40)
    for i in range(0, len(data_a), 32):
        chunk = (data_a[i : i + 32] + b"\x00" * 32)[:32]
        tree = tree.update_leaf(i // 32, chunk)
    base_b = 256
    for i in range(0, len(data_b), 32):
        chunk = (data_b[i : i + 32] + b"\x00" * 32)[:32]
        tree = tree.update_leaf(base_b + i // 32, chunk)
    rebuilt = merkle.root_from_regions(
        [
            (0, 3, tree.subtree_root(0, 3)),
            (base_b, 3, tree.subtree_root(base_b * 32, 3)),
        ],
        SCHEME,
    )
    assert rebuilt == tree.root()
    assert merkle.root_from_regions([], SCHEME) == merkle.MemTree(SCHEME).root()


def _disjoint_anchors(rng: random.Random) -> list[tuple[int, int, bytes]]:
    """Up to 12 aligned (leaf_index, level, digest) anchors at levels 0-27,
    no two overlapping, often near each other so they share ancestors."""
    anchors: list[tuple[int, int, bytes]] = []
    for _ in range(draw_int(rng, 0, 12)):
        level = draw_int(rng, 0, TREE_DEPTH)
        index = _index(rng) if rng.random() < 0.5 else draw_int(rng, 0, 1 << 12)
        index = index >> level << level
        if all(index >> max(level, other) != at >> max(level, other) for at, other, _ in anchors):
            anchors.append((index, level, rng.randbytes(32)))
    return anchors


def anchored_root(anchors, digest, zeros, level: int = TREE_DEPTH, index: int = 0) -> bytes:
    """Independent reference: the digest of the subtree of 2**level leaves
    at `index` (counted in such subtrees), hashed top-down by `digest`."""
    under = [anchor for anchor in anchors if anchor[0] >> level == index]
    if not under:
        return zeros[level]
    if under[0][1] == level:  # the anchors are disjoint, so this one is alone here
        return under[0][2]
    return digest(anchored_root(under, digest, zeros, level - 1, 2 * index)
                  + anchored_root(under, digest, zeros, level - 1, 2 * index + 1))


def test_root_from_regions_matches_a_top_down_reference_and_hashes_each_ancestor_once():
    """Random disjoint anchors at every level under every scheme: the root
    is the reference's, and the only hash calls are one `node_hash` per
    distinct ancestor of the anchors, the same inputs the reference hashes."""
    rng = random.Random(42)
    for _ in range(150):
        name = rng.choice(scheme_names())
        (scheme, log), ref = _logged(name), get_scheme(name)
        anchors = _disjoint_anchors(rng)
        ref_log: list[bytes] = []
        reference = anchored_root(anchors, lambda data: ref_log.append(data) or ref.digest(data),
                                  eager_levels({}, ref)[1])
        assert merkle.root_from_regions(anchors, scheme) == reference
        ancestors = {(k, at >> k) for at, level, _ in anchors for k in range(level + 1, TREE_DEPTH + 1)}
        assert len(log) == len(ancestors) and sorted(log) == sorted(ref_log)


def test_an_update_leaf_version_makes_no_node_until_it_is_read(monkeypatch):
    """`update_leaf` checks its arguments and returns a pending version: it
    makes no `_Node` and hashes nothing. The first read builds the newest
    version once, one node per level of its one written path."""
    made = []
    monkeypatch.setattr(merkle._Node, "__init__", lambda node, *args, init=merkle._Node.__init__:
                        made.append(node) or init(node, *args))
    scheme, calls = counting_scheme()
    leaf = b"\x02" * 32
    base = merkle.MemTree(scheme).update_leaf(5, b"\x01" * 32)
    tree = base.update_leaf(9, leaf).update_leaf(5, ZERO_LEAF)
    assert made == [] and calls == [] and tree._root is None and base._root is None
    assert tree.get_leaf(9) == leaf and tree.get_leaf(5) == ZERO_LEAF
    assert len(made) == TREE_DEPTH and calls == []
    assert tree.root() == oracle_single_leaf_root(9, leaf) and len(made) == TREE_DEPTH
    assert base.get_leaf(5) == b"\x01" * 32 and base.get_leaf(9) == ZERO_LEAF


def test_proof_serialization_roundtrip():
    rng = random.Random(11)
    tree = merkle.MemTree(SCHEME).update_leaf(77, rand_leaf(rng))
    proof = tree.prove(77)
    blob = proof.to_bytes()
    assert merkle.MerkleProof.from_bytes(blob) == proof


def eager_levels(leaves: dict[int, bytes], scheme) -> tuple[list[dict[int, bytes]], list[bytes]]:
    """Independent reference: (levels, zeros), where levels[k] maps the index
    of every non-zero subtree of 2**k leaves to its digest, hashed bottom-up
    from the leaf values, and zeros[k] is the digest of an all-zero one."""
    zeros = [scheme.digest(b"\x00" + ZERO_LEAF)]
    for _ in range(TREE_DEPTH):
        zeros.append(scheme.digest(zeros[-1] + zeros[-1]))
    level = {i: scheme.digest(b"\x00" + leaf) for i, leaf in leaves.items() if leaf != ZERO_LEAF}
    levels = [level]
    for k in range(TREE_DEPTH):
        level = {i: scheme.digest(level.get(2 * i, zeros[k]) + level.get(2 * i + 1, zeros[k]))
                 for i in {j >> 1 for j in level}}
        levels.append(level)
    return levels, zeros


_CORNER_INDICES = (0, 1, 2, 3, 31, 32, 1 << 20, (1 << 26) + 5, merkle.NUM_LEAVES - 1)
_KINDS = ("update", "update-latest", "writes", "writes-latest", "get", "check")


def _index(rng: random.Random) -> int:
    return rng.choice(_CORNER_INDICES) if rng.random() < 0.5 else draw_int(rng, 0, 63)


def _value(rng: random.Random) -> bytes:
    return rng.choice((ZERO_LEAF, b"\x01" * 32)) if rng.random() < 0.5 else rand_leaf(rng)


def _ops(rng: random.Random) -> list:
    """Up to 40 (kind, pick, index, value, writes) tuples; `writes` holds up
    to 6 pairs, where a repeated index counts its last value."""
    return [(rng.choice(_KINDS), draw_int(rng, 0, 1 << 16), _index(rng), _value(rng),
             [(_index(rng), _value(rng)) for _ in range(draw_int(rng, 0, 6))])
            for _ in range(draw_int(rng, 0, 40))]


def _versions_match_eager_trees(ops, scheme) -> None:
    """Updates, `with_writes` versions and reads on any version, superseded
    ones and one updated twice included, against a dict model per version;
    roots, proofs and subtree roots, asked for at any point, against
    `eager_levels`. A read or a hash builds a pending version, so versions
    are built in any order: newer before older, and after a newer version
    of them was made or built. Every version is checked again at the end,
    newest first."""
    versions = [(merkle.MemTree(scheme), {})]

    def check(tree, model, index):
        levels, zeros = eager_levels(model, scheme)
        assert tree.root() == levels[TREE_DEPTH].get(0, zeros[TREE_DEPTH])
        proof = tree.prove(index)
        assert proof.siblings == [levels[k].get((index >> k) ^ 1, zeros[k]) for k in range(TREE_DEPTH)]
        level = index.bit_length() % 6
        base = index >> level << level
        assert tree.subtree_root(base * 32, level) == levels[level].get(index >> level, zeros[level])

    for kind, pick, index, value, writes in ops:
        tree, model = versions[-1] if kind.endswith("-latest") else versions[pick % len(versions)]
        if kind.startswith("update"):
            versions.append((tree.update_leaf(index, value), {**model, index: value}))
        elif kind.startswith("writes"):
            versions.append((tree.with_writes(dict(writes)), {**model, **dict(writes)}))
        elif kind == "get":
            assert tree.get_leaf(index) == model.get(index, ZERO_LEAF)
        else:
            check(tree, model, index)
    if len(versions) > 1:  # the oldest written version, updated twice more
        tree, model = versions[1]
        for value in (b"\x02" * 32, ZERO_LEAF):
            versions.append((tree.update_leaf(3, value), {**model, 3: value}))
    for tree, model in reversed(versions):
        for index in {*model, 0, 5}:
            assert tree.get_leaf(index) == model.get(index, ZERO_LEAF)
        check(tree, model, max(model, default=7))


def test_every_version_reads_and_hashes_like_an_eager_tree():
    rng = random.Random(31)
    for _ in range(120):
        _versions_match_eager_trees(_ops(rng), get_scheme(rng.choice(scheme_names())))


def shape(node):
    """A tree's nodes and leaves without their digests, all-zero subtrees None."""
    return node if node is None or isinstance(node, bytes) else (shape(node.left), shape(node.right))


def test_pending_versions_build_in_any_order_like_leaf_by_leaf_updates():
    """A chain of `with_writes` versions, built newest first, oldest next and
    a superseded branch last, reads, proves and hashes as `update_leaf`
    applied write by write. A build hashes nothing. Zero writes collapse
    their paths, also next to non-zero writes of one build; a built version
    still updates persistently; no version changes its base or the writes
    it was given."""
    scheme, calls = counting_scheme()
    rng = random.Random(34)
    leaves = {i: rand_leaf(rng) for i in (0, 1, 6, 7, 1 << 20, merkle.NUM_LEAVES - 1)}
    base = merkle.MemTree(scheme)
    for index, leaf in leaves.items():
        base = base.update_leaf(index, leaf)
    base_root = base.root()
    steps = [
        {6: rand_leaf(rng), 1 << 20: ZERO_LEAF, 2: rand_leaf(rng)},
        {6: rand_leaf(rng), 7: ZERO_LEAF, 0: ZERO_LEAF, 1: rand_leaf(rng), 3: ZERO_LEAF},
        {6: ZERO_LEAF, 1: ZERO_LEAF, 2: ZERO_LEAF, 17: rand_leaf(rng)},  # leaves 0-15 empty
    ]
    given = [dict(writes) for writes in steps]
    eager, lazy = [base], [base]
    for writes in steps:
        tree = eager[-1]
        for index, leaf in writes.items():
            tree = tree.update_leaf(index, leaf)
        eager.append(tree)
        lazy.append(lazy[-1].with_writes(writes))
    assert lazy[1].with_writes({}) is lazy[1]
    branch = {7: rand_leaf(rng), 2: rand_leaf(rng)}
    superseded = lazy[1].with_writes(dict(branch))
    superseded_eager = eager[1].update_leaf(7, branch[7]).update_leaf(2, branch[2])
    assert [version._root for version in lazy[1:]] == [None] * 3  # pending: nothing built
    calls.clear()
    assert lazy[3].get_leaf(6) == ZERO_LEAF and calls == []  # a build hashes nothing
    for i in (3, 1, 2):
        assert shape(lazy[i]._top()) == shape(eager[i]._top())  # all-zero subtrees are None in both
        assert lazy[i].root() == eager[i].root()
        for index in {*leaves, 2, 3, 17, 1 << 19}:
            assert lazy[i].get_leaf(index) == eager[i].get_leaf(index)
            assert lazy[i].prove(index) == eager[i].prove(index)
        assert lazy[i].subtree_root(0, 4) == eager[i].subtree_root(0, 4)
    assert lazy[3].subtree_root(0, 4) == scheme.zero_hashes[4]
    assert superseded.root() == superseded_eager.root()
    assert base.root() == base_root and steps == given
    after = lazy[1].update_leaf(1, ZERO_LEAF).with_writes({1: b"\x03" * 32})
    assert after.root() == eager[1].update_leaf(1, b"\x03" * 32).root()
    assert lazy[1].root() == eager[1].root()


def _image_case(rng: random.Random) -> tuple[bytes, int, int]:
    """(data, level, base leaf index) of a region image: up to 2**level
    whole leaves, at levels on both sides of KEEP_LEVEL, all random, all
    zero, with trailing zero leaves or half zero, then a cut of up to 31
    bytes; at the first, the second, a random or the last aligned place."""
    level = draw_int(rng, 1, 8)
    count, kind = draw_int(rng, 0, 1 << level), rng.choice(("random", "zero", "trailing", "half"))
    leaves = [ZERO_LEAF if kind == "zero" or (kind == "trailing" and 2 * i >= count)
              or (kind == "half" and rng.random() < 0.5) else rand_leaf(rng) for i in range(count)]
    data = b"".join(leaves)[: max(0, 32 * count - draw_int(rng, 0, 31))]
    slots = 1 << (TREE_DEPTH - level)
    return data, level, rng.choice((0, 1, rng.randrange(slots), slots - 1)) << level


def _logged(name: str):
    """Scheme `name`, logging every hash input made after its zero table."""
    calls: list[bytes] = []
    scheme = HashScheme(name, lambda data: calls.append(data) or get_scheme(name).digest(data))
    calls.clear()
    return scheme, calls


def _image_matches_leaf_by_leaf_writes(data: bytes, level: int, base: int, name: str,
                                       hash_first: bool) -> None:
    """A `region` image spliced in at `base` against the same bytes written
    leaf by leaf, next to one leaf just past the region: reads hash nothing
    and open no image; every root, subtree root and proof is equal; a root
    makes the same hash calls; a proof into a hashed image hashes at most
    one 2**KEEP_LEVEL-leaf block per path beyond the other tree's calls,
    and nothing more when repeated. `hash_first` hashes the image before
    any write into it, else after. Then writes by `update_leaf`,
    `with_writes` and a `StepFault` make versions that share the image's
    one opening, each equal to its leaf-by-leaf twin, with the unwritten
    trees unchanged. Building a version hashes nothing, except that the
    first write into an unhashed image makes exactly the calls of its
    `region_root`. A version's root then makes the other tree's calls, or
    at most one block more per written path where the image was hashed
    from its bytes."""
    (scheme, log), (ref_scheme, ref_log) = _logged(name), _logged(name)
    n, end = -(-len(data) // 32), base + (1 << level)
    image = merkle.region(data, level, scheme)
    neighbour = end % merkle.NUM_LEAVES
    tree = merkle.MemTree(scheme).update_leaf(neighbour, b"\x07" * 32).splice(base, level, image)
    ref = merkle.MemTree(ref_scheme).update_leaf(neighbour, b"\x07" * 32)
    for i in range(n):
        ref = ref.update_leaf(base + i, data[32 * i : 32 * i + 32].ljust(32, b"\x00"))
    assert (image is None) == (data.count(0) == len(data))
    last = base + max(n - 1, 0)  # a block at a low level straddles the data's end here
    inside = base + (base * 7 + 3) % (n or 1 << level)  # in the data when there is any
    probe = [base, last, inside, end - 1]

    def reads(a, b):
        for index in {*range(max(base - 1, 0), min(base + n + 2, merkle.NUM_LEAVES)), *probe}:
            assert a.get_leaf(index) == b.get_leaf(index)
        for block in {0, 1, 3, level - 1, level, level + 1, level + 3}:
            for index in probe:
                out, ref_out = {}, {}
                a.leaf_block(index, block, out)
                b.leaf_block(index, block, ref_out)
                assert out == ref_out

    def roots(a, b, paths: int | None):
        """Equal roots, with the same calls when `paths` is None, else at
        most one block more per written path."""
        log.clear(), ref_log.clear()
        assert a.root() == b.root()
        for above in (level, level + 1, level + 4):
            at = base >> above << above
            assert a.subtree_root(32 * at, above) == b.subtree_root(32 * at, above)
        if paths is None:
            assert sorted(log) == sorted(ref_log)
        else:
            assert len(log) <= len(ref_log) + (paths << (merkle.KEEP_LEVEL + 1))

    def proofs(a, b, repeat: bool):
        log.clear(), ref_log.clear()
        for index in probe:
            assert a.prove(index) == b.prove(index)
        for sub in {1, 4, level - 1} & set(range(level + 1)):
            assert a.prove(base, sub) == b.prove(base, sub)
            assert a.subtree_root(32 * base, sub) == b.subtree_root(32 * base, sub)
        blocks = {index >> merkle.KEEP_LEVEL for index in probe}
        assert 0 <= len(log) - len(ref_log) <= (0 if repeat else len(blocks) << (merkle.KEEP_LEVEL + 1))

    log.clear(), ref_log.clear()
    reads(tree, ref)
    assert log == ref_log == [] and (image is None or image._children is None)
    if hash_first:
        roots(tree, ref, None)
        proofs(tree, ref, repeat=False)
        proofs(tree, ref, repeat=True)
    new = b"\x05" * 32
    versions = [(tree.update_leaf(last, new), ref.update_leaf(last, new)),
                (tree.update_leaf(base, ZERO_LEAF), ref.update_leaf(base, ZERO_LEAF))]
    writes = {inside: new, end - 1: b"\x06" * 32, neighbour: ZERO_LEAF}
    versions.append((tree.with_writes(dict(writes)), ref.with_writes(dict(writes))))
    if image is not None and not hash_first:
        region_scheme, opening = _logged(name)
        merkle.region_root(data, level, region_scheme)
    else:
        opening = []
    exact = image is None and not hash_first
    built = image._children if image is not None else None
    for (a, b), paths in zip(versions, (1, 1, len(writes))):
        log.clear()
        reads(a, b)  # builds both versions
        assert sorted(log) == sorted(opening)
        opening = []
        roots(a, b, None if exact else paths)
        if image is not None:
            built = built or image._children
            assert image._children is built  # one opening, shared by every version
    fault = fpvm.StepFault(step=1, leaf_index=inside, bit=last % 256)
    versions.append(tuple(fault.apply(fpvm.VmState(pc=0, regs=(0,) * 16, memory=t)).memory
                          for t in (tree, ref)))
    roots(*versions[-1], None if exact else 1)
    roots(tree, ref, None if exact else 0)
    for a, b in versions:
        reads(a, b)
        proofs(a, b, repeat=False)
    reads(tree, ref)
    proofs(tree, ref, repeat=False)


def test_a_region_image_reads_proves_and_hashes_like_leaf_by_leaf_writes():
    rng = random.Random(41)
    cases = [(b"", 3, 8), (ZERO_LEAF * 3, 6, 64), (rand_leaf(rng) + ZERO_LEAF * 40, 6, 0),
             (rand_leaf(rng)[:5], 1, merkle.NUM_LEAVES - 2)]
    cases += [_image_case(rng) for _ in range(40)]
    for data, level, base in cases:
        for name in scheme_names():
            _image_matches_leaf_by_leaf_writes(data, level, base, name, hash_first=rng.random() < 0.5)


def _opened(node) -> tuple[int, int]:
    """(images, nodes) reachable from `node` through what is already made,
    without opening an image."""
    images = nodes = 0
    todo = [node]
    while todo:
        node = todo.pop()
        if isinstance(node, merkle._Image):
            images += 1
            todo += node._children or ()
        elif isinstance(node, merkle._Node):
            nodes += 1
            todo += (node.left, node.right)
    return images, nodes


def test_a_proof_opens_a_large_image_along_its_path_alone():
    """After the root, a proof into a 100,003-leaf program region opens it
    one path at a time: one image per half on the path above KEEP_LEVEL and
    one 2**KEEP_LEVEL-leaf block of `_Node`s on each side of the path, with
    at most one block hashed. The same proof again hashes nothing, and a
    proof of another pair in the block hashes that pair and its path."""
    rng = random.Random(47)
    data = rng.randbytes(32 * 100_003)
    scheme, calls = counting_scheme()
    image = merkle.region(data, fpvm.PROGRAM_LEVEL, scheme)
    tree = merkle.MemTree(scheme).splice(0, fpvm.PROGRAM_LEVEL, image)
    root = tree.root()
    index = rng.randrange(100_003) & ~1
    calls.clear()
    proof = tree.prove(index, 1)
    assert 0 < len(calls) < 1 << (merkle.KEEP_LEVEL + 1)
    assert merkle.verify(root, scheme.node_hash(*(scheme.leaf_hash(data[32 * i : 32 * i + 32])
                                                 for i in (index, index + 1))), proof, scheme)
    opened = _opened(image)
    assert opened[0] <= 2 * (fpvm.PROGRAM_LEVEL - merkle.KEEP_LEVEL)
    assert opened[1] <= 2 * ((1 << merkle.KEEP_LEVEL) - 1)
    calls.clear()
    assert tree.prove(index, 1) == proof and calls == []
    other = index ^ (1 << (merkle.KEEP_LEVEL - 1))  # the pair's mirror in its block
    assert tree.prove(other, 1).siblings[merkle.KEEP_LEVEL - 1:] == proof.siblings[merkle.KEEP_LEVEL - 1:]
    assert len(calls) == 2 + merkle.KEEP_LEVEL - 1
    assert _opened(image) == opened
