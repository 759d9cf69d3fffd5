"""Hash scheme registry and domain separation."""

import hashlib
import importlib
import inspect
import pkgutil

import pytest

import opml
from opml import hashing, merkle


def test_scheme_registry():
    assert set(hashing.scheme_names()) >= {"sha256", "blake2b", "sha3"}
    with pytest.raises(KeyError):
        hashing.get_scheme("md5")
    assert hashing.get_scheme("sha256") is hashing.get_scheme("sha256")


def test_zero_chain_lengths_per_scheme():
    for name in hashing.scheme_names():
        scheme = hashing.get_scheme(name)
        assert len(scheme.zero_hashes) == hashing.TREE_DEPTH + 1
        assert all(len(z) == 32 for z in scheme.zero_hashes)


def test_leaf_and_node_domains_differ():
    scheme = hashing.get_scheme("sha256")
    payload = b"\xab" * 32
    assert scheme.leaf_hash(payload) != scheme.digest(payload)
    assert scheme.leaf_hash(payload) == hashlib.sha256(b"\x00" + payload).digest()
    with pytest.raises(ValueError):
        scheme.leaf_hash(b"short")


def test_trees_disagree_across_schemes():
    leaf = b"\x11" * 32
    roots = set()
    for name in hashing.scheme_names():
        scheme = hashing.get_scheme(name)
        roots.add(merkle.MemTree(scheme).update_leaf(3, leaf).root())
    assert len(roots) == len(hashing.scheme_names())


def test_proofs_work_under_alternate_scheme():
    scheme = hashing.get_scheme("blake2b")
    tree = merkle.MemTree(scheme).update_leaf(9, b"\x42" * 32)
    proof = tree.prove(9)
    claimed = scheme.leaf_hash(tree.get_leaf(9))
    assert merkle.verify(tree.root(), claimed, proof, scheme)
    # the same proof must fail under a different scheme
    assert not merkle.verify(tree.root(), claimed, proof, hashing.get_scheme("sha256"))


def test_no_scheme_parameter_has_a_default():
    """Every component takes its hash scheme from its caller or from an
    argument that carries one; none falls back to a default."""
    defaulted = []
    for info in pkgutil.iter_modules(opml.__path__):
        module = importlib.import_module(f"opml.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", getattr(obj, attr)) for attr in vars(obj)
                            if attr == "__init__" or not attr.startswith("_")]
            for qualname, fn in members:
                try:
                    param = inspect.signature(fn).parameters.get("scheme")
                except (TypeError, ValueError):  # not a callable with a signature
                    continue
                if param is not None and param.default is not param.empty:
                    defaulted.append(f"{module.__name__}.{qualname}")
    assert defaulted == []
