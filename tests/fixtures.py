"""Seeded model and input builders shared across the test suites, the
integer draw of the seeded property tests, a hash-counting scheme, a
staked chain, and a reader of two-phase transcripts."""

import hashlib
import random

from opml import ml
from opml.dispute import ChainSim
from opml.hashing import HashScheme


def draw_int(rng: random.Random, lo: int, hi: int) -> int:
    """An int in [lo, hi]: an end of the range one draw in eight, one of
    the 16 in-range values from the one nearest zero upwards one in four,
    else uniform."""
    roll = rng.random()
    if roll < 1 / 8:
        return lo if roll < 1 / 16 else hi
    if roll < 3 / 8:
        small = min(max(lo, 0), hi)
        return rng.randint(small, min(hi, small + 15))
    return rng.randint(lo, hi)


def counting_scheme() -> tuple[HashScheme, list[bytes]]:
    """A sha256 scheme that logs every hash input made after its zero-hash
    table is built."""
    calls: list[bytes] = []
    scheme = HashScheme("sha256", lambda data: calls.append(data) or hashlib.sha256(data).digest())
    calls.clear()
    return scheme, calls


def staked_chain(*parties: str) -> ChainSim:
    """A chain on which each party has deposited 1000 and staked 100 of it."""
    chain = ChainSim()
    for p in parties:
        chain.deposit(p, 1000)
        chain.stake(p, 100)
    return chain


def rand_values(rng: random.Random, shape, lo=-2.0, hi=2.0):
    if len(shape) == 1:
        return [rng.uniform(lo, hi) for _ in range(shape[0])]
    return [rand_values(rng, shape[1:], lo, hi) for _ in range(shape[0])]


def rand_tensor(rng: random.Random, shape, lo=-2.0, hi=2.0) -> ml.FixedTensor:
    return ml.quantize(rand_values(rng, shape, lo, hi))


def build_mlp(seed=0, in_dim=4, hidden=8, out_dim=3, relu=True, with_argmax=False) -> ml.CompGraph:
    """Input -> MatMul -> BiasAdd [-> ReLU] -> MatMul -> BiasAdd [-> ArgMax]."""
    rng = random.Random(seed)
    nodes = [
        ml.GraphNode(0, "input", shape=(1, in_dim)),
        ml.GraphNode(1, "const", params=rand_tensor(rng, (in_dim, hidden))),
        ml.GraphNode(2, "matmul", (0, 1)),
        ml.GraphNode(3, "const", params=rand_tensor(rng, (hidden,))),
        ml.GraphNode(4, "bias_add", (2, 3)),
    ]
    prev = 4
    if relu:
        nodes.append(ml.GraphNode(5, "relu", (4,)))
        prev = 5
    nid = len(nodes)
    nodes.append(ml.GraphNode(nid, "const", params=rand_tensor(rng, (hidden, out_dim))))
    nodes.append(ml.GraphNode(nid + 1, "matmul", (prev, nid)))
    nodes.append(ml.GraphNode(nid + 2, "const", params=rand_tensor(rng, (out_dim,))))
    nodes.append(ml.GraphNode(nid + 3, "bias_add", (nid + 1, nid + 2)))
    output = nid + 3
    if with_argmax:
        nodes.append(ml.GraphNode(nid + 4, "argmax", (nid + 3,)))
        output = nid + 4
    return ml.CompGraph(nodes, output)


def build_matmul_only(seed=1, r=2, n=2, p=2) -> ml.CompGraph:
    rng = random.Random(seed)
    return ml.CompGraph(
        [
            ml.GraphNode(0, "input", shape=(r, n)),
            ml.GraphNode(1, "const", params=rand_tensor(rng, (n, p))),
            ml.GraphNode(2, "matmul", (0, 1)),
        ],
        2,
    )


def random_small_mlp(rng: random.Random) -> tuple[ml.CompGraph, ml.FixedTensor]:
    in_dim = rng.randrange(2, 6)
    hidden = rng.randrange(2, 7)
    out_dim = rng.randrange(2, 5)
    graph = build_mlp(
        seed=rng.getrandbits(32),
        in_dim=in_dim,
        hidden=hidden,
        out_dim=out_dim,
        relu=rng.random() < 0.7,
        with_argmax=rng.random() < 0.3,
    )
    input_tensor = rand_tensor(random.Random(rng.getrandbits(32)), (1, in_dim))
    return graph, input_tensor


#: Graphs used by the size/complexity measurements; varied shapes on purpose.
def fixture_models() -> list[tuple[str, ml.CompGraph, ml.FixedTensor]]:
    out = []
    g1 = build_matmul_only(seed=11, r=2, n=3, p=2)
    out.append(("matmul-2x3x2", g1, rand_tensor(random.Random(100), (2, 3))))
    g2 = build_mlp(seed=12, in_dim=4, hidden=6, out_dim=3, relu=True)
    out.append(("mlp-4-6-3", g2, rand_tensor(random.Random(101), (1, 4))))
    g3 = build_mlp(seed=13, in_dim=3, hidden=5, out_dim=4, relu=True, with_argmax=True)
    out.append(("mlp-argmax-3-5-4", g3, rand_tensor(random.Random(102), (1, 3))))
    return out


def phase_rounds(chain) -> tuple[int, int]:
    """(phase-1, phase-2) rounds of the two-phase game last settled on
    `chain`, read from its verdict records. A game that reaches phase 2
    logs the inner game's verdict, with the phase-2 rounds, then its exit
    check, then its own verdict, whose rounds are those of both phases."""
    *_, inner, check, final = [{}, {}, *chain.transcript]
    phase2 = inner["rounds"] if check.get("check") == "exit" else 0
    return final["rounds"] - phase2, phase2
