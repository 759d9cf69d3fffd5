"""Seeded workloads for the opml benchmark, and the checks on their results.

Every workload is a schedule of `opml` commands built from one seed. The
schedule is made of passes; each pass is stratified (every model size,
fault node or (k, m) pair appears a fixed number of times), so that two
seeds give the same mix of cheap and expensive operations and differ only
in weights, inputs, fault positions and order. Operation `i` of a seed is
the same whatever the number of passes, so the expected result lines
committed for the default seed cover any run of that seed.

The claim reference below is an independent Q15.16 MLP written from the
semantics in docs/formats.md; it calls no `opml.ml` kernel.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from opml import ml

WORKLOADS = ("claim", "dispute-model", "dispute-synthetic")

#: Seconds one pass of each schedule took untraced on a 2-core x86-64 host
#: (CPython 3.11) when the benchmark was defined. A run executes
#: round(seconds / PASS_SECONDS) passes, so the operation count, and with it
#: the tail percentile, is the same on every commit.
PASS_SECONDS = {"claim": 4.3, "dispute-model": 1.9, "dispute-synthetic": 8.0}

SIDES = ("submitter", "challenger")
#: Weights and inputs are raw Q15.16 values in [-2.0, 2.0].
RAW_LIMIT = 2 << 16
OUT_DIM = 10

MODEL_COMBOS = [(1, 1), (1, 4), (3, 1), (3, 4)]
SYNTHETIC_COMBOS = [(k, m) for k in (1, 3, 7) for m in (1, 64, 1024, 4096)]
SYNTHETIC_MIN_N, SYNTHETIC_MAX_N = 2000, 12000


@dataclass
class Op:
    """One `opml` command plus what its result must be."""

    argv: list[str]
    macs: int = 0  # claim: the model's multiply-accumulates
    out: str | None = None  # claim: file the command writes the output tensor to
    want_tensor: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    winner: str | None = None  # disputes: the honest side
    pinned_node: int | None = None
    rounds: int | None = None


@dataclass
class Plan:
    files: dict[str, bytes] = field(default_factory=dict)
    warmup: Op | None = None
    ops: list[Op] = field(default_factory=list)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def build(workload: str, seed: int, passes: int) -> Plan:
    """Files (relative path -> bytes), one warm-up op and the measured ops."""
    make = {"claim": _claim, "dispute-model": _dispute_model,
               "dispute-synthetic": _dispute_synthetic}[workload]
    return make(random.Random(f"perfbench/{workload}/{seed}"), passes)


# ---------------------------------------------------------------------------
# Models and the independent reference
# ---------------------------------------------------------------------------


@dataclass
class Mlp:
    """in -> matmul -> bias -> relu -> matmul -> bias [-> argmax], raw Q15.16."""

    in_dim: int
    hidden: int
    w1: list[int]
    b1: list[int]
    w2: list[int]
    b2: list[int]
    argmax: bool

    @property
    def macs(self) -> int:
        return self.in_dim * self.hidden + self.hidden * OUT_DIM

    def computed_nodes(self) -> list[int]:
        return [2, 4, 5, 7, 9] + ([10] if self.argmax else [])

    def model_bytes(self) -> bytes:
        t = ml.FixedTensor
        nodes = [
            ml.GraphNode(0, "input", shape=(1, self.in_dim)),
            ml.GraphNode(1, "const", params=t((self.in_dim, self.hidden), tuple(self.w1))),
            ml.GraphNode(2, "matmul", (0, 1)),
            ml.GraphNode(3, "const", params=t((self.hidden,), tuple(self.b1))),
            ml.GraphNode(4, "bias_add", (2, 3)),
            ml.GraphNode(5, "relu", (4,)),
            ml.GraphNode(6, "const", params=t((self.hidden, OUT_DIM), tuple(self.w2))),
            ml.GraphNode(7, "matmul", (5, 6)),
            ml.GraphNode(8, "const", params=t((OUT_DIM,), tuple(self.b2))),
            ml.GraphNode(9, "bias_add", (7, 8)),
        ]
        if self.argmax:
            nodes.append(ml.GraphNode(10, "argmax", (9,)))
        return ml.save_model_bytes(ml.CompGraph(nodes, len(nodes) - 1))


def _raw(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(-RAW_LIMIT, RAW_LIMIT) for _ in range(n)]


def _mlp(rng: random.Random, in_dim: int, argmax: bool) -> Mlp:
    hidden = 2 * in_dim
    return Mlp(in_dim, hidden, _raw(rng, in_dim * hidden), _raw(rng, hidden),
               _raw(rng, hidden * OUT_DIM), _raw(rng, OUT_DIM), argmax)


def _wrap(value: int, bits: int) -> int:
    half = 1 << (bits - 1)
    return (value + half) % (1 << bits) - half


def _dense(x: list[int], w: list[int], b: list[int], width: int) -> list[int]:
    """Row vector times a row-major matrix (exact sum, wrap64, asr 16, wrap32), plus bias."""
    out = []
    for j in range(width):
        acc = sum(x[h] * w[h * width + j] for h in range(len(x)))
        out.append(_wrap(_wrap(_wrap(acc, 64) >> 16, 32) + b[j], 32))
    return out


def reference(model: Mlp, x: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(shape, raw data) of the model's output for input row `x`."""
    hidden = [v if v > 0 else 0 for v in _dense(x, model.w1, model.b1, model.hidden)]
    logits = _dense(hidden, model.w2, model.b2, OUT_DIM)
    if model.argmax:
        return (1,), (logits.index(max(logits)),)
    return (1, OUT_DIM), tuple(logits)


def tensor_bytes(shape: tuple[int, ...], data) -> bytes:
    return struct.pack(f"<I{len(shape)}I{len(data)}i", len(shape), *shape, *data)


def read_tensor(blob: bytes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    (rank,) = struct.unpack_from("<I", blob)
    shape = struct.unpack_from(f"<{rank}I", blob, 4)
    size = 1
    for d in shape:
        size *= d
    if len(blob) != 4 + 4 * rank + 4 * size:
        raise ValueError("tensor file has the wrong length")
    return tuple(shape), struct.unpack_from(f"<{size}i", blob, 4 + 4 * rank)


def log_ceil(q: int, base: int) -> int:
    """Smallest r with base**r >= q."""
    r = 0
    while base ** r < q:
        r += 1
    return r


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


def _claim(rng: random.Random, passes: int) -> Plan:
    """`opml run` on a fresh in-(2 in)-10 MLP per op; each pass has in = 16, 32, 32, 64.

    Two 32-wide claims per pass put the median inside the 32-wide group with
    twice the samples; the 64-wide claims hold most of the run time.
    """
    plan = Plan()

    def add(name: str, in_dim: int, argmax: bool) -> Op:
        model = _mlp(rng, in_dim, argmax)
        x = _raw(rng, in_dim)
        plan.files[f"{name}.opml"] = model.model_bytes()
        plan.files[f"{name}.tensor"] = tensor_bytes((1, in_dim), x)
        return Op(["run", "--model", f"{name}.opml", "--input", f"{name}.tensor",
                   "--out", f"{name}.out"],
                  macs=model.macs, out=f"{name}.out", want_tensor=reference(model, x))

    plan.warmup = add("warmup", 16, False)
    for _ in range(passes):
        sizes = [16, 32, 32, 64]
        rng.shuffle(sizes)
        for in_dim in sizes:
            plan.ops.append(add(f"c{len(plan.ops):04d}", in_dim, rng.random() < 0.5))
    return plan


def _dispute_model(rng: random.Random, passes: int) -> Plan:
    """Two-phase disputes on a 16-32-10 MLP ending in argmax and a 32-64-10 MLP
    ending in logits.

    Each pass faults every computed node of both models once, in a seeded
    order. The 11 nodes are an odd count, so the median op falls inside one
    node's group (the 64-wide ReLU) rather than on the gap between the cheap
    and the expensive half. Pair j of pass p plays (k, m) =
    MODEL_COMBOS[(p + j) % 4], and the faulty side alternates from op to op.
    """
    plan = Plan()
    models = {}
    for in_dim in (16, 32):
        models[in_dim] = _mlp(rng, in_dim, argmax=in_dim == 16)
        plan.files[f"m{in_dim}.opml"] = models[in_dim].model_bytes()
        plan.files[f"m{in_dim}.tensor"] = tensor_bytes((1, in_dim), _raw(rng, in_dim))

    def add(name: str, in_dim: int, node: int, k: int, m: int, faulty: str) -> Op:
        scenario = (f"protocol=two-phase\nmodel=m{in_dim}.opml\ninput=m{in_dim}.tensor\n"
                    f"k={k}\nm={m}\nfault.node={node}\nfaulty={faulty}\n"
                    f"seed={rng.getrandbits(32)}\n")
        plan.files[f"{name}.cfg"] = scenario.encode()
        return Op(["dispute", "--config", f"{name}.cfg"], winner=_other(faulty),
                  pinned_node=node)

    plan.warmup = add("warmup", 16, 9, 1, 1, "submitter")
    pairs = [(d, node) for d in (16, 32) for node in models[d].computed_nodes()]
    for p in range(passes):
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for j in order:
            in_dim, node = pairs[j]
            k, m = MODEL_COMBOS[(p + j) % len(MODEL_COMBOS)]
            faulty = SIDES[len(plan.ops) % 2]
            plan.ops.append(add(f"d{len(plan.ops):04d}", in_dim, node, k, m, faulty))
    return plan


def _dispute_synthetic(rng: random.Random, passes: int) -> Plan:
    """Single-phase fault games on straight-line synthetic programs.

    Each pass plays every (k, m) pair once, in a seeded order. Their lengths
    N come one from each of twelve equal strata of [2000, 12000]: pair j of
    pass p draws from stratum (j + 5 p) mod 12, so which pairs get the long
    programs is fixed by the design rather than by the seed.
    """
    plan = Plan()
    span = SYNTHETIC_MAX_N - SYNTHETIC_MIN_N
    n_strata = len(SYNTHETIC_COMBOS)

    def add(name: str, n: int, k: int, m: int, faulty: str) -> Op:
        scenario = (f"synthetic.n={n}\nstrategy=fault\nk={k}\nm={m}\n"
                    f"faulty={faulty}\nseed={rng.getrandbits(32)}\n")
        plan.files[f"{name}.cfg"] = scenario.encode()
        return Op(["dispute", "--config", f"{name}.cfg"], winner=_other(faulty),
                  rounds=log_ceil(-(-n // m), k + 1))

    plan.warmup = add("warmup", SYNTHETIC_MIN_N, 1, 1, "submitter")
    for p in range(passes):
        order = list(range(n_strata))
        rng.shuffle(order)
        for j in order:
            k, m = SYNTHETIC_COMBOS[j]
            stratum = (j + 5 * p) % n_strata
            n = SYNTHETIC_MIN_N + int((stratum + rng.random()) * span / n_strata)
            faulty = SIDES[len(plan.ops) % 2]
            plan.ops.append(add(f"s{len(plan.ops):04d}", n, k, m, faulty))
    return plan


def _other(side: str) -> str:
    return SIDES[1 - SIDES.index(side)]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def verdict_fields(stdout: str) -> dict[str, str]:
    """Fields of a dispute's `winner=... rounds=...` line."""
    return dict(item.split("=", 1) for item in stdout.split())


def check(op: Op, code: int, stdout: str, out_bytes: bytes | None,
          expected_lines: list[str] | None) -> str | None:
    """None when the result is right, else why it is wrong."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if expected_lines is not None and lines != expected_lines:
        return f"output {lines} differs from the committed {expected_lines}"
    if op.want_tensor is not None:
        if "hash=sha256" not in lines:
            return "claim does not name the sha256 scheme"
        if out_bytes is None:
            return "no output tensor written"
        try:
            got = read_tensor(out_bytes)
        except (ValueError, struct.error) as exc:
            return f"unreadable output tensor: {exc}"
        if got != op.want_tensor:
            return "output tensor differs from the Q15.16 reference"
        return None
    try:
        verdict = verdict_fields(stdout)
    except ValueError:
        return f"unparseable verdict {stdout!r}"
    if verdict.get("winner") != op.winner:
        return f"honest side {op.winner} lost: {stdout.strip()}"
    if op.pinned_node is not None and verdict.get("pinned_node") != str(op.pinned_node):
        return f"pinned node {verdict.get('pinned_node')} is not the faulted node {op.pinned_node}"
    if op.rounds is not None and verdict.get("rounds") != str(op.rounds):
        return f"{verdict.get('rounds')} rounds, expected ceil(log_(k+1)(ceil(N/m))) = {op.rounds}"
    return None
