"""Deterministic fixed-point inference engine.

All tensors are Q15.16: signed 32-bit raw values scaled by 2**16. The
scale is a constant of the format, not of a tensor: a tensor holds only its
shape and raw values, and a model header must name frac=16. Matrix
products accumulate exactly in 64-bit integers and apply a single arithmetic
right shift at the end; everything wraps two's-complement at 32 bits. There
is no floating point anywhere past quantization, which is what makes two
independent executions (and the VM-lowered path) bit-identical.

A model is a topologically ordered computation graph. Executing it node by
node yields a sequence of graph states; each state commits to the input, the
model and every node output produced so far, which is the sequence a
coarse-grained dispute game bisects over.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from . import fpvm, merkle
from .hashing import GRAPH_STATE_PREFIX, HashScheme
from .wire import ParseError, Reader

FRAC = 16
SCALE = 1 << FRAC
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

#: The ops a node computes, as opposed to the graph inputs and constants it
#: is given: only these lower to VM code and can be faulted or disputed.
COMPUTED_OPS = ("matmul", "bias_add", "relu", "argmax")
OPS = ("input", "const") + COMPUTED_OPS

#: Largest matmul inner dimension: past it, the VM kernel's low-part sum
#: overflows and the VM and native outputs differ (see `lowering`).
MAX_INNER_DIM = 2**15


class QuantizationRangeError(ValueError):
    """Value outside the representable Q15.16 range; never silently wrapped."""


class ShapeError(ValueError):
    pass


#: What the model and tensor parsers raise; the same class as `wire.ParseError`.
ModelParseError = ParseError


def wrap32s(v: int) -> int:
    """Two's-complement wrap to signed 32-bit."""
    return (v + (1 << 31)) % (1 << 32) - (1 << 31)


def wrap64s(v: int) -> int:
    return (v + (1 << 63)) % (1 << 64) - (1 << 63)


@dataclass(frozen=True)
class FixedTensor:
    shape: tuple[int, ...]
    data: tuple[int, ...]

    def __post_init__(self):
        size = 1
        for d in self.shape:
            if d <= 0:
                raise ShapeError(f"bad dimension {d}")
            size *= d
        if len(self.data) != size:
            raise ShapeError(f"{len(self.data)} values for shape {self.shape}")
        for v in self.data:
            if not INT32_MIN <= v <= INT32_MAX:
                raise QuantizationRangeError(f"raw value {v} outside int32")


def _flatten(values) -> tuple[tuple[int, ...], list]:
    if not isinstance(values, (list, tuple)):
        return (), [values]
    if not values:
        raise ShapeError("empty tensor")
    shape0, flat = _flatten(values[0])
    out = list(flat)
    for v in values[1:]:
        s, f = _flatten(v)
        if s != shape0:
            raise ShapeError("ragged nesting")
        out += f
    return (len(values),) + shape0, out


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def quantize(values) -> FixedTensor:
    """Reals to Q15.16, rounding half away from zero.

    Raises on any value at or beyond 2**15 in magnitude rather than
    wrapping: quantization is the one boundary where wrapping would silently
    change the model.
    """
    shape, flat = _flatten(values)
    if shape == ():
        shape = (1,)
    limit = 1 << (31 - FRAC)
    raw = []
    for v in flat:
        if not -limit < v < limit:
            raise QuantizationRangeError(f"{v} outside (-{limit}, {limit})")
        r = _round_half_away(v * SCALE)
        if not INT32_MIN <= r <= INT32_MAX:
            raise QuantizationRangeError(f"{v} rounds outside int32")
        raw.append(r)
    return FixedTensor(shape, tuple(raw))


def dequantize(t: FixedTensor) -> list[float]:
    return [v / SCALE for v in t.data]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def matmul_fx(a: FixedTensor, b: FixedTensor) -> FixedTensor:
    """C[i,j] = wrap32((sum_h A[i,h]*B[h,j]) asr 16), exact 64-bit accumulation."""
    if len(a.shape) != 2 or len(b.shape) != 2:
        raise ShapeError("matmul needs rank-2 tensors")
    r, n = a.shape
    n2, p = b.shape
    if n != n2:
        raise ShapeError(f"inner dims differ: {n} vs {n2}")
    out = []
    for i in range(r):
        row = a.data[i * n : (i + 1) * n]
        for j in range(p):
            acc = 0
            for h in range(n):
                acc += row[h] * b.data[h * p + j]
            out.append(wrap32s(wrap64s(acc) >> FRAC))
    return FixedTensor((r, p), tuple(out))


def bias_add_fx(x: FixedTensor, bias: FixedTensor) -> FixedTensor:
    """Broadcast bias over the last dimension; wrapping add."""
    if len(bias.shape) != 1 or not x.shape or x.shape[-1] != bias.shape[0]:
        raise ShapeError(f"bias {bias.shape} does not broadcast over {x.shape}")
    width = bias.shape[0]
    out = tuple(
        wrap32s(v + bias.data[i % width]) for i, v in enumerate(x.data)
    )
    return FixedTensor(x.shape, out)


def relu_fx(x: FixedTensor) -> FixedTensor:
    return FixedTensor(x.shape, tuple(v if v > 0 else 0 for v in x.data))


def argmax(x: FixedTensor) -> int:
    """Flat index of the maximum; ties break to the lowest index."""
    best, best_i = x.data[0], 0
    for i, v in enumerate(x.data):
        if v > best:
            best, best_i = v, i
    return best_i


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_tensor(t: FixedTensor) -> bytes:
    """u32 rank, u32 dims..., raw i32 data, all little-endian."""
    out = struct.pack("<I", len(t.shape))
    out += struct.pack(f"<{len(t.shape)}I", *t.shape)
    out += struct.pack(f"<{len(t.data)}i", *t.data)
    return out


def deserialize_tensor(data: bytes) -> FixedTensor:
    """The tensor `data` holds, with no byte after it."""
    r = Reader(data)
    tensor = _read_tensor(r)
    r.end("tensor")
    return tensor


def _read_tensor(r: Reader) -> FixedTensor:
    rank = r.u32("tensor rank")
    if rank > 8:
        raise ParseError(r.offset - 4, f"unreasonable rank {rank}")
    shape = r.u32s(rank, "tensor dims")
    return FixedTensor(shape, r.i32s(math.prod(shape), "tensor data"))


def tensor_blob(t: FixedTensor) -> bytes:
    """Preimage-oracle value: u32 total payload length, then the payload."""
    payload = serialize_tensor(t)
    return struct.pack("<I", len(payload)) + payload


def tensor_key(t: FixedTensor, scheme: HashScheme) -> bytes:
    """Preimage key (content hash of the length-prefixed serialization)."""
    return scheme.digest(tensor_blob(t))


def tensor_region_root(t: FixedTensor, scheme: HashScheme) -> bytes:
    """Commitment to the tensor as a memory-region image: what a VM's output
    region holding exactly this tensor hashes to, so a node-output commitment
    and the VM output subtree root are directly comparable."""
    return merkle.region_root(serialize_tensor(t), fpvm.OUTPUT_LEVEL, scheme)


# ---------------------------------------------------------------------------
# Computation graph
# ---------------------------------------------------------------------------


@dataclass
class GraphNode:
    id: int
    op: str
    input_ids: tuple[int, ...] = ()
    params: FixedTensor | None = None  # const payload
    shape: tuple[int, ...] | None = None  # declared shape for input nodes

    _ARITY = {"input": 0, "const": 0, "matmul": 2, "bias_add": 2, "relu": 1, "argmax": 1}

    def validate(self):
        if self.op not in OPS:
            raise ShapeError(f"unknown op {self.op!r}")
        if len(self.input_ids) != self._ARITY[self.op]:
            raise ShapeError(f"{self.op} takes {self._ARITY[self.op]} inputs")
        if self.op == "const" and self.params is None:
            raise ShapeError("const node without payload")
        if self.op == "input" and self.shape is None:
            raise ShapeError("input node without declared shape")


@dataclass
class CompGraph:
    """A graph both engines can run: building one checks its nodes, that its
    shapes fit node by node and that its output node computes something."""

    nodes: list[GraphNode]
    output_id: int

    def __post_init__(self):
        self.validate()

    def validate(self):
        for pos, node in enumerate(self.nodes):
            if node.id != pos:
                raise ShapeError("node ids must equal topological positions")
            node.validate()
            for dep in node.input_ids:
                if not 0 <= dep < pos:
                    raise ShapeError(f"node {pos} depends on non-preceding {dep}")
        if not 0 <= self.output_id < len(self.nodes):
            raise ShapeError("bad output node")
        if len(self.input_ids) != 1:
            raise ShapeError("exactly one input node is supported")
        self.infer_shapes()
        if self.nodes[self.output_id].op not in COMPUTED_OPS:
            raise ShapeError("output node must be a computed node")

    @property
    def input_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.op == "input"]

    def infer_shapes(self) -> list[tuple[int, ...]]:
        """Static output shape per node; raises ShapeError on mismatch."""
        shapes: list[tuple[int, ...]] = []
        for node in self.nodes:
            if node.op == "input":
                shapes.append(node.shape)
            elif node.op == "const":
                shapes.append(node.params.shape)
            else:
                shapes.append(op_shape(node.op, [shapes[i] for i in node.input_ids]))
        return shapes

    def model_digest(self, scheme: HashScheme) -> bytes:
        return scheme.digest(save_model_bytes(self))


def op_shape(op: str, operand_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Output shape of a computed op; raises ShapeError on mismatch."""
    if op == "matmul":
        a, b = operand_shapes
        if len(a) != 2 or len(b) != 2 or a[1] != b[0]:
            raise ShapeError(f"matmul {a} x {b}")
        if a[1] > MAX_INNER_DIM:
            raise ShapeError(f"matmul {a} x {b}: inner dimension over {MAX_INNER_DIM}")
        return (a[0], b[1])
    if op == "bias_add":
        x, b = operand_shapes
        if len(b) != 1 or not x or x[-1] != b[0]:
            raise ShapeError(f"bias_add {x} + {b}")
        return x
    if op == "relu":
        return operand_shapes[0]
    return (1,)  # argmax; `GraphNode.validate` and `node_program` reject any other op


_OP_CODES = {op: i for i, op in enumerate(OPS)}
_OP_NAMES = {i: op for op, i in _OP_CODES.items()}

MODEL_MAGIC = b"OPML"
MODEL_VERSION = 1


def save_model_bytes(graph: CompGraph) -> bytes:
    out = bytearray(MODEL_MAGIC)
    out += struct.pack("<HH", MODEL_VERSION, FRAC)
    out += struct.pack("<II", len(graph.nodes), graph.output_id)
    consts: list[FixedTensor] = []
    for node in graph.nodes:
        out += struct.pack("<BB", _OP_CODES[node.op], len(node.input_ids))
        for dep in node.input_ids:
            out += struct.pack("<I", dep)
        if node.op == "input":
            out += struct.pack("<I", len(node.shape))
            out += struct.pack(f"<{len(node.shape)}I", *node.shape)
        elif node.op == "const":
            out += struct.pack("<I", len(consts))
            consts.append(node.params)
    out += struct.pack("<I", len(consts))
    for tensor in consts:
        out += serialize_tensor(tensor)
    return bytes(out)


def load_model_bytes(data: bytes) -> CompGraph:
    r = Reader(data)
    if r.take(4, "header") != MODEL_MAGIC:
        raise ParseError(0, "bad magic")
    version, frac = struct.unpack("<HH", r.take(4, "header"))
    if version != MODEL_VERSION:
        raise ParseError(4, f"unsupported version {version}")
    if frac != FRAC:
        raise ParseError(6, f"unsupported frac {frac}")
    n_nodes, output_id = r.u32s(2, "header")
    records = []
    for node_id in range(n_nodes):
        op_code = r.u8("node record")
        if op_code not in _OP_NAMES:
            raise ParseError(r.offset - 1, f"unknown op code {op_code}")
        op = _OP_NAMES[op_code]
        input_ids = r.u32s(r.u8("node record"), "input ids")
        shape = r.u32s(r.u32("input shape"), "input dims") if op == "input" else None
        const_index = r.u32("const index") if op == "const" else None
        records.append((node_id, op, input_ids, shape, const_index, r.offset - 4))
    consts = [_read_tensor(r) for _ in range(r.u32("const count"))]
    r.end("model")
    nodes = []
    for node_id, op, input_ids, shape, const_index, const_at in records:
        params = None
        if const_index is not None:
            if const_index >= len(consts):
                raise ParseError(const_at, f"const index {const_index} out of range")
            params = consts[const_index]
        nodes.append(GraphNode(node_id, op, input_ids, params=params, shape=shape))
    return CompGraph(nodes, output_id)


def save_model(graph: CompGraph, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(save_model_bytes(graph))


def load_model(path: str) -> CompGraph:
    with open(path, "rb") as fh:
        return load_model_bytes(fh.read())


# ---------------------------------------------------------------------------
# Execution with per-node state commitments
# ---------------------------------------------------------------------------

_EMPTY_ENTRY = (b"\x00" * 32, b"\x00" * 32)


@dataclass(frozen=True)
class GraphState:
    """Inference state: the input, the model and the node outputs computed
    so far. It is the full preimage of its commitment, so opening a state
    means handing over the state itself.

    `entries[j]` is (preimage key, region root) of node j's serialized
    output, or zero pairs while uncomputed. The commitment hashes the full
    entry vector plus the model digest and input key, so it moves exactly
    when some node output byte moves.
    """

    model_digest: bytes
    input_key: bytes
    entries: tuple[tuple[bytes, bytes], ...]

    def commitment(self, scheme: HashScheme) -> bytes:
        acc = bytearray(GRAPH_STATE_PREFIX)
        acc += struct.pack("<I", len(self.entries))
        acc += self.model_digest
        acc += self.input_key
        for key, oroot in self.entries:
            acc += key
            acc += oroot
        return scheme.digest(bytes(acc))

    def advance(self, node_id: int, out: FixedTensor, scheme: HashScheme) -> GraphState:
        """The state after node `node_id` computed `out`."""
        return self.with_entry(node_id, (tensor_key(out, scheme), tensor_region_root(out, scheme)))

    def with_entry(self, node_id: int, entry: tuple[bytes, bytes]) -> GraphState:
        """The state with node `node_id`'s (key, region root) entry set."""
        entries = list(self.entries)
        entries[node_id] = entry
        return GraphState(self.model_digest, self.input_key, tuple(entries))


@dataclass(frozen=True)
class GraphFault:
    """Deterministic corruption of one node's output (bit flip in one
    element); downstream nodes recompute from the corrupted value."""

    node_id: int
    element: int
    bit: int = 0

    def apply(self, t: FixedTensor) -> FixedTensor:
        data = list(t.data)
        idx = self.element % len(data)
        data[idx] = wrap32s((data[idx] & 0xFFFFFFFF) ^ (1 << (self.bit % 32)))
        return FixedTensor(t.shape, tuple(data))


@dataclass
class GraphRun:
    """One party's full execution record: outputs, states, the commitments
    hashed under `scheme`, and the fault it ran under (None for an honest
    run). `run_graph` builds the honest run and `fork` a faulted one from
    it, under the honest run's scheme.

    As a root sequence, its last index is the node count and roots past it
    are the final commitment (the fixpoint)."""

    graph: CompGraph
    outputs: list[FixedTensor]
    states: list[GraphState]
    commitments: list[bytes]
    scheme: HashScheme
    fault: GraphFault | None = None

    @property
    def output(self) -> FixedTensor:
        return self.outputs[self.graph.output_id]

    def __len__(self) -> int:
        return len(self.states) - 1

    def state_at(self, index: int) -> GraphState:
        return self.states[min(index, len(self.states) - 1)]

    def root_at(self, index: int) -> bytes:
        return self.commitments[min(index, len(self.commitments) - 1)]

    def fork(self, fault: GraphFault) -> GraphRun:
        """This honest run with `fault` applied to its node's output, at any
        node, input and const included; downstream nodes compute from the
        corrupted value. The outputs, states and commitments before that
        node are this run's own. A later node whose operands are all the
        honest outputs, or whose output comes out equal to the honest one (a
        ReLU masking the flip), keeps the honest output and its (key, region
        root) entry without hashing it again."""
        if self.fault is not None:
            raise ValueError("only an honest run forks")
        start, honest = fault.node_id, self.outputs
        if not 0 <= start < len(honest):
            raise ValueError(f"fault node {start} outside the graph's nodes 0..{len(honest) - 1}")
        outputs = honest[:start]
        states = self.states[: start + 1]
        for node in self.graph.nodes[start:]:
            out = kept = honest[node.id]
            if node.id == start:
                out = fault.apply(kept)
            elif any(outputs[i] is not honest[i] for i in node.input_ids):
                out = _apply_op(node, [outputs[i] for i in node.input_ids])
                out = kept if out == kept else out
            if out is kept:
                entry = self.states[node.id + 1].entries[node.id]
                states.append(states[-1].with_entry(node.id, entry))
            else:
                states.append(states[-1].advance(node.id, out, self.scheme))
            outputs.append(out)
        commitments = self.commitments[: start + 1]
        commitments += [state.commitment(self.scheme) for state in states[start + 1 :]]
        return GraphRun(self.graph, outputs, states, commitments, self.scheme, fault)


def _apply_op(node: GraphNode, operands: list[FixedTensor]) -> FixedTensor:
    """The output of a computed node on its operands."""
    if node.op == "matmul":
        return matmul_fx(*operands)
    if node.op == "bias_add":
        return bias_add_fx(*operands)
    if node.op == "relu":
        return relu_fx(*operands)
    return FixedTensor((1,), (argmax(operands[0]),))  # argmax, the last computed op


def _node_outputs(graph: CompGraph, input_tensor: FixedTensor,
                  compute=_apply_op) -> list[FixedTensor]:
    """Every node's output, in node order; `compute(node, operands)` gives
    a computed node's (`_apply_op` natively, a VM run in `lowering`)."""
    outputs: list[FixedTensor] = []
    for node in graph.nodes:
        if node.op == "input":
            if input_tensor.shape != tuple(node.shape):
                raise ShapeError(f"input {input_tensor.shape} != declared {tuple(node.shape)}")
            outputs.append(input_tensor)
        elif node.op == "const":
            outputs.append(node.params)
        else:
            outputs.append(compute(node, [outputs[i] for i in node.input_ids]))
    return outputs


def execute_native(graph: CompGraph, input_tensor: FixedTensor) -> tuple[FixedTensor, list[FixedTensor]]:
    """Fast path: the graph output and every node's output, hashing nothing.
    `run_graph` adds the per-node commitments."""
    outputs = _node_outputs(graph, input_tensor)
    return outputs[graph.output_id], outputs


def run_graph(graph: CompGraph, input_tensor: FixedTensor, *, scheme: HashScheme) -> GraphRun:
    """The honest node-by-node execution: its n+1 graph states and their
    commitments under `scheme`. A faulted run is `fork`ed from it."""
    outputs = _node_outputs(graph, input_tensor)
    states = [GraphState(graph.model_digest(scheme), tensor_key(input_tensor, scheme),
                         (_EMPTY_ENTRY,) * len(graph.nodes))]
    for node, out in zip(graph.nodes, outputs):
        states.append(states[-1].advance(node.id, out, scheme))
    return GraphRun(graph, outputs, states, [s.commitment(scheme) for s in states], scheme)
