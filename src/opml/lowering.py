"""Compiling graph nodes into MiniVM programs.

Two targets share the same unrolled kernels:

* per-node programs (`node_program`): operands arrive as preimage keys in
  the input region, get pulled chunk-by-chunk through the oracle (lazy
  loading), and the serialized result lands in the output region. The
  program depends on the op and operand shapes alone and is built once per
  pair; `lower_node` pairs it with a node's operand blobs, and
  `node_initial_state` keys each blob by putting it into the oracle. This
  is the program a phase-2 dispute runs over.
* a whole-graph program (`lower_graph`): input and constants sit in their
  memory regions, intermediates live on the heap, and the final output is
  serialized to the output region. This is the single-phase target.

The matmul kernel cannot keep a 64-bit accumulator in 32-bit registers, so
it accumulates the high part (MULFX, products shifted by 16) and the low
16-bit remainders (MUL + AND) separately and recombines at the end:

    (sum prod) asr 16  ==  sum(prod asr 16) + (sum(prod & 0xFFFF) asr 16)

holds exactly because the remainders are non-negative and their sum stays
below 2**31 for inner dimensions under 2**15. Modulo 2**32 the recombined
value equals the native engine's wrapped 64-bit result, so both paths stay
bit-identical.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

from . import fpvm, merkle, ml
from .fpvm import INPUT_BASE, MODEL_BASE, HEAP_BASE, ORACLE_KEY_BASE, ORACLE_VALUE_BASE, OUTPUT_BASE, encode
from .hashing import HashScheme


class LoweringError(ValueError):
    pass


# Registers: r1, r2 operand scratch, r3 main/high accumulator, r4 low
# accumulator or argmax index, r5 product scratch, r7 preimage dest,
# r13 constant 0xFFFF.
_MASK_REG = 13


def _li(words: list[int], rd: int, value: int) -> None:
    words.append(encode("LI", rd=rd))
    words.append(value & 0xFFFFFFFF)


def _store(words: list[int], stores: list[tuple[int, int]], addr: int, rt: int, rs: int) -> None:
    """Store register rt to `addr` through rs, and record (pc of the SW, addr)."""
    _li(words, rs, addr)
    stores.append((4 * len(words), addr))
    words.append(encode("SW", rt=rt, rs=rs, imm=0))


def _emit_matmul(words, stores, a_base, b_base, dst_base, r, n, p):
    for i in range(r):
        for j in range(p):
            words.append(encode("ADD", rd=3, rs=0, rt=0))
            words.append(encode("ADD", rd=4, rs=0, rt=0))
            for h in range(n):
                _li(words, 1, a_base + 4 * (i * n + h))
                words.append(encode("LW", rd=1, rs=1, imm=0))
                _li(words, 2, b_base + 4 * (h * p + j))
                words.append(encode("LW", rd=2, rs=2, imm=0))
                words.append(encode("MULFX", rd=5, rs=1, rt=2))
                words.append(encode("ADD", rd=3, rs=3, rt=5))
                words.append(encode("MUL", rd=5, rs=1, rt=2))
                words.append(encode("AND", rd=5, rs=5, rt=_MASK_REG))
                words.append(encode("ADD", rd=4, rs=4, rt=5))
            words.append(encode("SRA", rd=4, rs=4, imm=16))
            words.append(encode("ADD", rd=3, rs=3, rt=4))
            _store(words, stores, dst_base + 4 * (i * p + j), 3, 1)


def _emit_bias_add(words, stores, x_base, b_base, dst_base, count, width):
    for e in range(count):
        _li(words, 1, x_base + 4 * e)
        words.append(encode("LW", rd=1, rs=1, imm=0))
        _li(words, 2, b_base + 4 * (e % width))
        words.append(encode("LW", rd=2, rs=2, imm=0))
        words.append(encode("ADD", rd=3, rs=1, rt=2))
        _store(words, stores, dst_base + 4 * e, 3, 2)


def _emit_relu(words, stores, x_base, dst_base, count):
    for e in range(count):
        _li(words, 1, x_base + 4 * e)
        words.append(encode("LW", rd=2, rs=1, imm=0))
        words.append(encode("ADD", rd=3, rs=0, rt=0))
        words.append(encode("BLT", rs=2, rt=0, imm=1))  # negative: keep zero
        words.append(encode("ADD", rd=3, rs=2, rt=0))
        _store(words, stores, dst_base + 4 * e, 3, 1)


def _emit_argmax(words, stores, x_base, count, dst_base):
    _li(words, 1, x_base)
    words.append(encode("LW", rd=3, rs=1, imm=0))  # best value
    words.append(encode("ADD", rd=4, rs=0, rt=0))  # best index
    for e in range(1, count):
        _li(words, 1, x_base + 4 * e)
        words.append(encode("LW", rd=1, rs=1, imm=0))
        words.append(encode("BLT", rs=3, rt=1, imm=1))  # strictly greater wins
        words.append(encode("BEQ", rs=0, rt=0, imm=3))
        words.append(encode("ADD", rd=3, rs=1, rt=0))
        _li(words, 4, e)
    _store(words, stores, dst_base, 4, 1)


def _emit_header(words, region_base, shape):
    _li(words, 1, region_base)
    _li(words, 2, len(shape))
    words.append(encode("SW", rt=2, rs=1, imm=0))
    for d, dim in enumerate(shape):
        _li(words, 2, dim)
        words.append(encode("SW", rt=2, rs=1, imm=4 * (1 + d)))


def _payload_offset(rank: int) -> int:
    """Offset of raw data inside a serialized tensor (rank word + dims)."""
    return 4 + 4 * rank


def kernel_words(op: str, operand_shapes) -> int:
    """Words `_emit_kernel` emits for `op` on operands of these shapes."""
    count = math.prod(operand_shapes[0])
    if op == "matmul":
        (r, n), (_, p) = operand_shapes
        return r * p * (11 * n + 7)
    return {"bias_add": 10 * count, "relu": 9 * count, "argmax": 8 * count - 1}.get(op, 0)


def _emit_kernel(words, op, operand_bases, operand_shapes, dst_base) -> list[tuple[int, int]]:
    """Emit one node's kernel; returns (pc of the SW, address) of each
    output element's store, in element order. Raises merkle.RangeError
    before emitting anything when the program would outgrow its region."""
    if len(words) + kernel_words(op, operand_shapes) > fpvm.PROGRAM_WORDS:
        raise merkle.RangeError(f"program exceeds the {fpvm.PROGRAM_WORDS}-word program region")
    stores: list[tuple[int, int]] = []
    x, count = operand_bases[0], math.prod(operand_shapes[0])
    if op == "matmul":
        (r, n), (_, p) = operand_shapes
        _emit_matmul(words, stores, x, operand_bases[1], dst_base, r, n, p)
    elif op == "bias_add":
        _emit_bias_add(words, stores, x, operand_bases[1], dst_base, count, operand_shapes[1][0])
    elif op == "relu":
        _emit_relu(words, stores, x, dst_base, count)
    elif op == "argmax":
        _emit_argmax(words, stores, x, count, dst_base)
    return stores


def store_fault(
    trace: fpvm.Trace, stores: list[tuple[int, int]], element: int, bit: int
) -> fpvm.StepFault:
    """Fault that flips bit `bit % 32` of output element `element % len(stores)`
    right after the SW that stores it."""
    pc, addr = stores[element % len(stores)]
    return fpvm.StepFault(step=fpvm.find_store_step(trace, pc), leaf_index=addr // 32,
                          bit=(addr % 32) * 8 + bit % 32)


# Bounded: a program may take up to 32 MiB, and a long-lived process should
# not keep every one it has lowered. 16 entries hold all 11 computed nodes
# (10 distinct keys) of the two models the benchmark's two-phase games fault.
@functools.lru_cache(maxsize=16)
def node_program(
    op: str, operand_shapes: tuple[tuple[int, ...], ...]
) -> tuple[bytes, tuple[tuple[int, int], ...]]:
    """Compile a node of this op and operand shapes into a MiniVM program;
    returns the program and (pc of the SW, address) per output element.

    The program expects the operand keys in the input region, fetches the
    operand payloads through the preimage oracle, and writes the serialized
    result tensor into the output region. Operand values never enter it, so
    it is memoised on exactly its arguments, and its result is immutable.
    """
    if op not in ml.COMPUTED_OPS:
        raise LoweringError(f"op {op!r} has no lowering")
    out_shape = ml.op_shape(op, operand_shapes)

    words: list[int] = []
    _li(words, _MASK_REG, 0xFFFF)

    payload_bases, slot = [], 0
    for oi, shape in enumerate(operand_shapes):
        # Copy the operand's 32-byte key from the input region into the
        # oracle-key field, then pull its blob (`ml.tensor_blob`: u32 length,
        # rank, dims, payload) chunk by chunk into its oracle-value slot.
        _li(words, 1, INPUT_BASE + 32 * oi)
        _li(words, 2, ORACLE_KEY_BASE)
        for w in range(8):
            words.append(encode("LW", rd=3, rs=1, imm=4 * w))
            words.append(encode("SW", rt=3, rs=2, imm=4 * w))
        head = 4 + _payload_offset(len(shape))
        n_chunks = -(-(head + 4 * math.prod(shape)) // 32)
        for ci in range(n_chunks):
            _li(words, 4, ci)
            _li(words, 7, slot // 32 + ci)
            words.append(encode("PREIMAGE", rd=7, rs=4))
        payload_bases.append(ORACLE_VALUE_BASE + slot + head)
        slot += 32 * n_chunks

    dst_base = OUTPUT_BASE + _payload_offset(len(out_shape))
    stores = _emit_kernel(words, op, payload_bases, operand_shapes, dst_base)
    _emit_header(words, OUTPUT_BASE, out_shape)
    words.append(encode("HALT"))
    return fpvm.assemble(words), tuple(stores)


@dataclass
class LoweredNode:
    """A single node compiled for lazy-loading execution: its program and
    its operands' oracle values (`ml.tensor_blob`), in operand order."""

    program: bytes
    operand_blobs: list[bytes]
    stores: tuple[tuple[int, int], ...]  # (pc of the SW, address) per output element

    def program_root(self, scheme: HashScheme) -> bytes:
        return merkle.region_root(self.program, fpvm.PROGRAM_LEVEL, scheme)


def lower_node(node: ml.GraphNode, operands: list[ml.FixedTensor]) -> LoweredNode:
    """Bind one graph node's operand values to its program (`node_program`);
    nothing is hashed until `node_initial_state` keys them."""
    program, stores = node_program(node.op, tuple(t.shape for t in operands))
    return LoweredNode(program, [ml.tensor_blob(t) for t in operands], stores)


def node_initial_state(lowered: LoweredNode, oracle: fpvm.PreimageOracle) -> fpvm.VmState:
    """Fresh VM image for a lowered node under the oracle's hash scheme: each
    operand blob goes into the oracle, the key `put` returns for it into the
    input region, and the program into its region; the rest is zero."""
    keys = b"".join(oracle.put(blob) for blob in lowered.operand_blobs)
    return fpvm.load_program(lowered.program, keys, scheme=oracle.scheme)


def run_lowered_node(lowered: LoweredNode, oracle: fpvm.PreimageOracle) -> ml.FixedTensor:
    """Run a lowered node, its operands put into `oracle`; returns its output."""
    final, _ = fpvm.run(node_initial_state(lowered, oracle), oracle)
    if final.exit_code != 0:
        raise LoweringError(f"node program trapped with code {final.exit_code}")
    return read_output_tensor(final)


def read_output_tensor(state: fpvm.VmState) -> ml.FixedTensor:
    header = fpvm.read_bytes(state.memory, OUTPUT_BASE, 4)
    rank = int.from_bytes(header, "little")
    dims = struct.unpack(f"<{rank}I", fpvm.read_bytes(state.memory, OUTPUT_BASE + 4, 4 * rank))
    size = _payload_offset(rank) + 4 * math.prod(dims)
    tensor, _ = ml.deserialize_tensor(fpvm.read_bytes(state.memory, OUTPUT_BASE, size))
    return tensor


def execute_via_vm(
    graph: ml.CompGraph, input_tensor: ml.FixedTensor, scheme: HashScheme
) -> ml.FixedTensor:
    """Prove-path execution: every compute node runs as its own VM program.

    Bit-identical to `ml.execute_native` by construction; the pair is the
    system's core determinism contract.
    """
    oracle = fpvm.PreimageOracle(scheme)
    outputs: list[ml.FixedTensor] = []
    for node in graph.nodes:
        if node.op == "input":
            if input_tensor.shape != tuple(node.shape):
                raise ml.ShapeError("input shape mismatch")
            outputs.append(input_tensor)
            continue
        if node.op == "const":
            outputs.append(node.params)
            continue
        operands = [outputs[i] for i in node.input_ids]
        outputs.append(run_lowered_node(lower_node(node, operands), oracle))
    return outputs[graph.output_id]


# ---------------------------------------------------------------------------
# Whole-graph (single-phase) program
# ---------------------------------------------------------------------------


@dataclass
class LoweredGraph:
    program: bytes
    model_blob: bytes
    stores: dict[int, list[tuple[int, int]]]  # node id -> its kernel's output stores

    def initial_state(self, input_tensor: ml.FixedTensor, scheme: HashScheme) -> fpvm.VmState:
        return fpvm.load_program(
            self.program, ml.serialize_tensor(input_tensor), self.model_blob, scheme=scheme
        )


def lower_graph(graph: ml.CompGraph) -> LoweredGraph:
    """Compile the whole computation into one program (no lazy loading):
    input and constants are read in place, intermediates go to the heap,
    and the output node's serialized tensor lands in the output region."""
    shapes = graph.infer_shapes()

    const_offsets: dict[int, int] = {}
    model_parts: list[bytes] = []
    off = 0
    for node in graph.nodes:
        if node.op == "const":
            blob = ml.serialize_tensor(node.params)
            const_offsets[node.id] = off
            padded = blob + b"\x00" * (-len(blob) % 32)
            model_parts.append(padded)
            off += len(padded)
    model_blob = b"".join(model_parts)

    heap_offsets: dict[int, int] = {}
    off = 0
    for node in graph.nodes:
        if node.op not in ml.COMPUTED_OPS:
            continue
        heap_offsets[node.id] = off
        off += 32 * -(-(4 * math.prod(shapes[node.id])) // 32)

    def payload_base(node_id: int) -> int:
        node = graph.nodes[node_id]
        if node.op == "input":
            return INPUT_BASE + _payload_offset(len(shapes[node_id]))
        if node.op == "const":
            return MODEL_BASE + const_offsets[node_id] + _payload_offset(len(shapes[node_id]))
        return HEAP_BASE + heap_offsets[node_id]

    words: list[int] = []
    _li(words, _MASK_REG, 0xFFFF)
    stores: dict[int, list[tuple[int, int]]] = {}
    for node in graph.nodes:
        if node.op not in ml.COMPUTED_OPS:
            continue
        operand_bases = [payload_base(i) for i in node.input_ids]
        operand_shapes = [shapes[i] for i in node.input_ids]
        stores[node.id] = _emit_kernel(words, node.op, operand_bases, operand_shapes,
                                       HEAP_BASE + heap_offsets[node.id])

    # Serialize the designated output into the output region.
    out_shape = shapes[graph.output_id]
    out_node = graph.nodes[graph.output_id]
    if out_node.op not in ml.COMPUTED_OPS:
        raise LoweringError("output node must be a computed node")
    _emit_header(words, OUTPUT_BASE, out_shape)
    src = HEAP_BASE + heap_offsets[graph.output_id]
    dst = OUTPUT_BASE + _payload_offset(len(out_shape))
    for e in range(math.prod(out_shape)):
        _li(words, 1, src + 4 * e)
        words.append(encode("LW", rd=2, rs=1, imm=0))
        _li(words, 1, dst + 4 * e)
        words.append(encode("SW", rt=2, rs=1, imm=0))
    words.append(encode("HALT"))
    return LoweredGraph(fpvm.assemble(words), model_blob, stores)


def graph_fault_to_step_fault(
    lowered: LoweredGraph, honest_trace: fpvm.Trace, fault: ml.GraphFault
) -> fpvm.StepFault:
    """Map a node-output corruption onto the whole-graph program's trace.

    Flips the same bit in the store that writes the faulted element's heap
    word, so the corrupted single-phase trace commits to exactly the same
    wrong tensor as the natively corrupted graph run.
    """
    return store_fault(honest_trace, lowered.stores[fault.node_id], fault.element, fault.bit)
