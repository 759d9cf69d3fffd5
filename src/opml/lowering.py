"""Compiling graph nodes into MiniVM programs.

Two targets share the same unrolled kernels:

* per-node programs (`node_program`): operands arrive as preimage keys in
  the input region, get pulled chunk-by-chunk through the oracle (lazy
  loading), and the serialized result lands in the output region. This is
  the program a phase-2 dispute runs over.
* a whole-graph program (`lower_graph`): input and constants sit in their
  memory regions, intermediates live on the heap, and the final output is
  serialized to the output region. This is the single-phase target.

Every kernel is stamped from pre-encoded templates (`_stencil`): their
fixed instruction words are encoded once, and `_stamp` copies them per
element and patches in the addresses. `kernel_words` reads each kernel's
size from the same templates.

The matmul kernel cannot keep a 64-bit accumulator in 32-bit registers, so
it accumulates the high part (MULFX, products shifted by 16) and the low
16-bit remainders (MUL + AND) separately and recombines at the end:

    (sum prod) asr 16  ==  sum(prod asr 16) + (sum(prod & 0xFFFF) asr 16)

holds exactly because the remainders are non-negative and their sum stays
below 2**31 for inner dimensions of at most 2**15 (`ml.MAX_INNER_DIM`, which
`ml.op_shape` enforces). Modulo 2**32 the recombined
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


def _stencil(*code) -> tuple[int | None, ...]:
    """Encode `code` once. Each entry is the arguments of an `encode` call
    (op, rd, rs, rt, imm), or None for a word left as a hole; an LI's
    immediate is a hole too. `_stamp` patches the holes."""
    words = []
    for args in code:
        words.append(None if args is None else encode(*args))
        if args is not None and args[0] == "LI":
            words.append(None)
    return tuple(words)


def _stamp(words: list[int], stencil, *columns) -> range:
    """Append one copy of `stencil` per row of `columns`, the k-th copy's
    i-th hole patched with columns[i][k]; returns the pc of each copy's
    last word, where a kernel's store sits."""
    start, size = len(words), len(stencil)
    words += stencil * len(columns[0])
    holes = [i for i, word in enumerate(stencil) if word is None]
    for hole, column in zip(holes, columns, strict=True):
        words[start + hole :: size] = column
    return range(4 * (start + size - 1), 4 * len(words), 4 * size)


def _elements(base: int, count: int, stride: int = 4) -> range:
    return range(base, base + stride * count, stride)


_PRELUDE = _stencil(("LI", _MASK_REG))
# matmul, per output element: open, one MAC per inner index, close (store).
_MAC_OPEN = _stencil(("ADD", 3), ("ADD", 4))
_MAC = _stencil(("LI", 1), ("LW", 1, 1), ("LI", 2), ("LW", 2, 2), ("MULFX", 5, 1, 2),
                ("ADD", 3, 3, 5), ("MUL", 5, 1, 2), ("AND", 5, 5, _MASK_REG), ("ADD", 4, 4, 5))
_MAC_CLOSE = _stencil(("SRA", 4, 4, 0, 16), ("ADD", 3, 3, 4), ("LI", 1), ("SW", 0, 1, 3))
_BIAS_ADD = _stencil(("LI", 1), ("LW", 1, 1), ("LI", 2), ("LW", 2, 2), ("ADD", 3, 1, 2),
                     ("LI", 2), ("SW", 0, 2, 3))
_RELU = _stencil(("LI", 1), ("LW", 2, 1), ("ADD", 3),
                 ("BLT", 0, 2, 0, 1),  # negative: keep zero
                 ("ADD", 3, 2), ("LI", 1), ("SW", 0, 1, 3))
_ARGMAX_OPEN = _stencil(("LI", 1), ("LW", 3, 1), ("ADD", 4))  # best value, best index
_ARGMAX_STEP = _stencil(("LI", 1), ("LW", 1, 1),
                        ("BLT", 0, 3, 1, 1), ("BEQ", 0, 0, 0, 3),  # strictly greater wins
                        ("ADD", 3, 1), ("LI", 4))
_ARGMAX_CLOSE = _stencil(("LI", 1), ("SW", 0, 1, 4))
_HEADER = _stencil(("LI", 1), ("LI", 2), ("SW", 0, 1, 2))  # region base, rank
_HEADER_DIM = _stencil(("LI", 2), None)  # dim d's SW carries its offset, 4 * (1 + d)
# Copy an operand's 32-byte key from the input region into the oracle-key
# field, then pull its blob chunk by chunk into its oracle-value slot.
_KEY_COPY = _stencil(("LI", 1), ("LI", 2), *(insn for w in range(8) for insn in (
    ("LW", 3, 1, 0, 4 * w), ("SW", 0, 2, 3, 4 * w))))
_FETCH = _stencil(("LI", 4), ("LI", 7), ("PREIMAGE", 7, 4))
_COPY = _stencil(("LI", 1), ("LW", 2, 1), ("LI", 1), ("SW", 0, 1, 2))


def _emit_header(words, region_base, shape):
    _stamp(words, _HEADER, (region_base,), (len(shape),))
    sws = [encode("SW", rt=2, rs=1, imm=4 * d) for d in range(1, len(shape) + 1)]
    _stamp(words, _HEADER_DIM, shape, sws)


def _payload_offset(rank: int) -> int:
    """Offset of raw data inside a serialized tensor (rank word + dims)."""
    return 4 + 4 * rank


def kernel_words(op: str, operand_shapes) -> int:
    """Words `_emit_kernel` emits for `op` on operands of these shapes,
    counted from the stencils it stamps."""
    count = math.prod(operand_shapes[0])
    if op == "matmul":
        (r, n), (_, p) = operand_shapes
        return r * p * (len(_MAC_OPEN) + n * len(_MAC) + len(_MAC_CLOSE))
    if op == "argmax":
        return len(_ARGMAX_OPEN) + (count - 1) * len(_ARGMAX_STEP) + len(_ARGMAX_CLOSE)
    return count * len({"bias_add": _BIAS_ADD, "relu": _RELU}.get(op, ()))


def _emit_kernel(words, op, operand_bases, operand_shapes, dst_base) -> list[tuple[int, int]]:
    """Emit one node's kernel; returns (pc of the SW, address) of each
    output element's store, in element order. Raises merkle.RangeError
    before emitting anything when the program would outgrow its region."""
    if len(words) + kernel_words(op, operand_shapes) > fpvm.PROGRAM_WORDS:
        raise merkle.RangeError(f"program exceeds the {fpvm.PROGRAM_WORDS}-word program region")
    x, count = operand_bases[0], math.prod(operand_shapes[0])
    if op == "matmul":
        (r, n), (_, p) = operand_shapes
        pcs, count = [], r * p
        for i in range(r):
            for j in range(p):
                words += _MAC_OPEN
                _stamp(words, _MAC, _elements(x + 4 * i * n, n),
                       _elements(operand_bases[1] + 4 * j, n, 4 * p))
                pcs += _stamp(words, _MAC_CLOSE, (dst_base + 4 * (i * p + j),))
    elif op == "bias_add":
        width = operand_shapes[1][0]
        bias = list(_elements(operand_bases[1], width)) * (count // width)
        pcs = _stamp(words, _BIAS_ADD, _elements(x, count), bias, _elements(dst_base, count))
    elif op == "relu":
        pcs = _stamp(words, _RELU, _elements(x, count), _elements(dst_base, count))
    else:  # argmax
        _stamp(words, _ARGMAX_OPEN, (x,))
        _stamp(words, _ARGMAX_STEP, _elements(x + 4, count - 1), range(1, count))
        pcs, count = _stamp(words, _ARGMAX_CLOSE, (dst_base,)), 1
    return list(zip(pcs, _elements(dst_base, count)))


def store_fault(
    trace: fpvm.Trace, stores: list[tuple[int, int]], element: int, bit: int
) -> fpvm.StepFault:
    """Fault that flips bit `bit % 32` of output element `element % len(stores)`
    right after the SW that stores it."""
    pc, addr = stores[element % len(stores)]
    return fpvm.StepFault(step=fpvm.find_store_step(trace, pc), leaf_index=addr // 32,
                          bit=(addr % 32) * 8 + bit % 32)


# Bounded: a program may take up to 32 MiB, and a long-lived process should
# not keep every one it has lowered.
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
    _stamp(words, _PRELUDE, (0xFFFF,))

    payload_bases, slot = [], 0
    for oi, shape in enumerate(operand_shapes):
        # The operand's blob is `ml.tensor_blob`: u32 length, rank, dims, payload.
        _stamp(words, _KEY_COPY, (INPUT_BASE + 32 * oi,), (ORACLE_KEY_BASE,))
        head = 4 + _payload_offset(len(shape))
        n_chunks = -(-(head + 4 * math.prod(shape)) // 32)
        _stamp(words, _FETCH, range(n_chunks), _elements(slot // 32, n_chunks, 1))
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
    return ml.deserialize_tensor(fpvm.read_bytes(state.memory, OUTPUT_BASE, size))


def execute_via_vm(
    graph: ml.CompGraph, input_tensor: ml.FixedTensor, scheme: HashScheme
) -> ml.FixedTensor:
    """Prove-path execution: every compute node runs as its own VM program.

    Bit-identical to `ml.execute_native` by construction; the pair is the
    system's core determinism contract.
    """
    oracle = fpvm.PreimageOracle(scheme)

    def run_node(node, operands):
        return run_lowered_node(lower_node(node, operands), oracle)

    return ml._node_outputs(graph, input_tensor, run_node)[graph.output_id]


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
    """Compile the whole computation into one program (no lazy loading) in
    one pass over the nodes: the input and constants are read in place,
    each intermediate gets the next heap slot, and the output node's
    serialized tensor lands in the output region (see docs/formats.md)."""
    shapes = graph.infer_shapes()
    model_blob, bases, heap = bytearray(), [], HEAP_BASE  # bases[i]: node i's payload address
    words: list[int] = []
    _stamp(words, _PRELUDE, (0xFFFF,))
    stores: dict[int, list[tuple[int, int]]] = {}
    for node in graph.nodes:
        shape = shapes[node.id]
        if node.op == "input":
            bases.append(INPUT_BASE + _payload_offset(len(shape)))
        elif node.op == "const":
            bases.append(MODEL_BASE + len(model_blob) + _payload_offset(len(shape)))
            model_blob += ml.serialize_tensor(node.params)
            model_blob += bytes(-len(model_blob) % 32)
        else:
            bases.append(heap)
            heap += 32 * -(-(4 * math.prod(shape)) // 32)
            stores[node.id] = _emit_kernel(words, node.op, [bases[i] for i in node.input_ids],
                                           [shapes[i] for i in node.input_ids], bases[node.id])

    out_shape = shapes[graph.output_id]
    _emit_header(words, OUTPUT_BASE, out_shape)
    count = math.prod(out_shape)
    _stamp(words, _COPY, _elements(bases[graph.output_id], count),
           _elements(OUTPUT_BASE + _payload_offset(len(out_shape)), count))
    words.append(encode("HALT"))
    return LoweredGraph(fpvm.assemble(words), bytes(model_blob), stores)


def graph_fault_to_step_fault(
    lowered: LoweredGraph, honest_trace: fpvm.Trace, fault: ml.GraphFault
) -> fpvm.StepFault:
    """Map a node-output corruption onto the whole-graph program's trace.

    Flips the same bit in the store that writes the faulted element's heap
    word, so the corrupted single-phase trace commits to exactly the same
    wrong tensor as the natively corrupted graph run.
    """
    return store_fault(honest_trace, lowered.stores[fault.node_id], fault.element, fault.bit)
