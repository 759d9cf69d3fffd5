"""Deterministic fraud-proof virtual machine ("MiniVM").

The machine is a pure state transition function over Merkle-committed
memory: 16 x 32-bit registers (r0 wired to zero), a 32-bit program counter,
exit flags and a 27-level sparse memory tree. Every state hashes to a single
root, so two parties can dispute an execution by comparing roots, and a
single disputed step can be re-executed by a verifier that holds nothing but
the pre-state root and a small witness.

The 14-opcode instruction set, its encoding and its trap codes are
specified in docs/formats.md. Unknown opcodes and misaligned accesses trap
(exit with a trap code), never raise: hostile programs must still be
arbitrable.

The step semantics, word access included, live only in `_execute`, which
runs over one of three memory views of whole leaves: the run view
(`_TreeMemory`, behind `step`, `run` and `run_trace`), the witness view
(`_RecordingMemory`, behind `gen_step_witness`) and the verifier view
(`_WitnessMemory`, behind `verify_step`). So the prover and the verifier
execute the same instruction by construction.

A run reads each leaf from its starting tree at most once and writes no
store to a tree: each state it yields carries a `MemTree.with_writes`
version of the one before, built only when a root, a proof or a read needs
it (`_TreeMemory.seal`). A whole run (`run`, `run_trace`, a fork's suffix)
reads the aligned block of 2**READ_BLOCK_LEVEL leaves around a missed leaf
in one descent; `step` and a trace's replays, too short to use a block,
read leaf by leaf.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from operator import attrgetter

from . import merkle
from .hashing import HashScheme, VM_STATE_PREFIX
from .wire import ParseError, Reader

# Fixed memory map. Regions are leaf-aligned and power-of-two sized so each
# one is a single Merkle subtree.
PROGRAM_BASE = 0x0000_0000
INPUT_BASE = 0x0200_0000
OUTPUT_BASE = 0x0300_0000
ORACLE_KEY_BASE = 0x0400_0000
ORACLE_VALUE_BASE = 0x0410_0000
MODEL_BASE = 0x0800_0000
HEAP_BASE = 0x1000_0000

PROGRAM_LEVEL = 20  # 2**20 leaves = 32 MiB
PROGRAM_WORDS = 8 << PROGRAM_LEVEL  # 32-bit words the program region holds
INPUT_LEVEL = 19  # 16 MiB
OUTPUT_LEVEL = 19
MODEL_LEVEL = 22  # 128 MiB

_ORACLE_VALUE_LEAVES = (MODEL_BASE - ORACLE_VALUE_BASE) // 32

MULFX_SHIFT = 16

MASK32 = 0xFFFF_FFFF

MAX_STEPS = 10_000_000  # step budget of every run and fork, above any program the region holds

SNAPSHOT_EVERY = 16  # step spacing of a `Trace`'s snapshots

# Level of the leaf blocks a whole run reads (`MemTree.leaf_block`). A block
# costs about eight single-leaf reads, and a lowered program reads its code
# and operands in address order, so it soon uses the rest of the block.
READ_BLOCK_LEVEL = 5

# Exit codes for trap states.
TRAP_BAD_OPCODE = 0xFE
TRAP_BAD_ALIGN = 0xFD
TRAP_BAD_PC = 0xFC
TRAP_BAD_REGION = 0xFB

OPCODES = {
    "LI": 0x01,
    "LW": 0x02,
    "SW": 0x03,
    "ADD": 0x10,
    "SUB": 0x11,
    "MUL": 0x12,
    "MULFX": 0x13,
    "SRA": 0x14,
    "AND": 0x15,
    "BEQ": 0x20,
    "BLT": 0x21,
    "JMP": 0x22,
    "PREIMAGE": 0x30,
    "HALT": 0x3F,
}


class MissingPreimageError(KeyError):
    """The host oracle has no value for a requested key."""


class BudgetExceededError(RuntimeError):
    """Step budget ran out before HALT; carries the partial state."""

    def __init__(self, state: "VmState", steps: int):
        super().__init__(f"no HALT within {steps} steps")
        self.state = state
        self.steps = steps


def sign32(v: int) -> int:
    v &= MASK32
    return v - 0x1_0000_0000 if v & 0x8000_0000 else v


def sext12(imm: int) -> int:
    imm &= 0xFFF
    return imm - 0x1000 if imm & 0x800 else imm


def encode(op: str, rd: int = 0, rs: int = 0, rt: int = 0, imm: int = 0) -> int:
    """Pack one instruction word; imm is a 12-bit signed field."""
    if not -0x800 <= imm < 0x800:
        raise ValueError(f"immediate {imm} out of 12-bit signed range")
    return (
        (OPCODES[op] << 24)
        | ((rd & 0xF) << 20)
        | ((rs & 0xF) << 16)
        | ((rt & 0xF) << 12)
        | (imm & 0xFFF)
    )


def _split(word: int) -> tuple[int, int, int, int, int]:
    """(opcode, rd, rs, rt, imm) of an instruction word, memoised in
    `_SPLIT`, which is cleared when full. Splitting is pure, so a hit is
    safe even when a program rewrites its own code."""
    if len(_SPLIT) >= _SPLIT_MAX:
        _SPLIT.clear()
    fields = _SPLIT[word] = (word >> 24, (word >> 20) & 0xF, (word >> 16) & 0xF,
                             (word >> 12) & 0xF, sext12(word))
    return fields


_SPLIT: dict[int, tuple[int, int, int, int, int]] = {}
_SPLIT_MAX = 1 << 14


class PreimageOracle:
    """Content-addressed host store: key = H(value), checked on insertion."""

    def __init__(self, scheme: HashScheme):
        self.scheme = scheme
        self._map: dict[bytes, bytes] = {}

    def put(self, value: bytes) -> bytes:
        key = self.scheme.digest(value)
        self._map[key] = value
        return key

    def get(self, key: bytes) -> bytes:
        if key not in self._map:
            raise MissingPreimageError(key.hex())
        return self._map[key]

    def chunk(self, key: bytes, index: int) -> bytes:
        """32-byte slice `index` of the value, zero padded past the end."""
        value = self.get(key)
        piece = value[32 * index : 32 * index + 32]
        return piece + b"\x00" * (32 - len(piece))

    def __contains__(self, key: bytes) -> bool:
        return key in self._map


@dataclass(frozen=True)
class VmFields:
    """The non-memory half of a VM state; together with the memory root it
    is the exact preimage of the state root."""

    pc: int
    regs: tuple[int, ...]
    exited: bool
    exit_code: int
    memory_root: bytes

    def to_bytes(self) -> bytes:
        return (
            struct.pack("<I", self.pc)
            + struct.pack("<16I", *self.regs)
            + struct.pack("<BB", int(self.exited), self.exit_code)
            + self.memory_root
        )

    @classmethod
    def read(cls, r: Reader) -> "VmFields":
        pc, *regs = r.u32s(17, "vm fields")
        exited, exit_code = r.u8("vm fields"), r.u8("vm fields")
        return cls(pc, tuple(regs), bool(exited), exit_code, r.take(32, "vm fields"))

    def state_root(self, scheme: HashScheme) -> bytes:
        return scheme.digest(VM_STATE_PREFIX + self.to_bytes())


@dataclass(slots=True)
class VmState:
    pc: int
    regs: tuple[int, ...]
    memory: merkle.MemTree
    exited: bool = False
    exit_code: int = 0
    step_count: int = 0

    @property
    def scheme(self) -> HashScheme:
        return self.memory.scheme

    def fields(self) -> VmFields:
        return VmFields(self.pc, self.regs, self.exited, self.exit_code, self.memory.root())


def state_root(state: VmState) -> bytes:
    """Commitment to the full machine state (registers, pc, flags, memory)."""
    return state.fields().state_root(state.scheme)


def write_bytes(tree: merkle.MemTree, base: int, data: bytes) -> merkle.MemTree:
    """Write a byte string at a leaf-aligned base address."""
    if base % 32 != 0:
        raise merkle.AlignmentError(f"base {base:#x} not leaf aligned")
    for i in range(0, len(data), 32):
        chunk = data[i : i + 32]
        chunk += b"\x00" * (32 - len(chunk))
        tree = tree.update_leaf((base + i) // 32, chunk)
    return tree


def read_bytes(tree: merkle.MemTree, base: int, length: int) -> bytes:
    out = bytearray()
    first_leaf = base // 32
    last_leaf = (base + length - 1) // 32 if length else first_leaf
    for leaf_index in range(first_leaf, last_leaf + 1):
        out += tree.get_leaf(leaf_index)
    skip = base % 32
    return bytes(out[skip : skip + length])


def load_program(
    program: bytes,
    input_blob: bytes = b"",
    model_blob: bytes = b"",
    *,
    scheme: HashScheme,
) -> VmState:
    """Fresh machine with code, input and model images in their regions:
    the memory equals writing the images leaf by leaf with `write_bytes`.
    Each region is one `merkle.region` image, hashed when a root needs it.
    Raises merkle.RangeError, before hashing anything, when an image does
    not fit its region. The program image's root comes from
    `program_root`'s memo, but a hit presets none of the digests an image
    keeps, so the first proof into it hashes the region again."""
    regions = (
        (PROGRAM_BASE, PROGRAM_LEVEL, program),
        (INPUT_BASE, INPUT_LEVEL, input_blob),
        (MODEL_BASE, MODEL_LEVEL, model_blob),
    )
    images = []
    for _, level, image in regions:  # every size check before any hash
        images.append(merkle.region(image, level, scheme))
    if images[0] is not None:
        images[0].digest = _memo_root(program, scheme, lambda: images[0].digest)
    tree = merkle.MemTree(scheme)
    for (base, level, _), image in zip(regions, images):
        tree = tree.splice(base // 32, level, image)
    return VmState(pc=0, regs=(0,) * 16, memory=tree)


def program_root(program: bytes, scheme: HashScheme) -> bytes:
    """Root of the program region holding `program`, memoised by content.
    A miss hashes the region of `program` itself, so no caller can put a
    root in the memo that its program does not give."""
    return _memo_root(program, scheme, lambda: merkle.region_root(program, PROGRAM_LEVEL, scheme))


def _memo_root(program: bytes, scheme: HashScheme, hash_region) -> bytes:
    """`program`'s root from the memo; a miss memoises `hash_region()`, the
    digest of the program region holding `program`."""
    key = (scheme.digest(program), PROGRAM_LEVEL, scheme)
    root = _PROGRAM_ROOTS.get(key)
    if root is None:
        root = hash_region()
        if len(_PROGRAM_ROOTS) >= _PROGRAM_ROOTS_MAX:
            del _PROGRAM_ROOTS[next(iter(_PROGRAM_ROOTS))]
        _PROGRAM_ROOTS[key] = root
    return root


# (program digest, PROGRAM_LEVEL, scheme) -> program-region root, oldest out
# first: a two-phase game's entrance check reloads a program its prover loaded.
_PROGRAM_ROOTS: dict[tuple[bytes, int, HashScheme], bytes] = {}
_PROGRAM_ROOTS_MAX = 16


def assemble(instructions: list[int]) -> bytes:
    return struct.pack(f"<{len(instructions)}I", *instructions)


def _with_word(leaf: bytes, addr: int, value: int) -> bytes:
    out = bytearray(leaf)
    struct.pack_into("<I", out, addr & 31, value & MASK32)
    return bytes(out)


_unpack_word = struct.Struct("<I").unpack_from


def _execute(
    pc: int, regs: list[int], mem: _TreeMemory | _RecordingMemory | _WitnessMemory, limit: int = 1
) -> tuple[int, bool, int, int]:
    """The step semantics: (pc, exited, exit_code, steps) after a block of
    up to `limit` steps from `pc`, touching memory only through the view
    `mem`; `steps` falls short of `limit` only when a trap or HALT, which
    it counts, exits. Traps leave pc and regs unchanged. The register list
    `regs` is written in place, at most one register per step and as the
    step's last act, so a raise leaves the raising step unapplied and the
    earlier steps of the block applied.

    A view serves whole leaves by base address: `read_leaf(base, miss)`,
    where `miss` is the verifier view's reject reason for a leaf it lacks;
    `old_leaf`, the leaf a store overwrites, which a witness carries in its
    write record; `put_leaf`, always the step's last memory access; and a
    preimage `chunk`.

    A fetch or an LI immediate reads the leaf the block last read code
    from (`code`), not the view, until a SW or a PREIMAGE, which may
    overwrite it. The opcode tests run in order of their frequency in a
    lowered MLP.
    """
    # No method is bound to a local and no range is built: at limit=1, the
    # block of a witness, a verifier or a replay, either costs more than it saves.
    code_base, steps = -1, 0
    while steps < limit:
        steps += 1
        if pc & 3:
            return pc, True, TRAP_BAD_PC, steps
        if pc & ~31 != code_base:
            code, code_base = mem.read_leaf(pc & ~31, "missing-fetch-leaf"), pc & ~31
        word = _unpack_word(code, pc & 31)[0]
        op, rd, rs, rt, imm = _SPLIT.get(word) or _split(word)
        next_pc = (pc + 4) & MASK32
        if op == 0x01:  # LI
            if next_pc & ~31 != code_base:
                code, code_base = mem.read_leaf(next_pc & ~31, "missing-li-leaf"), next_pc & ~31
            value = _unpack_word(code, next_pc & 31)[0]
            next_pc = (pc + 8) & MASK32
        elif op == 0x10:  # ADD
            value = regs[rs] + regs[rt]
        elif op == 0x02:  # LW
            addr = (regs[rs] + imm) & MASK32
            if addr & 3:
                return pc, True, TRAP_BAD_ALIGN, steps
            value = _unpack_word(mem.read_leaf(addr & ~31, "missing-load-leaf"), addr & 31)[0]
        elif op == 0x13:  # MULFX: signed 64-bit product, arithmetic shift
            a, b = regs[rs], regs[rt]
            value = ((a - ((a & 0x8000_0000) << 1)) * (b - ((b & 0x8000_0000) << 1))) >> MULFX_SHIFT
        elif op == 0x12:  # MUL
            value = regs[rs] * regs[rt]
        elif op == 0x15:  # AND
            value = regs[rs] & regs[rt]
        elif op == 0x03:  # SW
            addr = (regs[rs] + imm) & MASK32
            if addr & 3:
                return pc, True, TRAP_BAD_ALIGN, steps
            base = addr & ~31
            mem.put_leaf(base, _with_word(mem.old_leaf(base), addr, regs[rt]))
            pc, code_base = next_pc, -1
            continue
        elif op == 0x11:  # SUB
            value = regs[rs] - regs[rt]
        elif op == 0x14:  # SRA
            value = sign32(regs[rs]) >> (imm & 31)
        elif op == 0x20:  # BEQ
            pc = (pc + 4 + 4 * imm) & MASK32 if regs[rs] == regs[rt] else next_pc
            continue
        elif op == 0x21:  # BLT
            pc = (pc + 4 + 4 * imm) & MASK32 if sign32(regs[rs]) < sign32(regs[rt]) else next_pc
            continue
        elif op == 0x22:  # JMP
            value = pc + 4
            next_pc = (regs[rs] + 4 * imm) & MASK32
        elif op == 0x30:  # PREIMAGE
            key = mem.read_leaf(ORACLE_KEY_BASE, "missing-key-leaf")
            value_chunk = mem.chunk(key, regs[rs])
            if regs[rd] >= _ORACLE_VALUE_LEAVES:
                return pc, True, TRAP_BAD_REGION, steps
            mem.put_leaf(ORACLE_VALUE_BASE + 32 * regs[rd], value_chunk)
            pc, code_base = next_pc, -1
            continue
        elif op == 0x3F:  # HALT
            return pc, True, imm & 0xFF, steps
        else:
            return pc, True, TRAP_BAD_OPCODE, steps
        if rd:  # r0 is hardwired to zero
            regs[rd] = value & MASK32
        pc = next_pc
    return pc, False, 0, limit


class _TreeMemory:
    """Run view: `leaves` holds every leaf the run has read or written, by
    base address, and `writes` the writes since the last `seal`, by leaf
    index. A miss in `leaves` is a leaf the run never wrote, so `start`,
    the run's starting tree, still holds it; with a `block` level, a miss
    reads the leaves of its block that `leaves` lacks."""

    __slots__ = ("start", "tree", "oracle", "leaves", "writes", "block")

    def __init__(self, tree: merkle.MemTree, oracle: PreimageOracle | None, block: int | None):
        self.start = self.tree = tree
        self.oracle = oracle
        self.leaves: dict[int, bytes] = {}
        self.writes: dict[int, bytes] = {}
        self.block = block

    def read_leaf(self, base: int, miss: str) -> bytes:
        leaf = self.leaves.get(base)
        if leaf is None:
            if self.block is None:
                leaf = self.leaves[base] = self.start.get_leaf(base >> 5)
            else:
                self.start.leaf_block(base >> 5, self.block, self.leaves)
                leaf = self.leaves[base]
        return leaf

    def old_leaf(self, base: int) -> bytes:
        return self.read_leaf(base, "")

    def chunk(self, key: bytes, index: int) -> bytes:
        if self.oracle is None:
            raise MissingPreimageError("no oracle attached to this machine")
        return self.oracle.chunk(key, index)

    def put_leaf(self, base: int, leaf: bytes) -> None:
        self.leaves[base] = leaf
        self.writes[base >> 5] = leaf

    def seal(self) -> merkle.MemTree:
        """The memory now: the last sealed tree with the writes since."""
        self.tree = self.tree.with_writes(self.writes)
        self.writes = {}
        return self.tree


class _RecordingMemory:
    """Witness view: records every leaf read (once, in access order), the
    leaf write and the preimage chunk, each with its proof against the
    pre-state memory root, from `proofs` keyed by (memory root, leaf base)."""

    __slots__ = ("tree", "oracle", "root", "proofs", "reads", "writes", "preimage_chunk")

    def __init__(self, tree: merkle.MemTree, oracle: PreimageOracle | None, root: bytes,
                 proofs: dict):
        self.tree, self.oracle, self.root, self.proofs = tree, oracle, root, proofs
        self.reads: list[tuple[int, bytes, merkle.MerkleProof]] = []
        self.writes: list[tuple[int, bytes, bytes, merkle.MerkleProof]] = []
        self.preimage_chunk: PreimageChunk | None = None

    def _open(self, base: int) -> tuple[bytes, merkle.MerkleProof]:
        key = (self.root, base)
        if key not in self.proofs:
            self.proofs[key] = (self.tree.get_leaf(base >> 5), self.tree.prove(base >> 5))
        return self.proofs[key]

    def read_leaf(self, base: int, miss: str) -> bytes:
        leaf, proof = self._open(base)
        if all(addr != base for addr, _, _ in self.reads):
            self.reads.append((base, leaf, proof))
        return leaf

    def old_leaf(self, base: int) -> bytes:
        # A store's old leaf goes into its write record, not a read record.
        return self._open(base)[0]

    def chunk(self, key: bytes, index: int) -> bytes:
        if self.oracle is None:
            raise MissingPreimageError("witness generation needs the oracle")
        self.preimage_chunk = PreimageChunk(key, index, self.oracle.chunk(key, index))
        return self.preimage_chunk.data

    def put_leaf(self, base: int, leaf: bytes) -> None:
        # Recorded, not applied: nothing reads memory after the write, and
        # the proof must be against the pre-state root.
        old, proof = self._open(base)
        self.writes.append((base, old, leaf, proof))


class _Rejected(Exception):
    """A witness-backed access the witness cannot serve; the message is the
    reject reason."""


class _WitnessMemory:
    """Verifier view: serves only the leaves the witness proved, the write
    record's old leaf and the witnessed chunk; anything else rejects."""

    __slots__ = ("leaves", "witness", "preimages", "check_chunk", "used", "chunk_served", "write")

    def __init__(self, leaves: dict[int, bytes], witness: StepWitness,
                 preimages: PreimageOracle | None, check_chunk: bool):
        self.leaves = leaves
        self.witness = witness
        self.preimages = preimages
        self.check_chunk = check_chunk
        self.used: set[int] = set()
        self.chunk_served = False
        self.write: tuple[int, bytes] | None = None  # (leaf base, new leaf)

    def read_leaf(self, base: int, miss: str) -> bytes:
        if base not in self.leaves:
            raise _Rejected(miss)
        self.used.add(base)
        return self.leaves[base]

    def chunk(self, key: bytes, index: int) -> bytes:
        chunk = self.witness.preimage_chunk
        if chunk is None or len(chunk.data) != 32:
            raise _Rejected("missing-preimage-chunk")
        if chunk.key != key or chunk.index != index:
            raise _Rejected("preimage-chunk-wrong-slot")
        if self.check_chunk:
            if self.preimages is None or chunk.key not in self.preimages:
                raise _Rejected("preimage-unavailable")
            if self.preimages.chunk(chunk.key, chunk.index) != chunk.data:
                raise _Rejected("preimage-chunk-mismatch")
        self.chunk_served = True
        return chunk.data

    def put_leaf(self, base: int, leaf: bytes) -> None:
        self.old_leaf(base)
        self.write = (base, leaf)

    def old_leaf(self, base: int) -> bytes:
        for addr, old, _new, _proof in self.witness.mem_writes:
            if addr == base:
                if len(old) != 32:
                    raise _Rejected("write-record-wrong-slot")
                return old
        raise _Rejected("missing-write-record")


def _successors(state: VmState, oracle: PreimageOracle | None, max_steps: float, every: int,
                block: int | None = None):
    """Steps from `state` to the exited state over one run view, reading
    blocks of level `block`, and yields the states whose `step_count` is a
    multiple of `every`, the one at `max_steps` and the exited one, each
    after one `_execute` call. Raises BudgetExceededError at a state that
    has made `max_steps` steps (`step_count`, counted from step 0 of its
    run) without exiting.

    The loop keeps the registers in one list that `_execute` writes in
    place, and gives a yielded state a tuple of its values, the state
    before's tuple when they are equal: a witness window keeps thousands of
    states, and a store or a branch writes no register. A raise drops the
    list and the view with the run."""
    mem = _TreeMemory(state.memory, oracle, block)
    kept, regs = state.regs, list(state.regs)
    pc, exited, exit_code, n = state.pc, state.exited, state.exit_code, state.step_count
    while not exited:
        if n >= max_steps:
            raise BudgetExceededError(VmState(pc, tuple(regs), mem.seal(), exited, exit_code, n),
                                      max_steps)
        pc, exited, exit_code, done = _execute(pc, regs, mem, min(every - n % every, max_steps - n))
        n += done
        if kept != (now := tuple(regs)):
            kept = now
        yield VmState(pc, kept, mem.seal(), exited, exit_code, n)


def step(state: VmState, oracle: PreimageOracle | None = None) -> VmState:
    """Execute exactly one instruction; identity once exited."""
    return next(_successors(state, oracle, math.inf, 1), state)


def run(state: VmState, oracle: PreimageOracle | None = None) -> tuple[VmState, int]:
    """Run until HALT; returns (final state, executed step count). The
    budget is MAX_STEPS, read on each call and counted by `step_count`, as
    in `_successors`."""
    final = state
    for final in _successors(state, oracle, MAX_STEPS, MAX_STEPS, READ_BLOCK_LEVEL):  # one yield
        pass
    return final, final.step_count - state.step_count


@dataclass(frozen=True)
class StepFault:
    """Deterministic corruption: after executing step `step` (1-based),
    XOR one bit into the given memory leaf. Re-execution with the same fault
    reproduces the same corrupted trace, which is the self-consistent
    adversary the dispute protocol has to beat."""

    step: int
    leaf_index: int
    bit: int

    def apply(self, state: VmState) -> VmState:
        leaf = bytearray(state.memory.get_leaf(self.leaf_index))
        leaf[self.bit // 8] ^= 1 << (self.bit % 8)
        return replace(state, memory=state.memory.update_leaf(self.leaf_index, bytes(leaf)))


class Trace:
    """An execution trace, kept as snapshots: `state_at(i)` is the machine
    after i steps.

    `states` holds the first state, every state whose `step_count` is a
    multiple of SNAPSHOT_EVERY, and the final state; a fork also keeps its
    faulted state. `walk` rebuilds any other state by replaying at most
    SNAPSHOT_EVERY - 1 steps from the snapshot before it, and keeps
    nothing it replays. The trace keeps no state roots: a snapshot's tree
    keeps the digests it has hashed.
    """

    def __init__(self, states: list[VmState], oracle: PreimageOracle | None = None):
        self.states = states
        self.oracle = oracle

    def __len__(self) -> int:
        return self.states[-1].step_count - self.states[0].step_count

    @property
    def scheme(self) -> HashScheme:
        """The hash scheme the trace's states are rooted under."""
        return self.states[0].scheme

    def root_at(self, index: int) -> bytes:
        """State root at `index`, extending past HALT by the exit fixpoint."""
        return state_root(self.state_at(index))

    def state_at(self, index: int) -> VmState:
        """State at `index`, extending past HALT by the exit fixpoint."""
        return next(self.walk(index))

    def walk(self, start: int = 0) -> Iterator[VmState]:
        """Every state from `start` (clamped to `len`) to the final one,
        each snapshot as kept, so a fork's faulted state stays in force."""
        states = self.states
        target = states[0].step_count + min(start, len(self))
        for j in range(bisect_right(states, target, key=_step_count) - 1, len(states) - 1):
            snapshot, between = states[j], states[j + 1].step_count - states[j].step_count - 1
            replay = islice(_successors(snapshot, self.oracle, math.inf, 1), between)
            for state in chain((snapshot,), replay):
                if state.step_count >= target:
                    yield state
        yield states[-1]

    def fork(self, fault: StepFault) -> Trace:
        """This trace with `fault` injected: its own snapshots before
        `fault.step`, then a run of the rest under its oracle. The fork is
        held to MAX_STEPS in total, shared prefix included; the faulted
        state counts `fault.step` steps, and an exited one takes no more. A
        fault outside 1..len(self) never applies: returns self."""
        if not 1 <= fault.step <= len(self):
            return self
        corrupted = fault.apply(step(self.state_at(fault.step - 1), self.oracle))
        suffix = run_trace(corrupted, self.oracle)
        shared = bisect_left(self.states, corrupted.step_count, key=_step_count)
        return Trace(self.states[:shared] + suffix.states, self.oracle)


_step_count = attrgetter("step_count")


def find_store_step(trace: Trace, pc: int) -> int:
    """First step (1-based) that executes the instruction at `pc`, for a
    trace whose pc never falls before exit, as in the programs opml builds,
    which branch only forward."""
    states = trace.states
    below = states[max(bisect_left(states, pc, key=attrgetter("pc")) - 1, 0)]
    for state in trace.walk(below.step_count - states[0].step_count):
        if state.exited or state.pc > pc:
            break
        if state.pc == pc:
            return state.step_count - states[0].step_count + 1
    raise ValueError(f"no step executes pc {pc:#x}")


def run_trace(state: VmState, oracle: PreimageOracle | None = None) -> Trace:
    """Execute to HALT keeping a `Trace`'s snapshots. The budget is
    MAX_STEPS, as in `run`."""
    states = [state]
    states += _successors(state, oracle, MAX_STEPS, SNAPSHOT_EVERY, READ_BLOCK_LEVEL)
    return Trace(states, oracle)


# ---------------------------------------------------------------------------
# One-step witnesses and the contract-side verifier.
# ---------------------------------------------------------------------------


@dataclass
class PreimageChunk:
    key: bytes
    index: int
    data: bytes


@dataclass
class StepWitness:
    """Everything an arbiter needs to re-execute one step against a root.

    Bounded by construction: at most one fetch read plus one extra fetch
    leaf (LI straddling a leaf), one data or oracle-key read, one write,
    and one 32-byte preimage chunk.
    """

    pre_fields: VmFields
    mem_reads: list[tuple[int, bytes, merkle.MerkleProof]] = field(default_factory=list)
    mem_writes: list[tuple[int, bytes, bytes, merkle.MerkleProof]] = field(default_factory=list)
    preimage_chunk: PreimageChunk | None = None

    def to_bytes(self) -> bytes:
        out = bytearray(self.pre_fields.to_bytes())
        out.append(len(self.mem_reads))
        for addr, leaf, proof in self.mem_reads:
            out += struct.pack("<I", addr)
            out += leaf
            out += proof.to_bytes()
        out.append(len(self.mem_writes))
        for addr, old, new, proof in self.mem_writes:
            out += struct.pack("<I", addr)
            out += old
            out += new
            out += proof.to_bytes()
        if self.preimage_chunk is None:
            out.append(0)
        else:
            out.append(1)
            out += self.preimage_chunk.key
            out += struct.pack("<I", self.preimage_chunk.index)
            out += self.preimage_chunk.data
        return bytes(out)

    @classmethod
    def read(cls, r: Reader) -> "StepWitness":
        fields_ = VmFields.read(r)
        reads = [(r.u32("read record"), r.take(32, "read record"), merkle.MerkleProof.read(r))
                 for _ in range(r.u8("read count"))]
        writes = [(r.u32("write record"), r.take(32, "write record"), r.take(32, "write record"),
                   merkle.MerkleProof.read(r)) for _ in range(r.u8("write count"))]
        chunk = None
        flag = r.u8("chunk flag")
        if flag == 1:
            chunk = PreimageChunk(r.take(32, "preimage chunk"), r.u32("preimage chunk"),
                                  r.take(32, "preimage chunk"))
        elif flag != 0:
            raise ParseError(r.offset - 1, "bad chunk flag")
        return cls(fields_, reads, writes, chunk)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StepWitness":
        r = Reader(data)
        witness = cls.read(r)
        r.end("witness")
        return witness


def gen_step_witness(state: VmState, oracle: PreimageOracle | None = None,
                     proofs: dict | None = None) -> StepWitness:
    """Witness for the step about to execute from `state` (pre-state); an
    exited state does not step, so its witness is the fields alone.
    `proofs` maps (memory root, leaf base) to (leaf, proof); a caller that
    witnesses many states shares one dict. The witness is the same either way."""
    fields = state.fields()
    if state.exited:
        return StepWitness(fields)
    mem = _RecordingMemory(state.memory, oracle, fields.memory_root,
                           {} if proofs is None else proofs)
    _execute(state.pc, list(state.regs), mem)
    return StepWitness(fields, mem.reads, mem.writes, mem.preimage_chunk)


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: str
    recomputed_post: bytes | None
    #: False when the witness itself is inconsistent (bad hashes/proofs);
    #: arbitration charges such a rejection to the witness author.
    witness_ok: bool


def _reject(reason: str) -> Verdict:
    return Verdict(False, reason, None, False)


def _proof_holds(root: bytes, claimed: bytes, proof: merkle.MerkleProof,
                 proven: set[tuple], scheme: HashScheme) -> bool:
    """`merkle.verify`, run once per key in `proven`, which holds accepted proofs only."""
    key = (root, claimed, proof.leaf_index, proof.subtree_level, tuple(proof.siblings))
    if key not in proven and merkle.verify(root, claimed, proof, scheme):
        proven.add(key)
    return key in proven


def verify_step(
    pre_root: bytes,
    claimed_post_root: bytes,
    witness: StepWitness,
    preimage_chunk_check: bool = True,
    preimages: PreimageOracle | None = None,
    *,
    scheme: HashScheme,
    proven: set[tuple] | None = None,
) -> Verdict:
    """Contract-side one-step check: O(1) work, no tree ever materialized.

    Accepts iff the witness fields hash to `pre_root`, every proof checks
    out against the witnessed memory root, and re-executing the fetched
    instruction over the witnessed leaves lands exactly on
    `claimed_post_root`. All inputs are treated as hostile. Each proof is
    checked through `proven`, the proofs already accepted under `scheme`,
    which a chain of steps shares; the verdict is the same.
    """
    proven = set() if proven is None else proven
    f = witness.pre_fields
    if (len(f.regs) != 16 or f.regs[0] != 0 or not 0 <= f.pc <= MASK32
            or not all(0 <= r <= MASK32 for r in f.regs) or not 0 <= f.exit_code <= 0xFF):
        return _reject("bad-register-file")
    if f.state_root(scheme) != pre_root:
        return _reject("pre-fields-mismatch")

    if f.exited:
        if witness.mem_reads or witness.mem_writes or witness.preimage_chunk:
            return _reject("witness-not-minimal")
        post = pre_root
        return Verdict(post == claimed_post_root, "" if post == claimed_post_root else "post-root-mismatch", post, True)

    leaves: dict[int, bytes] = {}
    for addr, leaf, proof in witness.mem_reads:
        if addr % 32 != 0 or len(leaf) != 32:
            return _reject("bad-read-record")
        if proof.leaf_index != addr // 32 or proof.subtree_level != 0:
            return _reject("read-proof-wrong-slot")
        if addr in leaves:
            return _reject("duplicate-read")
        if not _proof_holds(f.memory_root, scheme.leaf_hash(leaf), proof, proven, scheme):
            return _reject("read-proof-invalid")
        leaves[addr] = leaf

    mem = _WitnessMemory(leaves, witness, preimages, preimage_chunk_check)
    regs = list(f.regs)
    try:
        pc, exited, exit_code, _ = _execute(f.pc, regs, mem)
    except _Rejected as exc:
        return _reject(str(exc))

    # The witness must be exactly the required access set, nothing more.
    if mem.used != set(leaves):
        return _reject("witness-not-minimal")
    if witness.preimage_chunk is not None and not mem.chunk_served:
        return _reject("witness-not-minimal")

    post_mem_root = f.memory_root
    if mem.write is None:
        if witness.mem_writes:
            return _reject("witness-not-minimal")
    else:
        if len(witness.mem_writes) != 1:
            return _reject("missing-write-record")
        addr, old, new, proof = witness.mem_writes[0]
        base, computed_new = mem.write
        if addr != base or len(new) != 32:  # the old leaf was checked at the write
            return _reject("write-record-wrong-slot")
        if proof.leaf_index != base // 32 or proof.subtree_level != 0:
            return _reject("write-proof-wrong-slot")
        if not _proof_holds(f.memory_root, scheme.leaf_hash(old), proof, proven, scheme):
            return _reject("write-proof-invalid")
        if new != computed_new:
            return _reject("write-value-mismatch")
        post_mem_root = merkle.recompute_root(scheme.leaf_hash(computed_new), proof, scheme)

    post_root = VmFields(pc, tuple(regs), exited, exit_code, post_mem_root).state_root(scheme)
    if post_root != claimed_post_root:
        return Verdict(False, "post-root-mismatch", post_root, True)
    return Verdict(True, "", post_root, True)
