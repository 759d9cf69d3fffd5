"""MiniVM semantics, determinism, witnesses and the one-step verifier."""

import gc
import inspect
import random
import struct
import tracemalloc
from dataclasses import replace

import pytest

from opml import fpvm, lowering, merkle
from opml.fpvm import (
    HEAP_BASE,
    ORACLE_KEY_BASE,
    ORACLE_VALUE_BASE,
    PreimageOracle,
    StepFault,
    assemble,
    encode,
    gen_step_witness,
    load_program,
    run,
    run_trace,
    state_root,
    step,
    verify_step,
)
from opml.hashing import (
    LEAF_PREFIX,
    TREE_DEPTH,
    VM_STATE_PREFIX,
    ZERO_LEAF,
    HashScheme,
    get_scheme,
    scheme_names,
)

from fixtures import build_mlp, counting_scheme, draw_int, rand_tensor

SCHEME = get_scheme("sha256")


def prog(*words: int) -> bytes:
    return assemble(list(words))


def boot(*words: int, input_blob=b"", model_blob=b"") -> fpvm.VmState:
    return load_program(prog(*words), input_blob, model_blob, scheme=SCHEME)


def set_regs(state, **kw):
    regs = list(state.regs)
    for name, value in kw.items():
        regs[int(name[1:])] = value & 0xFFFFFFFF
    state.regs = tuple(regs)
    return state


def test_add():
    st = boot(encode("ADD", rd=1, rs=2, rt=3), encode("HALT"))
    st = set_regs(st, r2=5, r3=7)
    nxt = step(st)
    assert nxt.regs[1] == 12
    assert nxt.pc == st.pc + 4
    assert nxt.step_count == 1


def test_add_wraps_at_32_bits():
    st = boot(encode("ADD", rd=1, rs=2, rt=3))
    st = set_regs(st, r2=0x7FFF_FFFF, r3=1)
    nxt = step(st)
    assert nxt.regs[1] == 0x8000_0000
    assert not nxt.exited


def test_halt_then_identity():
    st = boot(encode("HALT", imm=3))
    halted = step(st)
    assert halted.exited and halted.exit_code == 3
    again = step(halted)
    assert again is halted
    assert state_root(again) == state_root(halted)


def test_halt_keeps_all_eight_bits_of_its_code():
    """HALT 200 exits with code 200 (`imm & 0xFF`, docs/formats.md) through
    `run`, `run_trace`, `step` and `verify_step`, against a root built from
    the fields by hand."""
    st = boot(encode("ADD", rd=1, rs=2, rt=3), encode("HALT", imm=200))
    final, steps = run(st)
    trace = run_trace(st)
    pre = trace.state_at(1)
    post = step(pre)
    assert steps == 2 and [final.exit_code, trace.state_at(2).exit_code, post.exit_code] == [200] * 3
    want = fpvm.VmFields(post.pc, post.regs, True, 200, st.memory.root()).state_root(SCHEME)
    assert state_root(final) == trace.root_at(2) == state_root(post) == want
    verdict = verify_step(state_root(pre), want, gen_step_witness(pre), scheme=SCHEME)
    assert verdict.accepted, verdict.reason


def test_r0_write_discarded():
    st = boot(encode("ADD", rd=0, rs=2, rt=3))
    st = set_regs(st, r2=5, r3=7)
    assert step(st).regs[0] == 0


def test_li_loads_next_word():
    st = boot(encode("LI", rd=4), 0xDEADBEEF, encode("HALT"))
    nxt = step(st)
    assert nxt.regs[4] == 0xDEADBEEF
    assert nxt.pc == 8


def test_mulfx_matches_fixed_point_oracle():
    # 1.5 * 2.0 in Q16.16: (98304 * 131072) >> 16 = 196608 = 3.0
    st = boot(encode("MULFX", rd=1, rs=2, rt=3))
    st = set_regs(st, r2=98304, r3=131072)
    assert step(st).regs[1] == 196608
    # negative operand: floor shift semantics
    st = boot(encode("MULFX", rd=1, rs=2, rt=3))
    st = set_regs(st, r2=-3 & 0xFFFFFFFF, r3=1)
    assert fpvm.sign32(step(st).regs[1]) == (-3) >> 16  # -1, floor


def test_sra_is_arithmetic():
    st = boot(encode("SRA", rd=1, rs=2, imm=4))
    st = set_regs(st, r2=-64 & 0xFFFFFFFF)
    assert fpvm.sign32(step(st).regs[1]) == -4


def test_sw_lw_roundtrip():
    addr = HEAP_BASE + 0x40
    st = boot(
        encode("LI", rd=1), addr,
        encode("LI", rd=2), 0x12345678,
        encode("SW", rs=1, rt=2),
        encode("LW", rd=3, rs=1),
        encode("HALT"),
    )
    final, n = run(st)
    assert n == 5
    assert final.regs[3] == 0x12345678
    assert fpvm.read_bytes(final.memory, addr, 4) == struct.pack("<I", 0x12345678)


def test_misaligned_store_traps():
    st = boot(encode("LI", rd=1), HEAP_BASE + 2, encode("SW", rs=1, rt=1))
    final, n = run(st)
    assert final.exited and final.exit_code == fpvm.TRAP_BAD_ALIGN
    assert n == 2


def test_unknown_opcode_traps():
    st = load_program(struct.pack("<I", 0x99 << 24), scheme=SCHEME)
    final, n = run(st)
    assert final.exited and final.exit_code == fpvm.TRAP_BAD_OPCODE
    assert n == 1


def test_branches():
    # BEQ skips the HALT(7) when r1 == r2
    st = boot(
        encode("BEQ", rs=1, rt=2, imm=1),
        encode("HALT", imm=7),
        encode("HALT", imm=0),
    )
    final, _ = run(st)
    assert final.exit_code == 0
    # BLT not taken: falls into HALT(7)
    st = boot(
        encode("BLT", rs=1, rt=2, imm=1),
        encode("HALT", imm=7),
        encode("HALT", imm=0),
    )
    final, _ = run(st)
    assert final.exit_code == 7


def test_jmp_links_and_jumps():
    st = boot(
        encode("LI", rd=1), 16,
        encode("JMP", rd=2, rs=1),
        encode("HALT", imm=9),  # skipped
        encode("HALT", imm=0),  # at byte 16
    )
    final, _ = run(st)
    assert final.exit_code == 0
    assert final.regs[2] == 12  # return address after the JMP


def test_empty_program_is_one_step():
    st = boot(encode("HALT"))
    final, n = run(st)
    assert n == 1
    assert final.memory.subtree_root(fpvm.OUTPUT_BASE, fpvm.OUTPUT_LEVEL) == SCHEME.zero_hashes[fpvm.OUTPUT_LEVEL]


def test_budget_exceeded_carries_state(monkeypatch):
    st = boot(encode("BEQ", rs=0, rt=0, imm=-1))  # tight infinite loop
    monkeypatch.setattr(fpvm, "MAX_STEPS", 10)
    with pytest.raises(fpvm.BudgetExceededError) as exc:
        run(st)
    assert exc.value.steps == 10
    assert not exc.value.state.exited


def test_run_and_run_trace_take_no_budget(monkeypatch):
    """The budget is `fpvm.MAX_STEPS`, read on each call, not a parameter."""
    for runner in (fpvm.run, fpvm.run_trace):
        assert list(inspect.signature(runner).parameters) == ["state", "oracle"]
    st = boot(encode("BEQ", rs=0, rt=0, imm=-1))
    for budget in (3, 7):
        monkeypatch.setattr(fpvm, "MAX_STEPS", budget)
        for runner in (run, run_trace):
            with pytest.raises(fpvm.BudgetExceededError) as exc:
                runner(st)
            assert exc.value.steps == budget


def test_preimage_loads_chunks():
    oracle = PreimageOracle(SCHEME)
    value = bytes(range(80))  # 3 chunks, last one padded
    key = oracle.put(value)
    st = boot(
        encode("LI", rd=1), 1,       # dest leaf offset 1
        encode("LI", rd=2), 2,       # chunk index 2
        encode("PREIMAGE", rd=1, rs=2),
        encode("HALT"),
    )
    st.memory = fpvm.write_bytes(st.memory, ORACLE_KEY_BASE, key)
    final, _ = run(st, oracle)
    got = final.memory.get_leaf(ORACLE_VALUE_BASE // 32 + 1)
    assert got == value[64:80] + b"\x00" * 16


def test_preimage_missing_key_raises():
    st = boot(encode("PREIMAGE", rd=1, rs=2), encode("HALT"))
    with pytest.raises(fpvm.MissingPreimageError):
        run(st, PreimageOracle(SCHEME))
    with pytest.raises(fpvm.MissingPreimageError, match="no oracle attached"):
        run(st)
    with pytest.raises(fpvm.MissingPreimageError, match="witness generation needs the oracle"):
        gen_step_witness(st)


def test_encode_and_write_bytes_reject_what_the_vm_cannot_hold():
    with pytest.raises(ValueError, match="immediate 2048 out of 12-bit signed range"):
        encode("ADD", imm=0x800)
    with pytest.raises(merkle.AlignmentError, match="not leaf aligned"):
        fpvm.write_bytes(merkle.MemTree(SCHEME), 4, b"x")


def test_preimage_out_of_region_traps_and_verifies():
    oracle = PreimageOracle(SCHEME)
    key = oracle.put(b"payload")
    st = boot(
        encode("LI", rd=1), 0x00FF_FFFF,  # way past the oracle-value region
        encode("PREIMAGE", rd=1, rs=2),
    )
    st.memory = fpvm.write_bytes(st.memory, ORACLE_KEY_BASE, key)
    pre = run_trace(st, oracle).state_at(1)
    post = step(pre, oracle)
    assert post.exited and post.exit_code == fpvm.TRAP_BAD_REGION
    w = gen_step_witness(pre, oracle)
    verdict = verify_step(state_root(pre), state_root(post), w,
                          preimages=oracle, scheme=SCHEME)
    assert verdict.accepted, verdict.reason


def test_state_root_sensitivity():
    a = boot(encode("HALT"))
    b = boot(encode("HALT"))
    assert state_root(a) == state_root(b)
    b.pc = 4
    assert state_root(a) != state_root(b)


def test_run_trace_matches_folding_step():
    """`run_trace` steps over one run view, `step` over a fresh view each
    call; a leaf the run view failed to write through would show as a root
    mismatch at the step that stores it."""
    program = _random_program(random.Random(20), 1200)
    trace = run_trace(load_program(program, scheme=SCHEME))
    assert len(trace) == 1200
    state = trace.state_at(0)
    for k in range(len(trace) + 3):
        assert state_root(state) == trace.root_at(k)
        state = step(state)


@pytest.mark.parametrize("case", ["mlp", "synthetic"])
def test_a_run_reads_each_leaf_from_the_tree_once(monkeypatch, case):
    """The run view serves every later read of a leaf from its own dict: a
    whole run reads each aligned block once, and reads no leaf alone that
    a block read has served. `step` and a trace's replays read one leaf
    per miss, through `leaf_block` too."""
    if case == "mlp":
        graph = build_mlp(seed=13, in_dim=3, hidden=5, out_dim=4)
        state = lowering.lower_graph(graph).initial_state(rand_tensor(random.Random(13), (1, 3)), SCHEME)
    else:
        state = load_program(_random_program(random.Random(27), 400), scheme=SCHEME)
    reads = []  # (first leaf, leaf count) of each read from the tree, `get_leaf`'s too
    real_block = merkle.MemTree.leaf_block

    def leaf_block(tree, index, level, out):
        reads.append((index >> level << level, 1 << level))
        return real_block(tree, index, level, out)

    monkeypatch.setattr(merkle.MemTree, "leaf_block", leaf_block)
    trace = run_trace(state)
    assert reads and {count for _, count in reads} == {1 << fpvm.READ_BLOCK_LEVEL}
    served = [first + i for first, count in reads for i in range(count)]
    assert len(served) == len(set(served))
    reads.clear()
    step(state)
    assert reads and {count for _, count in reads} == {1} and len(reads) == len(set(reads))
    reads.clear()
    assert list(trace.walk())[-1] is trace.states[-1]
    assert reads and {count for _, count in reads} == {1}


def _state_hashes(calls: list[bytes]) -> int:
    # Node inputs are 64 bytes and may start with any byte; state inputs are not.
    return sum(1 for data in calls if len(data) != 64 and data[:1] == VM_STATE_PREFIX)


def test_trace_roots_are_hashed_on_demand():
    scheme, calls = counting_scheme()
    trace = run_trace(load_program(_random_program(random.Random(25), 50), scheme=scheme))
    assert _state_hashes(calls) == 0  # run_trace itself hashes no state root
    for i in range(len(trace) + 1):
        assert trace.root_at(i) == state_root(trace.state_at(i))
    assert trace.root_at(len(trace) + 5) == trace.root_at(len(trace)) == state_root(trace.state_at(len(trace)))
    state_hashes = _state_hashes(calls)
    assert trace.root_at(3) == state_root(trace.state_at(3))
    assert _state_hashes(calls) == state_hashes + 2  # root_at hashes it again: a trace keeps no roots


def _written_leaves(trace) -> set[int]:
    """Index of each leaf a store of `trace` writes, from the write record of
    each step's witness."""
    return {addr // 32 for state in trace.walk() if not state.exited
            for addr, *_ in gen_step_witness(state, trace.oracle).mem_writes}


def test_run_trace_hashes_nothing():
    """A run writes no store to a tree and hashes nothing; the last root
    then hashes each path the run wrote once, not once per store."""
    program = _random_program(random.Random(26), 600)
    written = _written_leaves(run_trace(load_program(program, scheme=SCHEME)))
    assert len(written) > 20  # store-heavy: the program writes many distinct leaves
    scheme, calls = counting_scheme()
    state = load_program(program, scheme=scheme)
    calls.clear()
    trace = run_trace(state)
    assert calls == [] and len(trace) == 600

    final = trace.state_at(len(trace))
    leaves = {i // 32: program[i : i + 32].ljust(32, b"\x00") for i in range(0, len(program), 32)}
    leaves.update((index, final.memory.get_leaf(index)) for index in written)
    memory_root = merkle.root_from_regions(
        [(index, 0, SCHEME.leaf_hash(leaf)) for index, leaf in leaves.items() if leaf != ZERO_LEAF],
        SCHEME)
    reference = fpvm.VmFields(final.pc, final.regs, final.exited, final.exit_code,
                              memory_root).state_root(SCHEME)
    assert trace.root_at(len(trace)) == reference
    assert len(calls) <= 27 * len(written) + 1


def test_run_trace_makes_no_tree_node(monkeypatch):
    """`run_trace` neither copies a path nor calls `update_leaf`: it makes no
    `merkle._Node` at all. Its first root query builds the nodes."""
    made = []
    monkeypatch.setattr(merkle._Node, "__init__", lambda node, *args, init=merkle._Node.__init__:
                        made.append(node) or init(node, *args))
    state = load_program(_random_program(random.Random(35), 800), scheme=SCHEME)
    made.clear()
    trace = run_trace(state)
    assert made == [] and len(trace) == 800
    trace.root_at(400)
    assert made


def test_snapshots_built_in_any_order_equal_the_eagerly_stepped_states():
    """Each snapshot of a store-heavy trace, built newest first or in a
    shuffled order, equals the state folding `step` reaches from state 0,
    each state built as soon as it is stepped to: in roots, in every leaf
    of the written block and the code, and in the proofs of those leaves."""
    program = _random_program(random.Random(36), 700)
    state0 = load_program(program, scheme=SCHEME)
    eager = [state0]
    while not eager[-1].exited:
        eager.append(step(eager[-1]))
        eager[-1].memory.root()
    heap, code = HEAP_BASE // 32, range(0, (len(program) + 31) // 32)
    orders = [list(range(len(run_trace(state0).states) - 1, -1, -1))]
    orders.append(random.Random(37).sample(orders[0], len(orders[0])))
    for order in orders:
        trace = run_trace(state0)
        for i in order:
            got = trace.states[i]
            want = eager[got.step_count]
            assert state_root(got) == state_root(want)
            blocks = [{}, {}]
            got.memory.leaf_block(heap, 5, blocks[0])
            want.memory.leaf_block(heap, 5, blocks[1])
            assert blocks[0] == blocks[1]
            for index in [*range(heap, heap + 32), *code]:
                assert got.memory.get_leaf(index) == want.memory.get_leaf(index)
                assert got.memory.prove(index) == want.memory.prove(index)


def test_a_trace_holds_under_120_bytes_per_step():
    """What a 20k-step store-heavy trace holds, measured by tracemalloc as
    the bytes freed when it is dropped (so the process-wide decode memo,
    which a longer run cannot grow past its bound, is not counted): its
    snapshots, each with its registers and the leaves written since the
    one before, not a tree path per store."""
    state = load_program(_random_program(random.Random(38), 20_000), scheme=SCHEME)
    tracemalloc.start()
    try:
        trace = run_trace(state)
        steps, held = len(trace), tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert steps == 20_000 and held / steps <= 120


def _random_program(rng: random.Random, n_steps: int) -> bytes:
    """Straight-line program with exactly n_steps steps (incl. HALT)."""
    from opml.dispute import synthetic_program

    return synthetic_program(rng, n_steps)


def test_decode_memo_evicts_when_full_and_the_run_is_unchanged(monkeypatch):
    """A program with more distinct words than the memo holds clears it
    again and again; every root stays the one an unbounded memo gives."""
    program = _random_program(random.Random(28), 1000)
    expected = run_trace(load_program(program, scheme=SCHEME))
    sizes = []

    class Memo(dict):
        def __setitem__(self, word, fields):
            super().__setitem__(word, fields)
            sizes.append(len(self))

    monkeypatch.setattr(fpvm, "_SPLIT_MAX", 8)
    monkeypatch.setattr(fpvm, "_SPLIT", Memo())
    trace = run_trace(load_program(program, scheme=SCHEME))
    assert len(trace) == len(expected) == 1000
    assert [trace.root_at(i) for i in range(1001)] == [expected.root_at(i) for i in range(1001)]
    assert max(sizes) == 8 and sizes.count(1) > 10  # filled and cleared many times


def test_determinism_over_random_programs():
    rng = random.Random(21)
    for _ in range(100):
        program = _random_program(rng, rng.randrange(4, 120))
        a, na = run(load_program(program, scheme=SCHEME))
        b, nb = run(load_program(program, scheme=SCHEME))
        assert na == nb
        assert state_root(a) == state_root(b)
        assert fpvm.read_bytes(a.memory, HEAP_BASE, 64) == fpvm.read_bytes(b.memory, HEAP_BASE, 64)


def test_witness_shape_for_add_and_sw():
    st = boot(encode("ADD", rd=1, rs=2, rt=3))
    w = gen_step_witness(st)
    assert len(w.mem_reads) == 1 and len(w.mem_writes) == 0

    st = boot(
        encode("LI", rd=1), HEAP_BASE,
        encode("SW", rs=1, rt=1),
    )
    st = run_trace(st).state_at(1)
    w = gen_step_witness(st)
    assert len(w.mem_reads) == 1 and len(w.mem_writes) == 1


def test_witness_serialization_roundtrip():
    st = boot(encode("ADD", rd=1, rs=2, rt=3))
    w = gen_step_witness(st)
    blob = w.to_bytes()
    back = fpvm.StepWitness.from_bytes(blob)
    assert back.to_bytes() == blob


def test_verify_step_fuzz_against_vm():
    """Every honest witness recomputes exactly the root step() produces."""
    rng = random.Random(22)
    checked = 0
    for _ in range(12):
        program = _random_program(rng, rng.randrange(6, 60))
        trace = run_trace(load_program(program, scheme=SCHEME))
        for k in rng.sample(range(len(trace)), min(8, len(trace))):
            pre = trace.state_at(k)
            w = gen_step_witness(pre)
            verdict = verify_step(trace.root_at(k), trace.root_at(k + 1), w, scheme=SCHEME)
            assert verdict.accepted, verdict.reason
            assert verdict.recomputed_post == trace.root_at(k + 1)
            checked += 1
    assert checked >= 60


def test_verify_step_rejects_wrong_claims():
    st = boot(encode("ADD", rd=1, rs=2, rt=3), encode("HALT"))
    st = set_regs(st, r2=5, r3=7)
    pre_root = state_root(st)
    post_root = state_root(step(st))
    w = gen_step_witness(st)
    flipped = bytearray(post_root)
    flipped[0] ^= 1
    verdict = verify_step(pre_root, bytes(flipped), w, scheme=SCHEME)
    assert not verdict.accepted and verdict.reason == "post-root-mismatch"
    assert verdict.witness_ok  # honest witness, fraudulent claim

    # witness proof aimed at the wrong address is charged to the witness
    addr, leaf, proof = w.mem_reads[0]
    bad_proof = merkle.MerkleProof(proof.leaf_index + 1, 0, proof.siblings)
    w_bad = fpvm.StepWitness(w.pre_fields, [(addr + 32, leaf, bad_proof)], [], None)
    verdict = verify_step(pre_root, post_root, w_bad, scheme=SCHEME)
    assert not verdict.accepted and not verdict.witness_ok


def test_verify_step_mutation_sample():
    rng = random.Random(23)
    program = _random_program(rng, 50)
    trace = run_trace(load_program(program, scheme=SCHEME))
    k = len(trace) // 2
    w = gen_step_witness(trace.state_at(k))
    blob = w.to_bytes()
    assert len(blob) <= 4096
    assert verify_step(trace.root_at(k), trace.root_at(k + 1), w, scheme=SCHEME).accepted
    for _ in range(300):
        mutated = bytearray(blob)
        mutated[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        try:
            bad = fpvm.StepWitness.from_bytes(bytes(mutated))
        except ValueError:
            continue
        verdict = verify_step(trace.root_at(k), trace.root_at(k + 1), bad, scheme=SCHEME)
        assert not verdict.accepted


def test_verify_step_rejects_a_short_read_proof():
    trace = run_trace(boot(encode("LI", rd=1), HEAP_BASE, encode("LW", rd=2, rs=1)))
    w = gen_step_witness(trace.state_at(1))  # the LW: a fetch read and a data read
    assert verify_step(trace.root_at(1), trace.root_at(2), w, scheme=SCHEME).accepted
    addr, leaf, proof = w.mem_reads[-1]
    short = merkle.MerkleProof(proof.leaf_index, 0, proof.siblings[:26])
    bad = replace(w, mem_reads=w.mem_reads[:-1] + [(addr, leaf, short)])
    verdict = verify_step(trace.root_at(1), trace.root_at(2), bad, scheme=SCHEME)
    assert (verdict.accepted, verdict.reason) == (False, "read-proof-invalid")


def test_verify_step_exited_identity():
    st = boot(encode("HALT"))
    halted = step(st)
    root = state_root(halted)
    w = fpvm.StepWitness(halted.fields())
    assert verify_step(root, root, w, scheme=SCHEME).accepted
    other = bytearray(root)
    other[5] ^= 4
    assert not verify_step(root, bytes(other), w, scheme=SCHEME).accepted


NOP = encode("ADD")  # ADD r0, r0, r0


def _scenario(name: str):
    """(pre-state, oracle, honest witness) for one kind of step."""
    oracle = None
    if name == "add":
        pre = set_regs(boot(encode("ADD", rd=1, rs=2, rt=3), encode("HALT")), r2=5, r3=7)
    elif name == "halted":
        pre = step(boot(encode("HALT", imm=3)))
    elif name == "li-straddle":  # LI on the last word of leaf 0
        pre = run_trace(boot(*[NOP] * 7, encode("LI", rd=1), 0xCAFE, encode("HALT"))).state_at(7)
    elif name == "lw":
        pre = run_trace(boot(encode("LI", rd=1), HEAP_BASE + 0x40, encode("LW", rd=3, rs=1))).state_at(1)
    elif name == "sw":
        pre = run_trace(boot(encode("LI", rd=1), HEAP_BASE, encode("LI", rd=2), 0x12345678,
                             encode("SW", rs=1, rt=2))).state_at(2)
    else:  # "preimage": chunk 2 of an 80-byte value into oracle-value leaf 1
        oracle = PreimageOracle(SCHEME)
        st = boot(encode("LI", rd=1), 1, encode("LI", rd=2), 2, encode("PREIMAGE", rd=1, rs=2))
        st.memory = fpvm.write_bytes(st.memory, ORACLE_KEY_BASE, oracle.put(bytes(range(80))))
        pre = run_trace(st, oracle).state_at(2)
    witness = fpvm.StepWitness(pre.fields()) if pre.exited else gen_step_witness(pre, oracle)
    return pre, oracle, witness


def _flip(data: bytes, i: int = 31) -> bytes:
    out = bytearray(data)
    out[i] ^= 1
    return bytes(out)


def _leaf_record(pre, base: int):
    return base, pre.memory.get_leaf(base // 32), pre.memory.prove(base // 32)


def _fields(**kw):
    return lambda w, pre: replace(w, pre_fields=replace(w.pre_fields, **kw))


def _reads(f):
    return lambda w, pre: replace(w, mem_reads=f(w.mem_reads, pre))


def _writes(f):
    return lambda w, pre: replace(w, mem_writes=f(w.mem_writes))


def _first_write(f):
    return _writes(lambda ws: [f(*ws[0])])


def _chunk(**kw):
    return lambda w, pre: replace(w, preimage_chunk=replace(w.preimage_chunk, **kw) if kw else None)


def _keep(w, pre):
    return w


def _writes_unchanged_fetch_leaf(w, pre):
    base, leaf, proof = _leaf_record(pre, 0)
    return replace(w, mem_writes=[(base, leaf, leaf, proof)])


REJECT_TABLE = [
    pytest.param("bad-register-file", "add", _fields(regs=(1,) + (0,) * 15), {}, id="r0-nonzero"),
    pytest.param("bad-register-file", "add", _fields(regs=(0, 1 << 32) + (0,) * 14), {}, id="register-above-u32"),
    pytest.param("bad-register-file", "add", _fields(pc=-4), {}, id="negative-pc"),
    pytest.param("bad-register-file", "halted", _fields(exit_code=0x100), {}, id="exit-code-above-u8"),
    pytest.param("pre-fields-mismatch", "add", _fields(pc=4), {}, id="pc-changed"),
    pytest.param("witness-not-minimal", "halted", _reads(lambda r, pre: [_leaf_record(pre, 0)]), {},
                 id="read-after-exit"),
    pytest.param("witness-not-minimal", "add", _reads(lambda r, pre: r + [_leaf_record(pre, HEAP_BASE)]), {},
                 id="unused-read"),
    pytest.param("witness-not-minimal", "add",
                 lambda w, pre: replace(w, preimage_chunk=fpvm.PreimageChunk(bytes(32), 0, bytes(32))), {},
                 id="chunk-without-preimage"),
    pytest.param("witness-not-minimal", "add", _writes_unchanged_fetch_leaf, {}, id="write-without-store"),
    pytest.param("bad-read-record", "add", _reads(lambda r, pre: [(4,) + r[0][1:]]), {}, id="unaligned-addr"),
    pytest.param("read-proof-wrong-slot", "add",
                 _reads(lambda r, pre: [(0, r[0][1], replace(r[0][2], leaf_index=1))]), {}, id="proof-index"),
    pytest.param("duplicate-read", "add", _reads(lambda r, pre: r + r), {}, id="fetch-twice"),
    pytest.param("read-proof-invalid", "add", _reads(lambda r, pre: [(0, _flip(r[0][1]), r[0][2])]), {},
                 id="leaf-flipped"),
    pytest.param("missing-fetch-leaf", "add", _reads(lambda r, pre: []), {}, id="no-reads"),
    pytest.param("missing-li-leaf", "li-straddle", _reads(lambda r, pre: r[:1]), {}, id="second-leaf"),
    pytest.param("missing-load-leaf", "lw", _reads(lambda r, pre: r[:1]), {}, id="data-leaf"),
    pytest.param("missing-key-leaf", "preimage", _reads(lambda r, pre: r[:1]), {}, id="key-leaf"),
    pytest.param("missing-write-record", "sw", _writes(lambda ws: []), {}, id="sw-no-write"),
    pytest.param("missing-write-record", "sw", _writes(lambda ws: ws + ws), {}, id="sw-two-writes"),
    pytest.param("missing-write-record", "preimage", _writes(lambda ws: []), {}, id="preimage-no-write"),
    pytest.param("missing-write-record", "sw",
                 lambda w, pre: replace(w, mem_reads=w.mem_reads + [_leaf_record(pre, 0x40)], mem_writes=[]), {},
                 id="before-minimality"),
    pytest.param("missing-preimage-chunk", "preimage", _chunk(), {}, id="no-chunk"),
    pytest.param("preimage-chunk-wrong-slot", "preimage", _chunk(index=3), {}, id="chunk-index"),
    pytest.param("preimage-unavailable", "preimage", _keep, {"preimages": None}, id="no-oracle"),
    pytest.param("preimage-chunk-mismatch", "preimage", _chunk(data=_flip(bytes(32))), {}, id="chunk-data"),
    pytest.param("write-value-mismatch", "preimage", _chunk(data=_flip(bytes(32))), {"chunk_check": False},
                 id="unchecked-chunk-data"),
    pytest.param("write-record-wrong-slot", "sw", _first_write(lambda a, old, new, p: (a, old, new + b"\0", p)), {},
                 id="long-new-leaf"),
    pytest.param("write-record-wrong-slot", "sw", _first_write(lambda a, old, new, p: (a, old[:2], new, p)), {},
                 id="short-old-leaf"),
    pytest.param("write-proof-wrong-slot", "sw",
                 _first_write(lambda a, old, new, p: (a, old, new, replace(p, leaf_index=p.leaf_index + 1))), {},
                 id="proof-index"),
    pytest.param("write-proof-invalid", "sw", _first_write(lambda a, old, new, p: (a, _flip(old), new, p)), {},
                 id="old-flipped"),
    pytest.param("write-value-mismatch", "sw", _first_write(lambda a, old, new, p: (a, old, _flip(new), p)), {},
                 id="new-flipped"),
    pytest.param("post-root-mismatch", "add", _keep, {"flip_claim": True}, id="wrong-claim"),
    pytest.param("post-root-mismatch", "halted", _keep, {"flip_claim": True}, id="exited-wrong-claim"),
]


@pytest.mark.parametrize("reason, scenario, mutate, opts", REJECT_TABLE)
def test_verify_step_reject_reasons(reason, scenario, mutate, opts):
    """Each reject reason, its precedence, and who it is charged to: only a
    wrong claim leaves witness_ok set."""
    pre, oracle, witness = _scenario(scenario)
    post_root = state_root(step(pre, oracle))
    if opts.get("flip_claim"):
        post_root = _flip(post_root, 0)
    verdict = verify_step(state_root(pre), post_root, mutate(witness, pre),
                          preimage_chunk_check=opts.get("chunk_check", True),
                          preimages=opts.get("preimages", oracle), scheme=SCHEME)
    assert (verdict.accepted, verdict.reason) == (False, reason)
    assert verdict.witness_ok == (reason == "post-root-mismatch")


# Generated programs for the prover/verifier agreement property. r8 holds
# the heap pointer; r9-r11 are scratch for the jump and PREIMAGE blocks.
_ALU_OPS = ["ADD", "SUB", "MUL", "MULFX", "AND"]
_ORACLE_VALUE_LEAVES = (fpvm.MODEL_BASE - ORACLE_VALUE_BASE) // 32
_PREIMAGE_VALUE = bytes(range(200))  # 7 chunks, the last one zero padded


def _program_words(blocks) -> list[int]:
    words = [encode("LI", rd=8), HEAP_BASE]
    for kind, *args in blocks:
        if kind == "alu":
            op, rd, rs, rt = args
            words.append(encode(op, rd=rd, rs=rs, rt=rt))
        elif kind == "sra":
            rd, rs, imm = args
            words.append(encode("SRA", rd=rd, rs=rs, imm=imm))
        elif kind == "li":  # optionally on a leaf's last word: immediate in the next leaf
            rd, value, straddle = args
            if straddle:
                words += [NOP] * (-(len(words) + 1) % 8)
            words += [encode("LI", rd=rd), value]
        elif kind in ("LW", "SW"):  # base r8 (heap) or r0 (code); a misaligned imm traps
            reg, base, imm = args
            words.append(encode(kind, rd=reg, rs=base, rt=reg, imm=imm))
        elif kind == "branch":  # forward over `skip` no-ops, taken or not
            op, rs, rt, skip = args
            words += [encode(op, rs=rs, rt=rt, imm=skip)] + [NOP] * skip
        elif kind == "jmp":  # absolute through r0, over `skip` no-ops
            rd, skip = args
            words += [encode("JMP", rd=rd, imm=len(words) + 1 + skip)] + [NOP] * skip
        elif kind == "jmp-to":  # through r9 to any target, e.g. a misaligned pc
            rd, target = args
            words += [encode("LI", rd=9), target, encode("JMP", rd=rd, rs=9)]
        elif kind == "preimage":  # chunk `index` into oracle-value leaf `dest`
            dest, index = args
            words += [encode("LI", rd=10), dest, encode("LI", rd=11), index,
                      encode("PREIMAGE", rd=10, rs=11)]
        elif kind == "halt":
            words.append(encode("HALT", imm=args[0]))
        else:  # "raw": one literal word, e.g. an unknown opcode
            words.append(args[0])
    return words


_OPNAMES = {code: name for name, code in fpvm.OPCODES.items()}  # by a word's top byte


def _reg(rng: random.Random) -> int:
    return rng.randint(0, 7)


def _draw_int_where(rng: random.Random, lo: int, hi: int, keep) -> int:
    """`draw_int(rng, lo, hi)`, drawn again until `keep` accepts it."""
    value = draw_int(rng, lo, hi)
    while not keep(value):
        value = draw_int(rng, lo, hi)
    return value


# One draw per block kind, each kind as likely as the others. An end block
# ends the run: HALT, an unknown opcode, a misaligned LW or SW, a jump to a
# misaligned pc, or a PREIMAGE outside the oracle-value region.
_BODY_BLOCKS = [
    lambda rng: ("alu", rng.choice(_ALU_OPS), _reg(rng), _reg(rng), _reg(rng)),
    lambda rng: ("sra", _reg(rng), _reg(rng), draw_int(rng, -0x800, 0x7FF)),
    lambda rng: ("li", _reg(rng), draw_int(rng, 0, fpvm.MASK32), rng.random() < 0.5),
    lambda rng: (rng.choice(("LW", "SW")), _reg(rng), rng.choice((8, 8, 8, 0)), 4 * draw_int(rng, -16, 127)),
    lambda rng: ("branch", rng.choice(("BEQ", "BLT")), _reg(rng), _reg(rng), draw_int(rng, 0, 3)),
    lambda rng: ("jmp", _reg(rng), draw_int(rng, 0, 3)),
    lambda rng: ("preimage", rng.choice((0, 1, 7, _ORACLE_VALUE_LEAVES - 1)), draw_int(rng, 0, 8)),
]
_END_BLOCKS = [
    lambda rng: ("halt", draw_int(rng, -0x800, 0x7FF)),
    lambda rng: ("raw", _draw_int_where(rng, 0, fpvm.MASK32, lambda w: w >> 24 not in _OPNAMES)),
    lambda rng: (rng.choice(("LW", "SW")), _reg(rng), 8, _draw_int_where(rng, -0x800, 0x7FF, lambda imm: imm % 4)),
    lambda rng: ("jmp-to", _reg(rng), _draw_int_where(rng, 0, fpvm.MASK32, lambda t: t % 4)),
    lambda rng: ("preimage", draw_int(rng, _ORACLE_VALUE_LEAVES, fpvm.MASK32), draw_int(rng, 0, 8)),
]


def _generated_program(rng: random.Random) -> list[int]:
    """4 to 24 body blocks, then one block that ends the run."""
    body = [rng.choice(_BODY_BLOCKS)(rng) for _ in range(draw_int(rng, 4, 24))]
    return _program_words(body + [rng.choice(_END_BLOCKS)(rng)])


def _assert_agreement(words: list[int], max_steps: int = 400) -> tuple[set, int | None]:
    """verify_step(root(s), root(step(s)), gen_step_witness(s)) accepts and
    recomputes root(step(s)) at every state reached; returns the opcodes
    executed (None for an unknown one) and the exit code. No view changes
    the registers it is given: the witness and the parsed witness keep
    their own register tuples, and a step that exits (a trap or HALT)
    keeps the pre-state's registers."""
    oracle = PreimageOracle(SCHEME)
    state = boot(*words)
    state.memory = fpvm.write_bytes(state.memory, ORACLE_KEY_BASE, oracle.put(_PREIMAGE_VALUE))
    ops = set()
    for _ in range(max_steps):
        if state.exited:
            break
        if state.pc % 4 == 0:
            word = struct.unpack("<I", fpvm.read_bytes(state.memory, state.pc, 4))[0]
            ops.add(_OPNAMES.get(word >> 24))
        pre_regs = state.regs
        post = step(state, oracle)
        witness = gen_step_witness(state, oracle)
        parsed = fpvm.StepWitness.from_bytes(witness.to_bytes())
        parsed_regs = parsed.pre_fields.regs
        verdict = verify_step(state_root(state), state_root(post), parsed,
                              preimages=oracle, scheme=SCHEME)
        assert verdict.accepted, verdict.reason
        assert verdict.recomputed_post == state_root(post)
        assert witness.pre_fields.regs is state.regs is pre_regs
        assert parsed.pre_fields.regs is parsed_regs and parsed_regs == pre_regs
        assert type(post.regs) is tuple
        if post.exited:
            assert post.regs == pre_regs
        state = post
    return ops, state.exit_code if state.exited else None


def test_prover_verifier_agree_on_generated_programs():
    rng = random.Random(21)
    for _ in range(100):
        _assert_agreement(_generated_program(rng))


# A body that runs every opcode but HALT, and each way to end it with the
# exit code it gives: HALT and every trap.
_EVERY_OPCODE = [("alu", op, 1, 2, 3) for op in _ALU_OPS] + [
    ("sra", 4, 1, 3), ("li", 2, 0x8000_0001, True), ("SW", 2, 8, 12), ("LW", 5, 8, 12),
    ("SW", 0, 0, 0), ("branch", "BEQ", 0, 0, 2), ("branch", "BLT", 2, 0, 1), ("jmp", 6, 2),
    ("preimage", 1, 3), ("preimage", _ORACLE_VALUE_LEAVES - 1, 9),
]
_EVERY_EXIT = {
    ("halt", 7): 7,
    ("raw", 0x99 << 24): fpvm.TRAP_BAD_OPCODE,
    ("LW", 1, 8, 2): fpvm.TRAP_BAD_ALIGN,
    ("SW", 1, 8, -3): fpvm.TRAP_BAD_ALIGN,
    ("jmp-to", 3, 0x1002): fpvm.TRAP_BAD_PC,
    ("preimage", _ORACLE_VALUE_LEAVES, 0): fpvm.TRAP_BAD_REGION,
}


def test_agreement_generator_reaches_every_opcode_and_trap():
    seen = set()
    for end, code in _EVERY_EXIT.items():
        ops, exit_code = _assert_agreement(_program_words(_EVERY_OPCODE + [end]))
        assert exit_code == code
        seen |= ops
    assert seen == set(fpvm.OPCODES) | {None}


def test_an_exit_inside_a_block_ends_whole_runs_where_single_steps_do():
    """HALT and each trap, run by `run` and `run_trace` at a step that ends
    no snapshot block, stop them at the step count, exit code and root
    that folding `step` reaches."""
    oracle = PreimageOracle(SCHEME)
    key = oracle.put(_PREIMAGE_VALUE)
    for end, code in _EVERY_EXIT.items():
        state = boot(*_program_words(_EVERY_OPCODE + [end]))
        state.memory = fpvm.write_bytes(state.memory, ORACLE_KEY_BASE, key)
        final = _whole_runs_read_like_single_steps(state, oracle)
        assert final.exited and final.exit_code == code
        assert final.step_count % fpvm.SNAPSHOT_EVERY


def test_preimage_fetched_from_the_oracle_key_leaf():
    """PREIMAGE executed from the oracle-key leaf reads that leaf twice, as
    fetch and as key; the witness proves it once and verifies."""
    oracle = PreimageOracle(SCHEME)
    n = 0
    while True:  # a key with a word that decodes as PREIMAGE
        key = oracle.put(struct.pack("<I", n))
        offsets = [o for o in range(0, 32, 4) if key[o + 3] == fpvm.OPCODES["PREIMAGE"]]
        if offsets:
            break
        n += 1
    st = boot(encode("LI", rd=9), ORACLE_KEY_BASE + offsets[0], encode("JMP", rs=9))
    st.memory = fpvm.write_bytes(st.memory, ORACLE_KEY_BASE, key)
    pre = run_trace(st, oracle).state_at(2)
    post = step(pre, oracle)
    w = gen_step_witness(pre, oracle)
    assert [addr for addr, _, _ in w.mem_reads] == [ORACLE_KEY_BASE]
    verdict = verify_step(state_root(pre), state_root(post), w, preimages=oracle, scheme=SCHEME)
    assert verdict.accepted, verdict.reason
    assert verdict.recomputed_post == state_root(post)


def test_fault_injection_diverges_persistently():
    rng = random.Random(24)
    program = _random_program(rng, 60)
    st = load_program(program, scheme=SCHEME)
    honest = run_trace(st)
    fault = StepFault(step=20, leaf_index=(HEAP_BASE + 0x100000) // 32, bit=5)
    corrupt = honest.fork(fault)
    assert [honest.root_at(i) for i in range(20)] == [corrupt.root_at(i) for i in range(20)]
    assert all(honest.root_at(i) != corrupt.root_at(i) for i in range(20, len(honest) + 1))


def _faulted_from_scratch(state, fault: StepFault) -> list:
    """Reference: every step from `state`, with the fault applied right
    after step `fault.step`."""
    states = [state]
    while not states[-1].exited:
        nxt = step(states[-1])
        states.append(fault.apply(nxt) if nxt.step_count == fault.step else nxt)
    return states


@pytest.mark.parametrize("leaf_index", [HEAP_BASE // 32, (HEAP_BASE + 0x100000) // 32],
                         ids=["read-back-leaf", "scratch-leaf"])
def test_fork_matches_a_from_scratch_faulty_run(leaf_index):
    honest = run_trace(load_program(_random_program(random.Random(26), 80), scheme=SCHEME))
    n = len(honest)
    every = fpvm.SNAPSHOT_EVERY
    for fault_step in (1, every - 1, every, every + 1, n // 2, n, n + 1, 0):
        fault = StepFault(step=fault_step, leaf_index=leaf_index, bit=fault_step % 256)
        forked = honest.fork(fault)
        reference = _faulted_from_scratch(honest.state_at(0), fault)
        assert len(forked) == len(reference) - 1
        assert [s.pc for s in forked.walk()][:-1] == [s.pc for s in reference[:-1]]  # what find_store_step reads
        roots = [state_root(s) for s in reference]
        assert [forked.root_at(i) for i in range(len(reference))] == roots
        assert [state_root(s) for s in forked.walk(1)] == roots[1:]  # across the faulted snapshot
        if 1 <= fault_step <= n:
            counts = [s.step_count for s in forked.states]
            assert counts == sorted(set(counts))
            shared = [s for s in honest.states if s.step_count < fault_step]
            assert all(mine is theirs for mine, theirs in zip(forked.states, shared))
            assert forked.states[len(shared)].step_count == fault_step
            assert forked.root_at(fault_step) != honest.root_at(fault_step)
        else:
            assert forked is honest


def test_fork_is_held_to_the_step_budget_in_total(monkeypatch):
    """The budget counts the shared prefix: a fork of an n-step trace halts
    under a budget of n and runs out under n - 1, for every fault step
    before the last one. A fault at step n leaves an exited state, which
    takes no step."""
    honest = run_trace(load_program(_random_program(random.Random(27), 40), scheme=SCHEME))
    n = len(honest)
    scratch = (HEAP_BASE + 0x100000) // 32
    for fault_step in (1, n // 2, n - 1):
        fault = StepFault(step=fault_step, leaf_index=scratch, bit=3)
        monkeypatch.setattr(fpvm, "MAX_STEPS", n)
        assert len(honest.fork(fault)) == n
        monkeypatch.setattr(fpvm, "MAX_STEPS", n - 1)
        with pytest.raises(fpvm.BudgetExceededError) as exc:
            honest.fork(fault)
        assert exc.value.steps == n - 1
        assert exc.value.state.step_count == n - 1
    forked = honest.fork(StepFault(step=n, leaf_index=scratch, bit=3))
    assert len(forked) == n and forked.states[-1].exited


def _folded(state, oracle=None) -> list:
    """Reference: every state from `state` to the exited one, one `step` each."""
    states = [state]
    while not states[-1].exited:
        states.append(step(states[-1], oracle))
    assert all(type(s.regs) is tuple for s in states)
    return states


def _whole_runs_read_like_single_steps(state, oracle=None) -> fpvm.VmState:
    """`run`'s final state and every `run_trace` snapshot, which read memory
    a block at a time, against the state that folding `step`, which reads
    leaf by leaf, reaches in as many steps. Returns the final state."""
    folded = _folded(state, oracle)
    final, steps = run(state, oracle)
    trace = run_trace(state, oracle)
    assert steps == len(trace) == len(folded) - 1
    for got in [*trace.states, final]:
        want = folded[got.step_count - state.step_count]
        assert type(got.regs) is tuple
        assert (got.pc, got.regs, got.exited, got.exit_code, state_root(got)) == (
            want.pc, want.regs, want.exited, want.exit_code, state_root(want))
    return final


def test_a_block_read_after_a_store_serves_the_stored_leaf():
    """Stores into a block, then loads of its other leaves and of the
    stored one: a SW, a PREIMAGE, which writes its leaf without reading
    it, and a store-heavy random program over one heap block."""
    final = _whole_runs_read_like_single_steps(boot(
        encode("LI", rd=1), HEAP_BASE + 0x40,
        encode("LI", rd=2), 0x12345678,
        encode("SW", rs=1, rt=2),
        encode("LW", rd=3, rs=1, imm=0x20),
        encode("LW", rd=4, rs=1),
        encode("HALT"),
    ))
    assert final.regs[3:5] == (0, 0x12345678)

    oracle = PreimageOracle(SCHEME)
    key = oracle.put(bytes(range(1, 65)))
    state = boot(
        encode("LI", rd=1), 1,
        encode("PREIMAGE", rd=1, rs=0),  # chunk 0 into oracle-value leaf 1
        encode("LI", rd=5), ORACLE_VALUE_BASE,
        encode("LW", rd=3, rs=5),
        encode("LW", rd=4, rs=5, imm=0x20),
        encode("HALT"),
    )
    state.memory = fpvm.write_bytes(state.memory, ORACLE_KEY_BASE, key)
    final = _whole_runs_read_like_single_steps(state, oracle)
    assert final.regs[3:5] == (0, struct.unpack("<I", bytes(range(1, 5)))[0])

    _whole_runs_read_like_single_steps(load_program(_random_program(random.Random(33), 2000),
                                                    scheme=SCHEME))


def test_a_block_read_serves_code_the_program_rewrote():
    """A program that stores over two of its own instructions before they
    run: one in the block it is executing, one in the next block, which no
    fetch has read yet. Each runs as rewritten."""
    nop = encode("ADD")  # r0 <- r0 + r0 changes nothing
    words = [nop] * 300
    words[0:10] = [
        encode("LI", rd=1), encode("ADD", rd=5, rs=1, rt=1),
        encode("LI", rd=2), 4 * 40,
        encode("SW", rs=2, rt=1),  # word 40 <- ADD r5, r1, r1
        encode("LI", rd=3), encode("SUB", rd=6, rs=0, rt=1),
        encode("LI", rd=4), 4 * 280,
        encode("SW", rs=4, rt=3),  # word 280 <- SUB r6, r0, r1
    ]
    assert 4 * 280 >> 5 >> fpvm.READ_BLOCK_LEVEL == 1  # word 280 is in the second block
    words[40] = words[280] = encode("HALT", imm=1)
    words[299] = encode("HALT", imm=2)
    final = _whole_runs_read_like_single_steps(boot(*words))
    r1 = final.regs[1]
    assert (final.exit_code, final.regs[5], final.regs[6]) == (2, 2 * r1 & 0xFFFFFFFF, -r1 & 0xFFFFFFFF)


def test_a_block_fetches_what_a_store_wrote_over_the_leaf_it_runs():
    """A block reuses the leaf it last fetched from, so a store into that
    leaf must reach the block's next fetch: a SW over the next instruction,
    a SW over the next LI's immediate, and a PREIMAGE, run from the
    oracle-value region, over the leaf it runs from. Each word runs as
    stored."""
    final = _whole_runs_read_like_single_steps(boot(
        encode("LI", rd=1), encode("ADD", rd=5, rs=1, rt=1),
        encode("SW", rs=0, rt=1, imm=12),  # word 3 <- ADD r5, r1, r1
        NOP,
        encode("HALT"),
    ))
    assert final.regs[5] == 2 * final.regs[1] & 0xFFFFFFFF

    final = _whole_runs_read_like_single_steps(boot(
        encode("LI", rd=1), 0x12345678,
        encode("SW", rs=0, rt=1, imm=16),  # word 4, the immediate of the LI below
        encode("LI", rd=2), 0,
        encode("HALT"),
    ))
    assert final.regs[2] == 0x12345678

    old_code = prog(encode("PREIMAGE", rd=7, rs=8), encode("HALT", imm=1))  # chunk 0
    new_code = prog(NOP, encode("ADD", rd=3, rs=8, rt=8), encode("HALT", imm=2))  # chunk 1
    oracle = PreimageOracle(SCHEME)
    key = oracle.put(old_code.ljust(32, b"\x00") + new_code)
    state = boot(
        encode("PREIMAGE", rd=7, rs=0),  # chunk 0 into oracle-value leaf r7 = 0
        encode("LI", rd=8), 1,
        encode("LI", rd=6), ORACLE_VALUE_BASE,
        encode("JMP", rs=6),  # runs chunk 0, whose PREIMAGE puts chunk 1 over it
    )
    state.memory = fpvm.write_bytes(state.memory, ORACLE_KEY_BASE, key)
    final = _whole_runs_read_like_single_steps(state, oracle)
    assert (final.exit_code, final.regs[3]) == (2, 2)


def test_checkpointed_trace_answers_every_index_like_folding_step():
    """A trace keeps a snapshot every SNAPSHOT_EVERY steps and replays the
    rest. Queried in a shuffled order, every state and root equals folding
    `step`, and a walk from any index yields the folded states from it."""
    state0 = load_program(_random_program(random.Random(28), 1500), scheme=SCHEME)
    folded = _folded(state0)
    trace = run_trace(state0)
    assert len(trace) == len(folded) - 1 == 1500
    assert len(trace.states) <= len(trace) // fpvm.SNAPSHOT_EVERY + 2
    assert [s.pc for s in trace.walk()][:-1] == [s.pc for s in folded[:-1]]
    assert [fpvm.find_store_step(trace, s.pc) for s in folded[:-1]] == list(range(1, 1501))
    suffix = run_trace(folded[37])  # a trace that starts mid-run counts from its first state
    assert len(suffix) == 1500 - 37
    assert fpvm.find_store_step(suffix, folded[100].pc) == 100 - 37 + 1
    indices = list(range(len(folded) + 3))
    random.Random(29).shuffle(indices)
    for i in indices:
        want, got = folded[min(i, len(trace))], trace.state_at(i)
        assert (got.pc, got.regs, got.exited, got.exit_code, got.step_count, got.memory.root()) == (
            want.pc, want.regs, want.exited, want.exit_code, want.step_count, want.memory.root())
        assert trace.root_at(i) == state_root(want)
    for start in (0, 7, fpvm.SNAPSHOT_EVERY, 1499, 1500, 1503):
        want = folded[min(start, len(trace)):]
        assert [(s.pc, s.regs, s.exited, s.step_count) for s in trace.walk(start)] == [
            (s.pc, s.regs, s.exited, s.step_count) for s in want]


def test_a_trace_queried_at_every_index_keeps_only_its_snapshots():
    """Replayed states are rebuilt on each query and never kept: after a
    root query at every index, the only live states are the snapshots."""
    def live_states():
        gc.collect()
        return sum(type(obj) is fpvm.VmState for obj in gc.get_objects())

    before = live_states()
    trace = run_trace(load_program(_random_program(random.Random(7), 3000), scheme=SCHEME))
    for i in range(len(trace) + 1):
        trace.root_at(i)
    assert live_states() - before == len(trace.states) < len(trace)


def test_each_state_a_run_gives_out_holds_its_own_registers():
    """A run keeps one register list and gives each state it yields a tuple
    of it. Kept all at once, the states a walk yields from mid-block and
    the snapshots of a fork's suffix each hold the registers that folding
    `step` reaches at their own index, not the run's last ones."""
    state0 = load_program(_random_program(random.Random(34), 300), scheme=SCHEME)
    folded = _folded(state0)
    trace = run_trace(state0)
    start = fpvm.SNAPSHOT_EVERY + 5
    walked = list(trace.walk(start))
    assert all(type(s.regs) is tuple for s in walked)
    assert [s.regs for s in walked] == [s.regs for s in folded[start:]]
    assert len({s.regs for s in walked}) > 1
    fault = StepFault(step=start, leaf_index=HEAP_BASE // 32, bit=1)
    reference = _faulted_from_scratch(state0, fault)
    suffix = [s for s in trace.fork(fault).states if s.step_count >= start]
    assert len(suffix) > 2 and all(type(s.regs) is tuple for s in suffix)
    assert [s.regs for s in suffix] == [reference[s.step_count].regs for s in suffix]


@pytest.mark.parametrize("budget", [1, fpvm.SNAPSHOT_EVERY, 2 * fpvm.SNAPSHOT_EVERY + 5])
def test_budget_running_out_mid_block_reports_the_state_reached(monkeypatch, budget):
    state0 = load_program(_random_program(random.Random(30), 200), scheme=SCHEME)
    want = _folded(state0)[budget]
    monkeypatch.setattr(fpvm, "MAX_STEPS", budget)
    for runner in (run, run_trace):
        with pytest.raises(fpvm.BudgetExceededError) as exc:
            runner(state0)
        assert exc.value.steps == budget
        assert exc.value.state.step_count == budget
        assert type(exc.value.state.regs) is tuple and exc.value.state.regs == want.regs
        assert state_root(exc.value.state) == state_root(want)


def test_load_program_golden_root():
    """Cross-process reproducibility anchor; recorded once from the first
    oracle run of this build and pinned."""
    st = load_program(
        prog(encode("LI", rd=1), 0x1234, encode("HALT")),
        input_blob=b"hello-input",
        model_blob=b"model-bytes",
        scheme=SCHEME,
    )
    assert state_root(st).hex() == GOLDEN_BOOT_ROOT


GOLDEN_BOOT_ROOT = "18f91adae8d17a5accf04f639d014832dca7c9e2d5dfd9f536a29bd7def17199"


def _image(rng: random.Random) -> bytes:
    """Up to 9 whole leaves, half of them all zero, then a cut of up to 31
    bytes so that lengths need not be multiples of 32."""
    leaves = [ZERO_LEAF if rng.random() < 0.5 else rng.randbytes(32) for _ in range(draw_int(rng, 0, 9))]
    return b"".join(leaves)[: max(0, 32 * len(leaves) - draw_int(rng, 0, 31))]


def _same_tree(a, b) -> bool:
    """Same nodes, digests and leaves, with all-zero subtrees None in both;
    an image in `a` compares by the nodes it builds."""
    if a is None or b is None or isinstance(a, bytes):
        return a == b
    return (isinstance(a, (merkle._Node, merkle._Image)) and isinstance(b, merkle._Node)
            and a.digest == b.digest and _same_tree(a.left, b.left) and _same_tree(a.right, b.right))


def _hash_every_node(node, level: int, scheme: HashScheme) -> None:
    """Build every image's nodes and give every node below and at `node`
    its digest, children first, so a digest already set on a node is kept,
    not derived from its children."""
    if isinstance(node, (merkle._Node, merkle._Image)):
        _hash_every_node(node.left, level - 1, scheme)
        _hash_every_node(node.right, level - 1, scheme)
        merkle._child_digest(node, level, scheme)


def _same_hashed_tree(a: merkle.MemTree, b: merkle.MemTree) -> bool:
    """`_same_tree` once every image of both trees has built its nodes and
    every node has its digest, since every proof sees those nodes. A digest
    an image kept from its hash and preset on the node it built is compared
    with the one the other tree hashes from its leaves, and so is every
    digest below it."""
    for tree in (a, b):
        _hash_every_node(tree._root, TREE_DEPTH, tree.scheme)
    return _same_tree(a._root, b._root)


def _load_program_matches_leaf_by_leaf_writes(program, input_blob, model_blob, scheme) -> None:
    regions = ((fpvm.PROGRAM_BASE, fpvm.PROGRAM_LEVEL, program),
               (fpvm.INPUT_BASE, fpvm.INPUT_LEVEL, input_blob),
               (fpvm.MODEL_BASE, fpvm.MODEL_LEVEL, model_blob))
    loaded = load_program(program, input_blob, model_blob, scheme=scheme).memory
    ref = merkle.MemTree(scheme)
    for base, _, image in regions:
        ref = fpvm.write_bytes(ref, base, image)
    assert loaded.root() == ref.root()
    assert _same_hashed_tree(loaded, ref)
    for base, level, image in regions:
        first = base // 32
        for index in range(first, first + len(image) // 32 + 2):
            assert loaded.get_leaf(index) == ref.get_leaf(index)
        assert loaded.prove(first, level) == ref.prove(first, level)
        assert loaded.prove(first) == ref.prove(first)
        assert loaded.subtree_root(base, level) == ref.subtree_root(base, level)
        assert merkle.region_root(image, level, scheme) == loaded.subtree_root(base, level)
    for index, leaf in ((fpvm.PROGRAM_BASE // 32 + 1, b"\x01" * 32), (fpvm.INPUT_BASE // 32, ZERO_LEAF)):
        loaded, ref = loaded.update_leaf(index, leaf), ref.update_leaf(index, leaf)
        assert loaded.root() == ref.root()
        assert _same_hashed_tree(loaded, ref)


def test_load_program_matches_leaf_by_leaf_writes():
    rng = random.Random(22)
    for _ in range(80):
        _load_program_matches_leaf_by_leaf_writes(_image(rng), _image(rng), _image(rng),
                                                  get_scheme(rng.choice(scheme_names())))


def test_load_program_rejects_an_image_larger_than_its_region_before_hashing():
    scheme, calls = counting_scheme()
    with pytest.raises(merkle.RangeError):
        load_program(bytes((32 << fpvm.PROGRAM_LEVEL) + 4), scheme=scheme)
    with pytest.raises(merkle.RangeError):
        load_program(b"\x01", bytes((32 << fpvm.INPUT_LEVEL) + 1), scheme=scheme)
    assert calls == []


def _program_region_root(state) -> bytes:
    return state.memory.subtree_root(fpvm.PROGRAM_BASE, fpvm.PROGRAM_LEVEL)


def test_program_roots_are_memoised_per_scheme():
    """Two programs loaded in turn under every scheme, twice: each load's
    program region has the root a fresh `region_root` of that scheme gives,
    whatever the memo holds for the other schemes."""
    fpvm.program_image.cache_clear()
    programs = [_random_program(random.Random(seed), 40) for seed in (27, 28)]
    roots = set()
    for _ in range(2):
        for name in scheme_names():
            scheme = get_scheme(name)
            for program in programs:
                want = merkle.region_root(program, fpvm.PROGRAM_LEVEL, scheme)
                assert _program_region_root(load_program(program, scheme=scheme)) == want
                assert fpvm.program_root(program, scheme) == want
                roots.add(want)
    assert len(roots) == len(programs) * len(scheme_names())
    info = fpvm.program_image.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(roots), 3 * len(roots), len(roots))


def test_program_root_builds_its_own_region_on_a_miss():
    """The public lookup takes no region: a miss hashes the region of the
    program it is given, and a later load of that program takes that root."""
    fpvm.program_image.cache_clear()
    program = _random_program(random.Random(30), 40)
    want = merkle.region_root(program, fpvm.PROGRAM_LEVEL, SCHEME)
    assert fpvm.program_root(program, SCHEME) == want
    assert _program_region_root(load_program(program, scheme=SCHEME)) == want
    info = fpvm.program_image.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_program_root_memo_is_keyed_by_region_level(monkeypatch):
    """The same program in a smaller program region has another root."""
    fpvm.program_image.cache_clear()
    program = _random_program(random.Random(27), 40)
    for level in (fpvm.PROGRAM_LEVEL, 10, fpvm.PROGRAM_LEVEL):
        monkeypatch.setattr(fpvm, "PROGRAM_LEVEL", level)
        want = merkle.region_root(program, level, SCHEME)
        assert _program_region_root(load_program(program, scheme=SCHEME)) == want
    info = fpvm.program_image.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_a_memo_hit_loads_the_tree_a_miss_loads():
    """A reload hashes nothing, and its tree reads, proves and hashes like
    the first load's in every region."""
    fpvm.program_image.cache_clear()
    scheme, calls = counting_scheme()
    program = _random_program(random.Random(29), 300)
    images = (program, b"input-blob" * 7, b"model-blob" * 40)
    miss = load_program(*images, scheme=scheme).memory
    calls.clear()
    hit = load_program(*images, scheme=scheme).memory
    assert calls == []
    assert hit.root() == miss.root()
    for base, level, image in ((fpvm.PROGRAM_BASE, fpvm.PROGRAM_LEVEL, images[0]),
                               (fpvm.INPUT_BASE, fpvm.INPUT_LEVEL, images[1]),
                               (fpvm.MODEL_BASE, fpvm.MODEL_LEVEL, images[2])):
        first = base // 32
        assert hit.subtree_root(base, level) == miss.subtree_root(base, level)
        assert hit.prove(first, level) == miss.prove(first, level)
        for index in range(first, first + len(image) // 32 + 2):
            assert hit.get_leaf(index) == miss.get_leaf(index)
            assert hit.prove(index) == miss.prove(index)


def _program_region_node(tree: merkle.MemTree):
    """The node that covers the program region of `tree`."""
    node, index = tree._top(), fpvm.PROGRAM_BASE // 32
    for level in range(TREE_DEPTH - 1, fpvm.PROGRAM_LEVEL - 1, -1):
        node = node.right if (index >> level) & 1 else node.left
    return node


def test_a_memo_hit_shares_the_image_a_proof_built():
    """A reload splices the very image the first load put in the memo, with
    the path a proof into it opened and the digests it keeps, so the same
    proof on the reload hashes nothing. (The proof opens a pair of leaves:
    a leaf's digest is never kept, so a leaf sibling is hashed each time.)"""
    fpvm.program_image.cache_clear()
    scheme, calls = counting_scheme()
    program = _random_program(random.Random(31), 300)
    first = load_program(program, scheme=scheme).memory
    root = first.root()
    index = fpvm.PROGRAM_BASE // 32 + 36
    proof = first.prove(index, 1)
    again = load_program(program, scheme=scheme).memory
    assert _program_region_node(again) is _program_region_node(first)
    assert _program_region_node(again) is fpvm.program_image(program, fpvm.PROGRAM_LEVEL, scheme)
    calls.clear()
    assert again.prove(index, 1) == proof
    assert calls == []
    assert again.root() == root


def test_program_images_are_memoised_per_scheme_object():
    """Two schemes with one digest function keep one image each, and each
    image hashes under the scheme it was loaded with."""
    fpvm.program_image.cache_clear()
    program = _random_program(random.Random(32), 40)
    plain = load_program(program, scheme=SCHEME).memory
    scheme, calls = counting_scheme()
    counted = load_program(program, scheme=scheme).memory
    assert _program_region_node(counted).scheme is scheme
    assert counted.root() == plain.root()
    assert LEAF_PREFIX + program[:32] in calls
    assert fpvm.program_image.cache_info().currsize == 2


def test_program_root_memo_keeps_at_most_its_bound():
    """The memo keeps 16 images: a 17th program evicts the one used least
    recently, not the first one loaded, and every other program still hits;
    the evicted one then loads a new image to the same root."""
    fpvm.program_image.cache_clear()
    programs = [prog(encode("LI", rd=1), seed, encode("HALT")) for seed in range(17)]
    images = [_program_region_node(load_program(program, scheme=SCHEME).memory) for program in programs[:16]]
    assert _program_region_node(load_program(programs[0], scheme=SCHEME).memory) is images[0]
    load_program(programs[16], scheme=SCHEME)
    info = fpvm.program_image.cache_info()
    assert (info.misses, info.hits, info.currsize, info.maxsize) == (17, 1, 16, 16)
    for program, image in zip([programs[0], *programs[2:16]], [images[0], *images[2:]]):
        assert _program_region_node(load_program(program, scheme=SCHEME).memory) is image
    assert fpvm.program_image.cache_info().misses == 17
    reloaded = load_program(programs[1], scheme=SCHEME)
    assert _program_region_node(reloaded.memory) is not images[1]
    assert _program_region_root(reloaded) == merkle.region_root(programs[1], fpvm.PROGRAM_LEVEL, SCHEME)
    assert fpvm.program_image.cache_info().misses == 18
