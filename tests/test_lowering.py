"""Dual execution paths: VM-lowered node programs must reproduce the native
engine byte for byte, with bounded witnesses along the way."""

import random

import pytest

from opml import fpvm, lowering, ml
from opml.hashing import get_scheme

from fixtures import build_mlp, fixture_models, rand_tensor, random_small_mlp

SCHEME = get_scheme("sha256")


def count_instructions(program: bytes) -> int:
    words = [int.from_bytes(program[i : i + 4], "little") for i in range(0, len(program), 4)]
    count = 0
    i = 0
    while i < len(words):
        count += 1
        i += 2 if words[i] >> 24 == fpvm.OPCODES["LI"] else 1
    return count


def run_node(node, operands):
    lowered = lowering.lower_node(node, operands, SCHEME)
    oracle = fpvm.PreimageOracle(SCHEME)
    for blob in lowered.preimages.values():
        oracle.put(blob)
    state = lowering.node_initial_state(lowered, SCHEME)
    final, steps = fpvm.run(state, oracle)
    return lowered, final, steps


def test_relu_node_small_program_and_equality():
    x = ml.quantize([1.5, -2.0, 0.0, 3.25])
    node = ml.GraphNode(1, "relu", (0,))
    lowered, final, _ = run_node(node, [x])
    assert count_instructions(lowered.program) <= 200
    native = ml.relu_fx(x)
    assert lowering.read_output_tensor(final) == native


def test_run_lowered_node_is_held_to_the_step_budget(monkeypatch):
    x = ml.quantize([1.5, -2.0, 0.0, 3.25])
    lowered, _, steps = run_node(ml.GraphNode(1, "relu", (0,)), [x])
    oracle = fpvm.PreimageOracle(SCHEME)
    for blob in lowered.preimages.values():
        oracle.put(blob)
    monkeypatch.setattr(fpvm, "MAX_STEPS", steps)
    assert lowering.run_lowered_node(lowered, oracle) == ml.relu_fx(x)
    monkeypatch.setattr(fpvm, "MAX_STEPS", steps - 1)
    with pytest.raises(fpvm.BudgetExceededError) as exc:
        lowering.run_lowered_node(lowered, oracle)
    assert exc.value.steps == exc.value.state.step_count == steps - 1


def test_kernel_words_predicts_each_emitted_kernel():
    for _, graph, _ in fixture_models():
        shapes = graph.infer_shapes()
        for node in graph.nodes:
            if node.op in ("input", "const"):
                continue
            operand_shapes = [shapes[i] for i in node.input_ids]
            words = [0] * 5  # a kernel may start anywhere in the program
            lowering._emit_kernel(words, node.op, [fpvm.HEAP_BASE] * len(node.input_ids),
                                  operand_shapes, fpvm.OUTPUT_BASE)
            assert len(words) - 5 == lowering.kernel_words(node.op, operand_shapes)


def test_matmul_node_output_region_bytes():
    rng = random.Random(40)
    a = rand_tensor(rng, (2, 2))
    b = rand_tensor(rng, (2, 2))
    node = ml.GraphNode(2, "matmul", (0, 1))
    _, final, _ = run_node(node, [a, b])
    native = ml.matmul_fx(a, b)
    ser = ml.serialize_tensor(native)
    assert fpvm.read_bytes(final.memory, fpvm.OUTPUT_BASE, len(ser)) == ser
    # the output region subtree root equals the native tensor commitment
    assert final.memory.subtree_root(fpvm.OUTPUT_BASE, fpvm.OUTPUT_LEVEL) == ml.tensor_region_root(native, SCHEME)


def test_bias_and_argmax_nodes():
    rng = random.Random(41)
    x = rand_tensor(rng, (1, 5))
    b = rand_tensor(rng, (5,))
    _, final, _ = run_node(ml.GraphNode(2, "bias_add", (0, 1)), [x, b])
    assert lowering.read_output_tensor(final) == ml.bias_add_fx(x, b)

    _, final, _ = run_node(ml.GraphNode(1, "argmax", (0,)), [x])
    assert lowering.read_output_tensor(final).data == (ml.argmax(x),)


def test_missing_preimage_fails_closed():
    x = ml.quantize([1.0, 2.0])
    lowered = lowering.lower_node(ml.GraphNode(1, "relu", (0,)), [x], SCHEME)
    oracle = fpvm.PreimageOracle(SCHEME)  # deliberately empty
    state = lowering.node_initial_state(lowered, SCHEME)
    with pytest.raises(fpvm.MissingPreimageError):
        fpvm.run(state, oracle)


@pytest.mark.parametrize("op, shapes", [
    ("matmul", [(2, 3), (3, 4)]), ("bias_add", [(2, 5), (5,)]), ("relu", [(3, 2)]),
    ("argmax", [(1, 7)]),
])
def test_a_node_program_depends_on_its_op_and_operand_shapes_alone(op, shapes):
    rng = random.Random(43)
    node = ml.GraphNode(len(shapes), op, tuple(range(len(shapes))))
    lowered = []
    for _ in range(2):
        lowering.node_program.cache_clear()  # emit it again, from other values
        lowered.append(lowering.lower_node(node, [rand_tensor(rng, s) for s in shapes], SCHEME))
    one, two = lowered
    assert (one.program, one.stores) == (two.program, two.stores)
    assert one.operand_keys != two.operand_keys
    assert (one.program, one.stores) == lowering.node_program(op, tuple(shapes))


def test_unsupported_op_rejected():
    with pytest.raises(lowering.LoweringError):
        lowering.lower_node(ml.GraphNode(0, "input", shape=(1,)), [], SCHEME)


def test_execute_via_vm_matches_native_sample():
    rng = random.Random(42)
    for _ in range(8):
        graph, x = random_small_mlp(rng)
        native, _ = ml.execute_native(graph, x)
        via_vm = lowering.execute_via_vm(graph, x, scheme=SCHEME)
        assert via_vm == native


def test_input_argmax_graph_via_vm():
    graph = ml.CompGraph(
        [ml.GraphNode(0, "input", shape=(1, 4)), ml.GraphNode(1, "argmax", (0,))], 1
    )
    x = ml.quantize([[0.5, 2.0, -1.0, 2.0]])
    out = lowering.execute_via_vm(graph, x, scheme=SCHEME)
    assert out.data == (1,)  # lowest index among the tied maxima


def test_one_ulp_input_difference_stays_deterministic():
    graph = build_mlp(seed=44, in_dim=3, hidden=4, out_dim=2)
    x1 = rand_tensor(random.Random(45), (1, 3))
    data = list(x1.data)
    data[0] += 1
    x2 = ml.FixedTensor(x1.shape, tuple(data))
    for x in (x1, x2):
        native, _ = ml.execute_native(graph, x)
        assert lowering.execute_via_vm(graph, x, scheme=SCHEME) == native


def test_lower_graph_single_phase_program():
    graph = build_mlp(seed=46, in_dim=3, hidden=4, out_dim=2, with_argmax=True)
    x = rand_tensor(random.Random(47), (1, 3))
    lowered = lowering.lower_graph(graph)
    state = lowered.initial_state(x, SCHEME)
    final, n_steps = fpvm.run(state, None)
    native, _ = ml.execute_native(graph, x)
    assert lowering.read_output_tensor(final) == native
    assert final.memory.subtree_root(fpvm.OUTPUT_BASE, fpvm.OUTPUT_LEVEL) == ml.tensor_region_root(native, SCHEME)
    assert n_steps > len(graph.nodes)


def test_matmul_wide_inner_dim_with_extreme_values():
    """Stresses the high/low accumulator split: products near the 64-bit
    range over a wide inner dimension, heavy 32-bit wrapping."""
    rng = random.Random(49)
    a = ml.FixedTensor((2, 100), tuple(rng.randrange(-2**31, 2**31) for _ in range(200)))
    b = ml.FixedTensor((100, 3), tuple(rng.randrange(-2**31, 2**31) for _ in range(300)))
    node = ml.GraphNode(2, "matmul", (0, 1))
    _, final, _ = run_node(node, [a, b])
    assert lowering.read_output_tensor(final) == ml.matmul_fx(a, b)


def test_matmul_trace_witness_sizes():
    """Max serialized one-step witness over a full matmul node trace."""
    rng = random.Random(48)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (3, 2))
    node = ml.GraphNode(2, "matmul", (0, 1))
    lowered = lowering.lower_node(node, [a, b], SCHEME)
    oracle = fpvm.PreimageOracle(SCHEME)
    for blob in lowered.preimages.values():
        oracle.put(blob)
    trace = fpvm.run_trace(lowering.node_initial_state(lowered, SCHEME), oracle)
    max_size = 0
    for k in range(len(trace)):
        w = fpvm.gen_step_witness(trace.state_at(k), oracle)
        blob = w.to_bytes()
        max_size = max(max_size, len(blob))
        verdict = fpvm.verify_step(trace.root_at(k), trace.root_at(k + 1), w,
                                   preimages=oracle, scheme=SCHEME)
        assert verdict.accepted, (k, verdict.reason)
    assert max_size <= 4096


def reference_store_step(trace: fpvm.Trace, addr: int) -> int:
    """First step whose SW writes the word at `addr`, found by decoding every
    pre-state's instruction: what the store map must agree with."""
    for s in range(1, len(trace) + 1):
        pre = trace.state_at(s - 1)
        if pre.exited or pre.pc % 4 != 0:
            continue
        word = int.from_bytes(fpvm.read_bytes(pre.memory, pre.pc, 4), "little")
        rs, imm = (word >> 16) & 0xF, fpvm.sext12(word)
        if word >> 24 == fpvm.OPCODES["SW"] and (pre.regs[rs] + imm) & fpvm.MASK32 == addr:
            return s
    raise AssertionError(f"no store writes {addr:#x}")


def test_store_map_names_the_step_that_stores_each_element():
    checked = 0
    for _, graph, x in fixture_models():
        lowered = lowering.lower_graph(graph)
        trace = fpvm.run_trace(lowered.initial_state(x, SCHEME))
        run = ml.run_graph(graph, x, scheme=SCHEME)
        for node in graph.nodes:
            if node.op in ("input", "const"):
                continue
            stores = lowered.stores[node.id]
            assert len(stores) == len(run.outputs[node.id].data)
            for pc, addr in stores:
                assert fpvm.find_store_step(trace, pc) == reference_store_step(trace, addr)

            operands = [run.outputs[i] for i in node.input_ids]
            node_lowered = lowering.lower_node(node, operands, SCHEME)
            oracle = fpvm.PreimageOracle(SCHEME)
            for blob in node_lowered.preimages.values():
                oracle.put(blob)
            node_trace = fpvm.run_trace(lowering.node_initial_state(node_lowered, SCHEME), oracle)
            payload = fpvm.OUTPUT_BASE + 4 + 4 * len(run.outputs[node.id].shape)
            assert [addr for _, addr in node_lowered.stores] == [
                payload + 4 * e for e in range(len(run.outputs[node.id].data))]
            for pc, addr in node_lowered.stores:
                assert fpvm.find_store_step(node_trace, pc) == reference_store_step(node_trace, addr)
            checked += 2 * len(stores)
    assert checked == 104


def test_find_store_step_names_no_step_for_a_pc_the_trace_never_executes():
    """A pc past HALT, the immediate word of an LI and the ADD that a ReLU's
    BLT skips for a negative element are never executed: each raises. The
    same ADD of a non-negative element runs two steps before its SW."""
    _, graph, x = fixture_models()[1]
    lowered = lowering.lower_graph(graph)
    trace = fpvm.run_trace(lowered.initial_state(x, SCHEME))
    run = ml.run_graph(graph, x, scheme=SCHEME)
    final = trace.state_at(len(trace))
    relu = next(node for node in graph.nodes if node.op == "relu")
    stores = lowered.stores[relu.id]
    operand = run.outputs[relu.input_ids[0]].data
    negative = [pc for (pc, _), v in zip(stores, operand) if v < 0]
    kept = [pc for (pc, _), v in zip(stores, operand) if v >= 0]
    assert negative and kept
    for pc in kept:  # ADD rd=3 at sw - 12, then LI (8 bytes), then SW
        assert fpvm.find_store_step(trace, pc - 12) == fpvm.find_store_step(trace, pc) - 2
    for pc in (final.pc + 4, stores[0][0] - 4, negative[0] - 12):
        with pytest.raises(ValueError, match=f"no step executes pc {pc:#x}"):
            fpvm.find_store_step(trace, pc)
