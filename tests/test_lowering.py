"""Dual execution paths: VM-lowered node programs must reproduce the native
engine byte for byte, with bounded witnesses along the way."""

import hashlib
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
    lowered = lowering.lower_node(node, operands)
    oracle = fpvm.PreimageOracle(SCHEME)
    final, steps = fpvm.run(lowering.node_initial_state(lowered, oracle), oracle)
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


def program_digest(program: bytes, stores) -> str:
    """sha256 of a program's bytes and the repr of its store map."""
    return hashlib.sha256(program + repr(stores).encode()).hexdigest()


#: Pinned node programs over a grid of shapes: matmul with one and two rows
#: and an inner dimension of 1, bias_add on rank-1 and rank-2 operands, and
#: argmax over a single element.
NODE_PROGRAM_DIGESTS = [
    ("matmul", ((1, 1), (1, 1)), "3b37fbd423790f375c28ce3958c8ccb60b2d641367ac4c1643332fc9b97660de"),
    ("matmul", ((1, 1), (1, 3)), "4a778f38663501fa2e3a3bdf1a8cd297e4eaec4d57b7cf41635d5009c30930d2"),
    ("matmul", ((2, 1), (1, 2)), "fc4ed2ed5afd18367a266916e86a1818f2d6a2deac0a80afad673664ffc4301d"),
    ("matmul", ((1, 3), (3, 2)), "d5f54e10c92a4ef09c21377d13d0c271f4123d7f79097bf3e7cf90d9ebeeec59"),
    ("matmul", ((2, 3), (3, 4)), "32862b506fc174285d5bcfbf8b7f3db69b0a84b0655ded60a6dcedae56217f83"),
    ("bias_add", ((5,), (5,)), "eccb4989537fdff3614e87b04996355a2b2ca8cf300e5150e033e61552e68be0"),
    ("bias_add", ((1, 3), (3,)), "f9a818bcb05f4b77bfcdf082210a83273fa88d5b977e408af3eb612d66eaae55"),
    ("bias_add", ((2, 5), (5,)), "21f0bb88888680184edcda0ffd84d34cf262795358a3e3cda852e4eea4d15a47"),
    ("relu", ((1,),), "0ca9d8f7f1e8dfbde655bbe20bd1a445ca5c045c40ee74860ca6f86a77344011"),
    ("relu", ((4,),), "2df4898b5b2ea86e151d8e437bf5a20909273aeecaa99c09f69d7ae8f61d5d14"),
    ("relu", ((3, 2),), "9d7bdb55ddec95975abc80de190d7a8e84a838fcffcb7466c5b0b74045956c5d"),
    ("argmax", ((1,),), "dea6712052139df2e61e9812701b9359fbdb85f3ae95098bc67a8efe98320757"),
    ("argmax", ((1, 1),), "d99efb4b87bb93b4218ba0d3bb278763d91616227fcec1c8384a48c0f532f492"),
    ("argmax", ((1, 7),), "2265228d4599980879881e44263dabee85248292f4a07d207c328c1215d547b8"),
]


@pytest.mark.parametrize("op, shapes, digest", NODE_PROGRAM_DIGESTS)
def test_node_program_is_pinned(op, shapes, digest):
    lowering.node_program.cache_clear()
    assert program_digest(*lowering.node_program(op, shapes)) == digest


#: Pinned whole-graph programs: the fixture models, then the seeded
#: in-(2 in)-10 MLPs at in = 16, 32 and 64, each without and with argmax.
GRAPH_PROGRAM_DIGESTS = {
    "matmul-2x3x2": "7e43858fe78733928d7795a53475e64edb578bb68ff3805c98765b7eb5b79413",
    "mlp-4-6-3": "70f5a7036dad7294ba6a1feb22bff434f83a8807f11cf6ef907ceb732cd5840c",
    "mlp-argmax-3-5-4": "9b52801df23c582726091f9ed2fbef521ab976ff7ade16995cfbc351d60afeb4",
    "mlp-16": "18dbc884833179495191b419529b1e673a418d673aa5d01c2001efc24c1d5765",
    "mlp-16-argmax": "f1caf9007cd9fc727762e1ab64740ca6c48933ac94b6eb348beca830f0071858",
    "mlp-32": "21efd88379480ec8a343a3b2b722a9f5f78b39d68458e37a6c65f008e3a5d979",
    "mlp-32-argmax": "b4c74e184baeb48c3639d0e6a2dd68e3b09ad66a1b04f4da2735509810267870",
    "mlp-64": "7115fb4c474ed8ad321ede5d7ed3690a39e731221e93c92d52ae2fe27e38f5c7",
    "mlp-64-argmax": "2e34a33945ad67562490ad9b8313ec777f4c3e633e15294333f04170cbe4c8dc",
}

#: Pinned model blobs of the same graphs: each constant serialized and padded
#: to 32 bytes, in node order. An argmax adds no constant, so it leaves the
#: blob as it is.
GRAPH_MODEL_BLOB_DIGESTS = {
    "matmul-2x3x2": "e325c4480df8416087211fc373ef5fb099b6094744027743237f976651809fb7",
    "mlp-4-6-3": "b1878101a10a3e2619fc10a9d5c99a2ca49733ce707a7e1dbc437d323db73331",
    "mlp-argmax-3-5-4": "30a35c235f516aca02fcdccc0d17692c238e18e3cbf94bdf574617f281692b7a",
    "mlp-16": "3a74fbc1f65a97e63c91eecb714df487f01fb94862ac465d6c32185a87e46b69",
    "mlp-16-argmax": "3a74fbc1f65a97e63c91eecb714df487f01fb94862ac465d6c32185a87e46b69",
    "mlp-32": "f177f11bd9d46b8104bf94c30ad29902cff0b5dd14a10bbfe9fc1bcef149b4f0",
    "mlp-32-argmax": "f177f11bd9d46b8104bf94c30ad29902cff0b5dd14a10bbfe9fc1bcef149b4f0",
    "mlp-64": "c901f759b57fafd45ad6cfcfeeff19b11856188b0e788dd6d20b7e1b720ad0a9",
    "mlp-64-argmax": "c901f759b57fafd45ad6cfcfeeff19b11856188b0e788dd6d20b7e1b720ad0a9",
}


def test_graph_programs_are_pinned():
    graphs = {name: graph for name, graph, _ in fixture_models()}
    for width in (16, 32, 64):
        graphs[f"mlp-{width}"] = build_mlp(1, width, 2 * width, 10)
        graphs[f"mlp-{width}-argmax"] = build_mlp(1, width, 2 * width, 10, with_argmax=True)
    lowered = {name: lowering.lower_graph(graph) for name, graph in graphs.items()}
    assert {name: program_digest(lg.program, lg.stores) for name, lg in lowered.items()} == (
        GRAPH_PROGRAM_DIGESTS)
    assert {name: hashlib.sha256(lg.model_blob).hexdigest() for name, lg in lowered.items()} == (
        GRAPH_MODEL_BLOB_DIGESTS)


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
    lowered = lowering.lower_node(ml.GraphNode(1, "relu", (0,)), [x])
    state = lowering.node_initial_state(lowered, fpvm.PreimageOracle(SCHEME))
    with pytest.raises(fpvm.MissingPreimageError):
        fpvm.run(state, fpvm.PreimageOracle(SCHEME))  # deliberately empty


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
        lowered.append(lowering.lower_node(node, [rand_tensor(rng, s) for s in shapes]))
    one, two = lowered
    assert (one.program, one.stores) == (two.program, two.stores)
    assert one.operand_blobs != two.operand_blobs
    assert (one.program, one.stores) == lowering.node_program(op, tuple(shapes))


def test_unsupported_op_rejected():
    with pytest.raises(lowering.LoweringError):
        lowering.lower_node(ml.GraphNode(0, "input", shape=(1,)), [])


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
    lowered = lowering.lower_node(node, [a, b])
    oracle = fpvm.PreimageOracle(SCHEME)
    trace = fpvm.run_trace(lowering.node_initial_state(lowered, oracle), oracle)
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
            node_lowered = lowering.lower_node(node, operands)
            oracle = fpvm.PreimageOracle(SCHEME)
            node_trace = fpvm.run_trace(lowering.node_initial_state(node_lowered, oracle), oracle)
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
