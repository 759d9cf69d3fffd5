"""Fixed-point engine: quantization, kernels vs a big-integer oracle,
graph execution and state commitments, model file round-trips."""

import hashlib
import random

import pytest

from opml import ml
from opml.hashing import GRAPH_STATE_PREFIX, HashScheme, get_scheme, scheme_names

from fixtures import build_mlp, fixture_models, rand_tensor

SCHEME = get_scheme("sha256")


# --- independent oracle -----------------------------------------------------


def oracle_matmul(a_shape, a_data, b_shape, b_data):
    """Reference semantics, written against the arithmetic definition only:
    exact products, 64-bit wrapped accumulation, one floor shift, 32-bit wrap.
    """
    r, n = a_shape
    _, p = b_shape
    out = []
    for i in range(r):
        for j in range(p):
            total = 0
            for h in range(n):
                total += a_data[i * n + h] * b_data[h * p + j]
            total %= 2**64
            if total >= 2**63:
                total -= 2**64
            shifted = total // 2**16  # floor == arithmetic shift
            shifted %= 2**32
            if shifted >= 2**31:
                shifted -= 2**32
            out.append(shifted)
    return out


def test_quantize_examples():
    assert ml.quantize([1.0]).data == (65536,)
    assert ml.quantize([-0.5]).data == (-32768,)
    assert ml.quantize(0.5) == ml.quantize([0.5])  # a scalar is a one-element tensor
    # 0.3 * 65536 = 19660.8 -> rounds away from zero to 19661
    t = ml.quantize([0.3])
    assert t.data == (19661,)
    assert abs(ml.dequantize(t)[0] - 0.3) <= 2**-17


def test_quantize_range_errors():
    with pytest.raises(ml.QuantizationRangeError):
        ml.quantize([32768.0])
    with pytest.raises(ml.QuantizationRangeError):
        ml.quantize([-40000.0])
    with pytest.raises(ml.QuantizationRangeError, match="rounds outside int32"):
        ml.quantize([32767.99999999])  # inside the open bound, but rounds to 2**31
    ml.quantize([32767.0])  # inside the open bound


@pytest.mark.parametrize("values, message", [([], "empty tensor"), ([[1.0], [1.0, 2.0]], "ragged")])
def test_quantize_rejects_an_empty_or_ragged_nesting(values, message):
    with pytest.raises(ml.ShapeError, match=message):
        ml.quantize(values)


@pytest.mark.parametrize("shape, data, error, message", [
    ((2, 0), (), ml.ShapeError, "bad dimension 0"),
    ((2,), (1,), ml.ShapeError, r"1 values for shape \(2,\)"),
    ((1,), (ml.INT32_MAX + 1,), ml.QuantizationRangeError, "outside int32"),
])
def test_a_tensor_checks_its_shape_and_values_as_it_is_built(shape, data, error, message):
    with pytest.raises(error, match=message):
        ml.FixedTensor(shape, data)


def test_quantize_roundtrip_error_bound():
    # A value is uniform in [-1000, 1000], an exact multiple of 2**-17 (odd
    # multiples are the rounding ties, the worst case), or an edge value.
    rng = random.Random(81)
    edges = (0.0, -0.0, 1000.0, -1000.0, 2**-17, -(2**-17), 5e-324, 1000 - 2**-17)
    draws = (lambda: rng.uniform(-1000, 1000),
             lambda: rng.randint(-1000 << 17, 1000 << 17) / 2**17,
             lambda: rng.choice(edges))
    for _ in range(100):
        values = [rng.choice(draws)() for _ in range(rng.randint(1, 20))]
        t = ml.quantize(values)
        back = ml.dequantize(t)
        for v, b in zip(values, back):
            assert abs(v - b) <= 2**-17 + 1e-12


def test_matmul_identity():
    eye = ml.quantize([[1.0, 0.0], [0.0, 1.0]])
    x = ml.quantize([[0.25, -1.5], [3.0, 0.125]])
    assert ml.matmul_fx(eye, x).data == x.data


def test_matmul_single_element_closed_form():
    a = ml.quantize([[1.5]])
    b = ml.quantize([[2.0]])
    c = ml.matmul_fx(a, b)
    assert c.data == ((98304 * 131072) >> 16,)
    assert c.data == (196608,)


def test_matmul_matches_oracle_random():
    rng = random.Random(30)
    for _ in range(50):
        r, n, p = rng.randrange(1, 5), rng.randrange(1, 6), rng.randrange(1, 5)
        a = rand_tensor(rng, (r, n), -100, 100)
        b = rand_tensor(rng, (n, p), -100, 100)
        got = ml.matmul_fx(a, b)
        assert list(got.data) == oracle_matmul((r, n), a.data, (n, p), b.data)


def test_matmul_extreme_values_match_oracle():
    a = ml.FixedTensor((1, 4), (ml.INT32_MAX, ml.INT32_MIN, ml.INT32_MAX, -1))
    b = ml.FixedTensor((4, 1), (ml.INT32_MAX, ml.INT32_MAX, ml.INT32_MIN, 1))
    got = ml.matmul_fx(a, b)
    assert list(got.data) == oracle_matmul((1, 4), a.data, (4, 1), b.data)


def test_matmul_shape_error():
    with pytest.raises(ml.ShapeError):
        ml.matmul_fx(ml.quantize([[1.0, 2.0]]), ml.quantize([[1.0, 2.0]]))
    with pytest.raises(ml.ShapeError, match="rank-2"):
        ml.matmul_fx(ml.quantize([1.0]), ml.quantize([[1.0]]))


def _matmul_nodes(rows):
    return [ml.GraphNode(0, "input", shape=(1, 3)),
            ml.GraphNode(1, "const", params=ml.FixedTensor((rows, 2), tuple(range(2 * rows)))),
            ml.GraphNode(2, "matmul", (0, 1))]


@pytest.mark.parametrize("nodes, output_id, message", [
    (_matmul_nodes(4), 2, r"matmul \(1, 3\) x \(4, 2\)"),
    (_matmul_nodes(3), 1, "output node must be a computed node"),
    ([ml.GraphNode(0, "input", shape=(1,)), ml.GraphNode(1, "conv", (0,))], 1, "unknown op 'conv'"),
    ([ml.GraphNode(0, "input", shape=(1,)), ml.GraphNode(1, "const")], 0, "const node without payload"),
    ([ml.GraphNode(0, "input")], 0, "input node without declared shape"),
    ([ml.GraphNode(1, "input", shape=(1,))], 0, "node ids must equal topological positions"),
], ids=["clashing-shapes", "const-output", "unknown-op", "const-without-payload",
        "input-without-shape", "id-not-position"])
def test_a_graph_that_cannot_run_is_rejected_as_it_is_built(nodes, output_id, message):
    with pytest.raises(ml.ShapeError, match=message):
        ml.CompGraph(nodes, output_id)


def test_matmul_inner_dimension_is_bounded():
    """The VM kernel's low accumulator holds n * 0xFFFF only up to
    n = MAX_INNER_DIM, so the shape rule rejects anything wider."""
    n = ml.MAX_INNER_DIM
    assert ml.op_shape("matmul", [(1, n), (n, 2)]) == (1, 2)
    with pytest.raises(ml.ShapeError, match="inner dimension over 32768"):
        ml.op_shape("matmul", [(1, n + 1), (n + 1, 2)])


def test_bias_over_a_rank_0_tensor_is_a_shape_error():
    """A rank-0 tensor has no last dimension for a bias to broadcast over."""
    scalar, bias = ml.FixedTensor((), (1 << 16,)), ml.FixedTensor((1,), (5,))
    with pytest.raises(ml.ShapeError, match=r"\(\)"):
        ml.bias_add_fx(scalar, bias)
    with pytest.raises(ml.ShapeError, match=r"bias_add \(\) \+ \(1,\)"):
        ml.op_shape("bias_add", [(), (1,)])


def test_chunked_reduction_matches_sequential():
    """Wrapped 64-bit addition is order-insensitive, so a parallel reduction
    lands on the same result as the sequential loop."""
    rng = random.Random(31)
    a = rand_tensor(rng, (3, 8), -1000, 1000)
    b = rand_tensor(rng, (8, 2), -1000, 1000)
    expected = ml.matmul_fx(a, b)
    r, n, p = 3, 8, 2
    out = []
    for i in range(r):
        for j in range(p):
            partials = []
            for lo in range(0, n, 3):  # chunked then combined out of order
                acc = 0
                for h in range(lo, min(lo + 3, n)):
                    acc += a.data[i * n + h] * b.data[h * p + j]
                partials.append(acc)
            total = 0
            for part in reversed(partials):
                total = (total + part) % 2**64
            total = total if total < 2**63 else total - 2**64
            out.append(ml.wrap32s(total >> 16))
    assert out == list(expected.data)


def test_bias_relu_argmax():
    x = ml.quantize([[1.0, -2.0, 0.5]])
    b = ml.quantize([0.5, 0.5, -1.0])
    y = ml.bias_add_fx(x, b)
    assert ml.dequantize(y) == [1.5, -1.5, -0.5]
    r = ml.relu_fx(y)
    assert ml.dequantize(r) == [1.5, 0.0, 0.0]
    assert ml.argmax(y) == 0
    # ties break low
    assert ml.argmax(ml.quantize([1.0, 2.0, 2.0])) == 1


def test_tensor_serialization_roundtrip():
    rng = random.Random(32)
    t = rand_tensor(rng, (3, 4))
    blob = ml.serialize_tensor(t)
    assert ml.deserialize_tensor(blob) == t


def test_execute_native_commitment_count_and_determinism():
    graph = build_mlp(seed=1)
    x = rand_tensor(random.Random(2), (1, 4))
    (out1, _), (out2, _) = ml.execute_native(graph, x), ml.execute_native(graph, x)
    commits1 = ml.run_graph(graph, x, scheme=SCHEME).commitments
    commits2 = ml.run_graph(graph, x, scheme=SCHEME).commitments
    assert out1 == out2
    assert commits1 == commits2
    assert len(commits1) == len(graph.nodes) + 1
    assert len(set(commits1)) == len(commits1)  # all states distinct here


def test_zero_weight_graph_all_zero_output():
    nodes = [
        ml.GraphNode(0, "input", shape=(1, 3)),
        ml.GraphNode(1, "const", params=ml.quantize([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])),
        ml.GraphNode(2, "matmul", (0, 1)),
    ]
    graph = ml.CompGraph(nodes, 2)
    run = ml.run_graph(graph, rand_tensor(random.Random(3), (1, 3)), scheme=SCHEME)
    out, commits = run.output, run.commitments
    assert all(v == 0 for v in out.data)
    assert len(commits) == 4


def test_fault_changes_only_downstream_commitments():
    graph = build_mlp(seed=4)
    x = rand_tensor(random.Random(5), (1, 4))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    for target in (2, 4, 5):
        fault = ml.GraphFault(node_id=target, element=0, bit=3)
        corrupt = honest.fork(fault)
        same = [h == c for h, c in zip(honest.commitments, corrupt.commitments)]
        assert all(same[: target + 1])
        assert not any(same[target + 1 :])


def test_commitment_sensitive_to_any_output_byte():
    graph = build_mlp(seed=6, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(7), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    rng = random.Random(8)
    for _ in range(20):
        node_id = rng.randrange(len(graph.nodes))
        numel = len(honest.outputs[node_id].data)
        fault = ml.GraphFault(node_id, rng.randrange(numel), rng.randrange(32))
        corrupt = honest.fork(fault)
        assert corrupt.commitments[-1] != honest.commitments[-1]


def _faulted_outputs(graph, x, fault):
    """Every node's output under `fault`, recomputed by the native kernels."""
    outputs = []
    for node in graph.nodes:
        operands = [outputs[i] for i in node.input_ids]
        if node.op == "input":
            out = x
        elif node.op == "const":
            out = node.params
        elif node.op == "matmul":
            out = ml.matmul_fx(*operands)
        elif node.op == "bias_add":
            out = ml.bias_add_fx(*operands)
        elif node.op == "relu":
            out = ml.relu_fx(*operands)
        else:
            out = ml.FixedTensor((1,), (ml.argmax(operands[0]),))
        outputs.append(fault.apply(out) if node.id == fault.node_id else out)
    return outputs


def _assert_fork_is_the_faulted_run(honest, fork, x, fault, scheme):
    start = fault.node_id
    assert (fork.fault, fork.scheme, fork.graph) == (fault, scheme, honest.graph)
    assert fork.outputs == _faulted_outputs(honest.graph, x, fault)
    assert all(f is h for f, h in zip(fork.states[: start + 1], honest.states[: start + 1]))
    assert len(fork.states) == len(honest.states)
    for j, out in enumerate(fork.outputs):
        assert fork.states[j + 1] == fork.states[j].advance(j, out, scheme)
    assert fork.commitments == [state.commitment(scheme) for state in fork.states]


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_a_fork_at_every_node_is_the_faulted_run(scheme_name):
    """Forks at every node of the fixture models, input, consts and argmax
    included, a few (element, bit) each."""
    scheme = get_scheme(scheme_name)
    rng = random.Random(41)
    for _, graph, x in fixture_models():
        honest = ml.run_graph(graph, x, scheme=scheme)
        for node in graph.nodes:
            numel = len(honest.outputs[node.id].data)
            for element, bit in ((0, 0), (numel - 1, 31), (rng.randrange(numel), rng.randrange(32))):
                fault = ml.GraphFault(node.id, element, bit)
                _assert_fork_is_the_faulted_run(honest, honest.fork(fault), x, fault, scheme)
        with pytest.raises(ValueError, match="outside the graph"):
            honest.fork(ml.GraphFault(len(graph.nodes), 0))
        with pytest.raises(ValueError, match="only an honest run forks"):
            honest.fork(ml.GraphFault(0, 0)).fork(ml.GraphFault(0, 0))


def _counting_scheme():
    """A sha256 scheme that logs every hash input made after its zero-hash
    table is built."""
    calls = []
    scheme = HashScheme("sha256", lambda data: calls.append(data) or hashlib.sha256(data).digest())
    calls.clear()
    return scheme, calls


def _entry_and_commitment_hashes(fork, node_id, calls):
    """The hash inputs of node `node_id`'s entry and of every commitment after it."""
    calls.clear()
    ml.tensor_key(fork.outputs[node_id], fork.scheme)
    ml.tensor_region_root(fork.outputs[node_id], fork.scheme)
    for state in fork.states[node_id + 1 :]:
        state.commitment(fork.scheme)
    return list(calls)


def test_a_fork_at_the_last_node_hashes_its_entry_and_the_last_state_only():
    scheme, calls = _counting_scheme()
    for _, graph, x in fixture_models():
        honest = ml.run_graph(graph, x, scheme=scheme)
        last = len(graph.nodes) - 1
        calls.clear()
        fork = honest.fork(ml.GraphFault(last, 0, 0))
        made = list(calls)
        assert sum(data[:1] == GRAPH_STATE_PREFIX for data in made) == 1
        assert made == _entry_and_commitment_hashes(fork, last, calls)


def test_a_relu_masked_flip_keeps_the_honest_entries_downstream():
    """A flip that leaves a negative pre-activation negative is masked by the
    ReLU: from there on the fork holds the honest outputs and entries, and
    hashes only the flipped node's entry and the states from it on."""
    scheme, calls = _counting_scheme()
    graph = build_mlp(seed=12, in_dim=4, hidden=6, out_dim=3)
    x = rand_tensor(random.Random(101), (1, 4))
    honest = ml.run_graph(graph, x, scheme=scheme)
    assert [graph.nodes[i].op for i in (4, 5)] == ["bias_add", "relu"]
    element = next(i for i, v in enumerate(honest.outputs[4].data) if v < 0)
    fault = ml.GraphFault(4, element, 0)
    calls.clear()
    fork = honest.fork(fault)
    made = list(calls)
    _assert_fork_is_the_faulted_run(honest, fork, x, fault, scheme)
    assert fork.outputs[4] != honest.outputs[4]
    assert all(fork.outputs[j] is honest.outputs[j] for j in range(5, len(graph.nodes)))
    assert all(fork.states[j + 1].entries[j] is honest.states[j + 1].entries[j]
               for j in range(5, len(graph.nodes)))
    assert made == _entry_and_commitment_hashes(fork, 4, calls)


def test_model_roundtrip_and_parse_errors(tmp_path):
    graph = build_mlp(seed=9, with_argmax=True)
    path = tmp_path / "model.opml"
    ml.save_model(graph, str(path))
    back = ml.load_model(str(path))
    assert ml.save_model_bytes(back) == ml.save_model_bytes(graph)
    assert [n.op for n in back.nodes] == [n.op for n in graph.nodes]

    blob = ml.save_model_bytes(graph)
    with pytest.raises(ml.ModelParseError):
        ml.load_model_bytes(blob[:10])
    with pytest.raises(ml.ModelParseError):
        ml.load_model_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ml.ModelParseError):
        ml.load_model_bytes(blob + b"\x00")


def test_golden_fixture_model_digest():
    """Pinned from the first oracle run; any format or fixture drift shows up."""
    graph = build_mlp(seed=7)
    assert graph.model_digest(SCHEME).hex() == GOLDEN_MODEL_DIGEST


def test_golden_mlp_output_digest():
    graph = build_mlp(seed=0, in_dim=4, hidden=8, out_dim=3)
    x = rand_tensor(random.Random(1), (1, 4))
    out, _ = ml.execute_native(graph, x)
    assert SCHEME.digest(ml.serialize_tensor(out)).hex() == GOLDEN_MLP_OUTPUT_DIGEST


#: sha256 over the concatenated graph-state commitments of each fixture
#: model, under each hash scheme.
GRAPH_COMMITMENT_DIGESTS = {
    ("sha256", "matmul-2x3x2"): "6269e8d018a55b544b4680c20468f95f4b9a5c3b67108d2ce313783b49d09d5b",
    ("sha256", "mlp-4-6-3"): "3c3e4437aef49337c4b7daf00e73efcf8ca93e93d84b6e85955970a3b752ffcf",
    ("sha256", "mlp-argmax-3-5-4"): "2d6cc4f7936301022c72135685dd5917a5eb9b6a92a455f3777bdc43a957ccba",
    ("blake2b", "matmul-2x3x2"): "9b262c6e4f5a2ba048b50781af704b65f1eecd7c6451dabb0e55223b56bb597e",
    ("blake2b", "mlp-4-6-3"): "d5399c3d461e119b444c941447d3e867196f26a7bc6fea4ce7e24fac19a69959",
    ("blake2b", "mlp-argmax-3-5-4"): "629971137658537989ebba6a5e72ca67d7dd4a1a8ee85ecdd50192c9623068b3",
    ("sha3", "matmul-2x3x2"): "9698cb27512cdfb6d43eff3dc41b332c660bcc64d627dad90e286a2ae4e8928b",
    ("sha3", "mlp-4-6-3"): "fe65bbe2cfaa6fe909e013cff1966210d08b979a635b939eabccfd7c799e77b9",
    ("sha3", "mlp-argmax-3-5-4"): "0b94b5852a72cb401246a737a09f4a5ac648ac54df009cfb6ff9f28f073beb8e",
}


def test_graph_commitments_are_pinned():
    got = {}
    for scheme_name in ("sha256", "blake2b", "sha3"):
        scheme = get_scheme(scheme_name)
        for name, graph, x in fixture_models():
            commitments = ml.run_graph(graph, x, scheme=scheme).commitments
            got[scheme_name, name] = hashlib.sha256(b"".join(commitments)).hexdigest()
    assert got == GRAPH_COMMITMENT_DIGESTS


GOLDEN_MODEL_DIGEST = "b2cb2727db7e18a1cd3bcb096dc749cffc08bc9c80fcc3799c54fd37a90e2fc6"
GOLDEN_MLP_OUTPUT_DIGEST = "f611a20b6ef4f77633a9d4a73ccf31f8bfd51331bfb3490898a70621a70e907d"
