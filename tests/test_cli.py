"""Command-line surface: claims, dispute scenarios, reports, exit codes,
reproducibility."""

import hashlib
import json
import math
import os
import resource
import struct
import subprocess
import sys

import pytest

from opml import cli, dispute, economics, fpvm, lowering, ml
from opml.cli import WITNESS_MAGIC, main, read_witness_bundle
from opml.hashing import get_scheme

from fixtures import build_mlp, rand_tensor

import random

#: Committed inputs for parametrized cases: the `model_files` MLP and its
#: input (pinned by `test_committed_model_files_are_the_fixture_mlp`) and a
#: scenario config with a misspelt key.
DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def model_files(tmp_path):
    graph = build_mlp(seed=90, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(91), (1, 3))
    model = tmp_path / "model.opml"
    inp = tmp_path / "input.tensor"
    ml.save_model(graph, str(model))
    inp.write_bytes(ml.serialize_tensor(x))
    return str(model), str(inp), graph, x


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_prints_claim_and_is_reproducible(capsys, model_files, tmp_path):
    model, inp, _, _ = model_files
    out_path = tmp_path / "out.tensor"
    code, out1, _ = run_cli(capsys, "run", "--model", model, "--input", inp,
                            "--out", str(out_path))
    assert code == 0
    assert "output_digest=" in out1 and "trace_len=" in out1
    first = out_path.read_bytes()
    code, out2, _ = run_cli(capsys, "run", "--model", model, "--input", inp,
                            "--out", str(out_path))
    assert code == 0
    assert out1 == out2
    assert out_path.read_bytes() == first


def test_run_missing_model_exits_2(capsys, model_files):
    _, inp, _, _ = model_files
    code, _, err = run_cli(capsys, "run", "--model", "/nope/missing.opml", "--input", inp)
    assert code == 2
    assert "/nope/missing.opml" in err


def test_run_corrupt_model_exits_3(capsys, model_files, tmp_path):
    model, inp, _, _ = model_files
    bad = tmp_path / "bad.opml"
    bad.write_bytes(b"OPML" + b"\x00" * 3)
    code, _, err = run_cli(capsys, "run", "--model", str(bad), "--input", inp)
    assert code == 3


def test_run_dump_trace(capsys, model_files, tmp_path):
    model, inp, _, _ = model_files
    trace_path = tmp_path / "trace.txt"
    code, out, _ = run_cli(capsys, "run", "--model", model, "--input", inp,
                           "--dump-trace", str(trace_path))
    assert code == 0
    lines = [line.split(", ") for line in trace_path.read_text().splitlines()]
    n = int(out.split("trace_len=")[1].split()[0])
    assert [int(step) for step, _, _ in lines] == list(range(n + 1))
    assert all(pc.startswith("0x") and len(root) == 64 for _, pc, root in lines)
    assert lines[-1][2] == out.split("final_state_root=")[1].split()[0]
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == (
        "c2cfb8025ad6516e0cb7d252c4afca834a0af70f2e7ea1874c22c32738a7b66a")


@pytest.mark.parametrize("case", ["committed", "mlp-32"])
def test_run_prints_the_same_claim_with_and_without_a_trace(capsys, monkeypatch, tmp_path, case):
    """`opml run` builds a trace only for --dump-trace; the claim it prints
    is the same either way."""
    monkeypatch.setattr(fpvm, "run_trace", None)  # restored for the --dump-trace run
    if case == "committed":
        model, inp = os.path.join(DATA, "mlp.opml"), os.path.join(DATA, "mlp-input.tensor")
    else:
        model, inp = str(tmp_path / "model.opml"), tmp_path / "input.tensor"
        ml.save_model(build_mlp(1, 32, 64, 10), model)
        inp.write_bytes(ml.serialize_tensor(rand_tensor(random.Random(1), (1, 32))))
    code, plain, _ = run_cli(capsys, "run", "--model", model, "--input", str(inp))
    assert code == 0
    monkeypatch.undo()
    code, traced, _ = run_cli(capsys, "run", "--model", model, "--input", str(inp),
                              "--dump-trace", str(tmp_path / "trace.txt"))
    assert code == 0
    assert plain == traced


def test_run_zero_dimension_tensor_exits_3(capsys, model_files, tmp_path):
    model, _, _, _ = model_files
    bad = tmp_path / "zero.tensor"
    bad.write_bytes(struct.pack("<III", 2, 1, 0))  # rank 2, shape (1, 0), no data
    code, _, err = run_cli(capsys, "run", "--model", model, "--input", str(bad))
    assert code == 3
    assert err.startswith("error:") and "bad dimension 0" in err


def test_dispute_config_not_utf8_exits_3(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe k=1\n")
    code, _, err = run_cli(capsys, "dispute", "--config", str(cfg))
    assert code == 3
    assert err.startswith("error:") and str(cfg) in err


@pytest.mark.parametrize("argv", [
    ["run"],
    ["dispute", "--protocol", "single", "--fault-step", "2"],
    ["dispute", "--protocol", "two-phase", "--fault-node", "2"],
], ids=["run", "single", "two-phase"])
def test_program_too_large_for_its_region_exits_3(capsys, model_files, monkeypatch, argv):
    model, inp, _, _ = model_files
    monkeypatch.setattr(fpvm, "PROGRAM_LEVEL", 2)  # a 128-byte program region
    monkeypatch.setattr(fpvm, "PROGRAM_WORDS", 32)
    code, _, err = run_cli(capsys, *argv, "--model", model, "--input", inp)
    assert code == 3
    assert err.startswith("error:") and "exceed" in err


@pytest.mark.parametrize("argv", [["run"], ["dispute", "--fault-step", "2"]],
                         ids=["run", "single"])
def test_oversized_program_exits_3_before_it_is_built(capsys, tmp_path, monkeypatch, argv):
    """A (100, 100) input under one matmul with a (100, 100) const lowers to
    about 11M words, past the 8M-word program region: the kernel's size is
    known from the shapes, so no word of it and no native run happens."""
    rng = random.Random(92)
    graph = ml.CompGraph([ml.GraphNode(0, "input", shape=(100, 100)),
                          ml.GraphNode(1, "const", params=rand_tensor(rng, (100, 100))),
                          ml.GraphNode(2, "matmul", (0, 1))], 2)
    model, inp = tmp_path / "big.opml", tmp_path / "big.tensor"
    ml.save_model(graph, str(model))
    inp.write_bytes(ml.serialize_tensor(rand_tensor(rng, (100, 100))))

    def fail(*args, **kwargs):
        raise AssertionError("the native engine ran")

    monkeypatch.setattr(ml, "run_graph", fail)
    monkeypatch.setattr(fpvm, "assemble", fail)
    code, out, err = run_cli(capsys, *argv, "--model", str(model), "--input", str(inp))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {model}: ") and "exceeds" in err


@pytest.mark.parametrize("leaf, bit", [(0, 96), (0, 3), (1, 0)],
                         ids=["payload", "rank-word", "past-the-tensor"])
def test_run_exits_4_when_the_vm_output_diverges(capsys, model_files, monkeypatch, leaf, bit):
    """One bit of the VM's final output region flipped: in the (1, 2)
    output's payload, in its rank word (rank 10, which no tensor parse
    accepts) or in the leaf past its 20 serialized bytes. Each leaves the
    region the native output commits to, so each is a divergence."""
    model, inp, graph, _ = model_files
    assert graph.infer_shapes()[graph.output_id] == (1, 2)
    run = fpvm.run

    def run_then_flip(state, oracle=None):
        final, steps = run(state, oracle)
        index = fpvm.OUTPUT_BASE // 32 + leaf
        word = bytearray(final.memory.get_leaf(index))
        word[bit // 8] ^= 1 << bit % 8
        final.memory = final.memory.update_leaf(index, bytes(word))
        return final, steps

    monkeypatch.setattr(fpvm, "run", run_then_flip)
    code, out, err = run_cli(capsys, "run", "--model", model, "--input", inp)
    assert (code, out) == (4, "")
    assert err.startswith("internal error:") and "diverged" in err


@pytest.mark.parametrize("protocol", ["single", "two-phase"])
@pytest.mark.parametrize("node, message", [("99", "fault node 99 out of range"),
                                           ("0", "node 0 has no computation to corrupt")])
def test_fault_node_without_a_computation_exits_2(capsys, protocol, node, message):
    code, out, err = run_cli(capsys, "dispute", "--model", os.path.join(DATA, "mlp.opml"),
                             "--input", os.path.join(DATA, "mlp-input.tensor"),
                             "--protocol", protocol, "--fault-node", node)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _unchecked_graph(nodes, output_id) -> ml.CompGraph:
    """A graph that skips `CompGraph`'s checks, to write a model file that
    only the loader rejects."""
    graph = object.__new__(ml.CompGraph)
    graph.nodes, graph.output_id = nodes, output_id
    return graph


def _worst_case_matmul_files(tmp_path, n):
    """A (1, n) x (n, 1) matmul of raw 0xFFFF inputs and raw 1 weights: the
    low 16-bit remainders the VM kernel sums are all 0xFFFF."""
    graph = _unchecked_graph([ml.GraphNode(0, "input", shape=(1, n)),
                              ml.GraphNode(1, "const", params=ml.FixedTensor((n, 1), (1,) * n)),
                              ml.GraphNode(2, "matmul", (0, 1))], output_id=2)
    model, inp = tmp_path / "m.opml", tmp_path / "x.tensor"
    ml.save_model(graph, str(model))
    inp.write_bytes(ml.serialize_tensor(ml.FixedTensor((1, n), (0xFFFF,) * n)))
    return str(model), str(inp)


def _misfit_model_files(tmp_path, case):
    """A model and input that parse but do not fit: operand shapes that
    clash, a bias added over a rank-0 input, which has no last dimension,
    a matmul one past the inner-dimension bound, an uncomputed output node,
    or an input of the wrong shape."""
    if case == "inner-dim":
        return _worst_case_matmul_files(tmp_path, ml.MAX_INNER_DIM + 1)
    rows = 4 if case == "matmul" else 3
    nodes = [ml.GraphNode(0, "input", shape=(1, 3)),
             ml.GraphNode(1, "const", params=ml.FixedTensor((rows, 2), tuple(range(2 * rows)))),
             ml.GraphNode(2, "matmul", (0, 1))]
    width = 4 if case == "input" else 3
    x = ml.FixedTensor((1, width), tuple(range(width)))
    if case == "rank-0":
        nodes = [ml.GraphNode(0, "input", shape=()),
                 ml.GraphNode(1, "const", params=ml.FixedTensor((1,), (5,))),
                 ml.GraphNode(2, "bias_add", (0, 1))]
        x = ml.FixedTensor((), (1 << 16,))
    graph = _unchecked_graph(nodes, output_id=1 if case == "output" else 2)
    model, inp = tmp_path / "m.opml", tmp_path / "x.tensor"
    ml.save_model(graph, str(model))
    inp.write_bytes(ml.serialize_tensor(x))
    return str(model), str(inp)


@pytest.mark.parametrize("case", ["matmul", "rank-0", "inner-dim", "output", "input"])
@pytest.mark.parametrize("argv", [
    ["run"],
    ["dispute", "--protocol", "single"],
    ["dispute", "--protocol", "two-phase"],
], ids=["run", "single", "two-phase"])
def test_model_that_does_not_fit_exits_3_on_load(capsys, tmp_path, monkeypatch, argv, case):
    model, inp = _misfit_model_files(tmp_path, case)
    monkeypatch.setattr(lowering, "lower_graph", None)  # rejected before lowering
    code, out, err = run_cli(capsys, *argv, "--model", model, "--input", inp)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and (inp if case == "input" else model) in err


def _rejected_argv(tmp_path, case) -> list[str]:
    """A command whose input fails exactly the check that `case` names."""
    model, inp = tmp_path / "m.opml", tmp_path / "x.tensor"
    inp.write_bytes(ml.serialize_tensor(ml.FixedTensor((1, 3), (1, 2, 3))))
    x = ml.GraphNode(0, "input", shape=(1, 3))
    graphs = {
        "node-arity": ([x, ml.GraphNode(1, "relu", (0, 0))], 1),
        "node-order": ([x, ml.GraphNode(1, "relu", (1,))], 1),
        "output-node": ([x, ml.GraphNode(1, "relu", (0,))], 2),
        "two-inputs": ([x, ml.GraphNode(1, "input", shape=(1, 3)),
                        ml.GraphNode(2, "bias_add", (0, 1))], 2),
    }
    if case in graphs:
        ml.save_model(_unchecked_graph(*graphs[case]), str(model))
    else:
        blob = bytearray(ml.save_model_bytes(build_mlp(seed=4, in_dim=3, hidden=2, out_dim=2)))
        if case == "op-code":
            blob[16] = 0xEE  # the first node record's op code, after the 16-byte header
        model.write_bytes(blob)
    if case == "tensor-rank":
        inp.write_bytes(struct.pack("<I", 9) + bytes(36))
    config, bundle = tmp_path / "scenario.cfg", tmp_path / "w.bin"
    config.write_text("synthetic.n = 40\nstrategy fault\n")
    twice = tmp_path / "twice.cfg"
    twice.write_text("synthetic.n = 40\nk = 3\nk = 1\nstrategy = fault\nseed = 5\n")
    bundle.write_bytes(b"OPMX" + bytes(60))
    return {
        "config-line": ["dispute", "--config", str(config)],
        "config-twice": ["dispute", "--config", str(twice)],
        "witness-magic": ["verify-witness", "--file", str(bundle)],
        "security-m": ["security", "--p", "0.5", "--m", "0"],
        "security-f": ["security", "--p", "0.5", "--m", "3", "--f", "1"],
        "equilibrium-R": ["economics", "equilibrium", "--C", "1", "--R", "-1", "--L", "0",
                          "--B", "0", "--S", "0"],
    }.get(case, ["run", "--model", str(model), "--input", str(inp)])


@pytest.mark.parametrize("case, code, reason", [
    ("config-line", 2, "scenario.cfg:2: expected key=value"),
    ("config-twice", 2, "twice.cfg:3: k given again (first on line 2)"),
    ("witness-magic", 3, "bad witness bundle magic"),
    ("security-m", 2, "m must be >= 1"),
    ("security-f", 2, "f must be in (0, 1)"),
    ("equilibrium-R", 2, "R must be non-negative"),
    ("tensor-rank", 3, "unreasonable rank 9"),
    ("node-arity", 3, "relu takes 1 inputs"),
    ("node-order", 3, "node 1 depends on non-preceding 1"),
    ("output-node", 3, "bad output node"),
    ("two-inputs", 3, "exactly one input node is supported"),
    ("op-code", 3, "unknown op code 238"),
])
def test_each_input_check_exits_with_its_reason(capsys, tmp_path, case, code, reason):
    """Checks of a config line, a witness bundle, the analytics parameters,
    a tensor and a model, each reached by a file or flag built to fail it,
    not only by a seeded fuzz example."""
    got, out, err = run_cli(capsys, *_rejected_argv(tmp_path, case))
    assert (got, out) == (code, "")
    assert err.startswith("error:") and reason in err


def test_phases_in_a_config_is_the_protocol_unless_a_protocol_is_given(capsys, tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("phases = 2\n")
    game = ["--model", os.path.join(DATA, "mlp.opml"), "--input",
            os.path.join(DATA, "mlp-input.tensor"), "--fault-node", "5", "--k", "3", "--m", "4"]
    two_phase = run_cli(capsys, "dispute", "--protocol", "two-phase", *game)
    single = run_cli(capsys, "dispute", "--protocol", "single", *game)
    assert two_phase[0] == single[0] == 0 and two_phase != single
    assert run_cli(capsys, "dispute", "--config", str(config), *game) == two_phase
    assert run_cli(capsys, "dispute", "--config", str(config), "--protocol", "single", *game) == single


def test_matmul_at_the_inner_dimension_bound_runs_the_same_on_the_vm(capsys, tmp_path):
    """At n = MAX_INNER_DIM the remainders' sum still fits 31 bits, so the
    claim's VM output equals the native one (else `run` exits 4)."""
    model, inp = _worst_case_matmul_files(tmp_path, ml.MAX_INNER_DIM)
    out_path = tmp_path / "out.tensor"
    code, _, err = run_cli(capsys, "run", "--model", model, "--input", inp, "--out", str(out_path))
    assert (code, err) == (0, "")
    assert ml.deserialize_tensor(out_path.read_bytes()).data == (32767,)


@pytest.mark.parametrize("traced", [False, True], ids=["run", "dump-trace"])
def test_run_step_budget_exits_2(capsys, monkeypatch, model_files, tmp_path, traced):
    model, inp, _, _ = model_files
    monkeypatch.setattr(fpvm, "MAX_STEPS", 1)
    dump = ["--dump-trace", str(tmp_path / "trace.txt")] if traced else []
    code, out, err = run_cli(capsys, "run", "--model", model, "--input", inp, *dump)
    assert (code, out, err) == (2, "", "error: no HALT within 1 steps\n")


def test_run_has_no_max_steps_flag(capsys, model_files):
    """fpvm.MAX_STEPS is the one step budget, so argparse rejects the flag."""
    model, inp, _, _ = model_files
    with pytest.raises(SystemExit) as exc:
        main(["run", "--model", model, "--input", inp, "--max-steps", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-steps" in capsys.readouterr().err


@pytest.mark.parametrize("fault_step", [3, 25])
def test_dispute_fork_step_budget_exits_2(capsys, monkeypatch, fault_step):
    """Every run is held to MAX_STEPS, so a program longer than the budget
    exits 2 on the honest trace, before any fork is run."""
    monkeypatch.setattr(fpvm, "MAX_STEPS", 30)
    code, out, err = run_cli(capsys, "dispute", "--synthetic-n", "40",
                             "--fault-step", str(fault_step))
    assert (code, out, err) == (2, "", "error: no HALT within 30 steps\n")


@pytest.mark.parametrize("m", [1, 16])
def test_single_phase_dispute_runs_the_honest_program_once(capsys, monkeypatch, m):
    """n honest steps, then only the faulty party's fork: the faulted step
    and the n - s steps after it. Every other run-view step is a replay in
    `Trace.walk` for a root or state query, which yields one state after
    fewer than SNAPSHOT_EVERY steps; the arbitration's m witnesses are m
    one-step `_execute` calls over the witness view, with no replay."""
    real_execute, real_walk = fpvm._execute, fpvm.Trace.walk
    run_steps, window_steps = [0], []
    walks = []  # [states yielded, steps replayed], one per walk
    live = []  # the walk whose replay is running

    def counting(pc, regs, mem, limit=1):
        out = real_execute(pc, regs, mem, limit)
        if type(mem) is fpvm._TreeMemory:
            if live:
                live[-1][1] += out[3]
            else:
                run_steps[0] += out[3]
        elif type(mem) is fpvm._WindowMemory:
            window_steps.append(out[3])
        return out

    def walk(trace, start=0):
        record = [0, 0]
        walks.append(record)
        states = real_walk(trace, start)
        while True:
            live.append(record)
            state = next(states, None)
            live.pop()
            if state is None:
                return
            record[0] += 1
            yield state

    monkeypatch.setattr(fpvm, "_execute", counting)
    monkeypatch.setattr(fpvm.Trace, "walk", walk)
    n, s = 50, 20
    code, out, _ = run_cli(capsys, "dispute", "--synthetic-n", str(n), "--fault-step", str(s),
                           "--faulty", "challenger", "--m", str(m))
    assert code == 0 and "winner=submitter" in out
    assert run_steps[0] == 2 * n - s + 1
    assert window_steps == [1] * m
    assert walks and all(yielded == 1 and replayed < fpvm.SNAPSHOT_EVERY
                         for yielded, replayed in walks)


def test_dispute_single_fault_step(capsys, model_files, tmp_path):
    model, inp, _, _ = model_files
    transcript = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        capsys, "dispute", "--model", model, "--input", inp,
        "--protocol", "single", "--fault-step", "5", "--seed", "7",
        "--transcript", str(transcript),
    )
    assert code == 0
    assert "winner=challenger" in out
    assert "pinned_step=5" in out
    records = [json.loads(line) for line in transcript.read_text().splitlines()]
    assert records[0]["event"] == "scenario"
    assert records[-1]["event"] == "verdict"
    rounds = int(out.split("rounds=")[1].split()[0])
    # padded trace length: next power of two at or above the trace length
    n = sum(1 for r in records if r.get("mover") == "challenger")
    assert rounds == n


@pytest.mark.parametrize("protocol, fault", [("single", "--fault-step"), ("two-phase", "--fault-node")])
def test_dispute_verdict_record_has_the_documented_keys(capsys, model_files, tmp_path, protocol, fault):
    model, inp, _, _ = model_files
    transcript = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        capsys, "dispute", "--model", model, "--input", inp, "--protocol", protocol,
        fault, "2", "--seed", "7", "--transcript", str(transcript),
    )
    assert code == 0
    verdict = json.loads(transcript.read_text().splitlines()[-1])
    assert list(verdict) == ["event", "winner", "reason", "pinned_node", "pinned_step", "rounds"]
    shown = {key: "-" if verdict[key] is None else verdict[key] for key in ("pinned_node", "pinned_step")}
    assert out == (f"winner={verdict['winner']} rounds={verdict['rounds']} "
                   f"pinned_node={shown['pinned_node']} pinned_step={shown['pinned_step']}\n")


def test_dispute_round_count_matches_log(capsys, model_files):
    model, inp, _, _ = model_files
    code, out, _ = run_cli(
        capsys, "dispute", "--model", model, "--input", inp,
        "--protocol", "single", "--fault-step", "9", "--seed", "3",
    )
    assert code == 0
    # recompute the expected count from the printed claim of `run`
    code2, claim_out, _ = run_cli(capsys, "run", "--model", model, "--input", inp)
    n = int(claim_out.split("trace_len=")[1].split()[0])
    expected = math.ceil(math.log2(n))
    assert f"rounds={expected}" in out


def test_dispute_two_phase_pins_node(capsys, model_files):
    model, inp, _, _ = model_files
    code, out, _ = run_cli(
        capsys, "dispute", "--model", model, "--input", inp,
        "--protocol", "two-phase", "--fault-node", "2", "--seed", "11",
    )
    assert code == 0
    assert "winner=challenger" in out
    assert "pinned_node=2" in out


def test_dispute_two_phase_plays_the_adversary_strategy(capsys, model_files):
    """The faulty party's strategy holds in both phases: silent after round
    1, it forfeits phase 1 instead of losing a full game."""
    model, inp, _, _ = model_files
    argv = ["dispute", "--model", model, "--input", inp, "--protocol", "two-phase",
            "--fault-node", "2"]
    _, plain, _ = run_cli(capsys, *argv)
    code, silent, _ = run_cli(capsys, *argv, "--strategy", "silent", "--silent-after", "1")
    assert code == 0
    assert plain.startswith("winner=challenger") and "pinned_node=2" in plain
    assert silent == "winner=challenger rounds=1 pinned_node=- pinned_step=-\n"


def test_dispute_two_phase_rejects_a_vm_fault_step(capsys, model_files):
    model, inp, _, _ = model_files
    code, out, err = run_cli(capsys, "dispute", "--model", model, "--input", inp,
                             "--protocol", "two-phase", "--fault-step", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_arbitration_witnesses_stop_at_halt(capsys, monkeypatch):
    """A window far wider than the trace: witnesses stop at the first exited
    state instead of covering the padded span, so the window steps at most
    the trace's 40 steps and the exited state is witnessed by its fields."""
    steps, windows = [], []
    real_execute, real_witnesses = fpvm._execute, fpvm.Trace.witnesses

    def counting(pc, regs, mem, limit=1):
        if type(mem) is fpvm._WindowMemory:
            steps.append(limit)
        return real_execute(pc, regs, mem, limit)

    monkeypatch.setattr(fpvm, "_execute", counting)
    monkeypatch.setattr(fpvm.Trace, "witnesses",
                        lambda *args: windows.append(real_witnesses(*args)) or windows[-1])
    code, out, _ = run_cli(capsys, "dispute", "--synthetic-n", "40", "--strategy", "fault",
                           "--seed", "3", "--m", "20000")
    assert code == 0 and out.startswith("winner=challenger rounds=0 ")
    (witnesses,) = windows
    assert 0 < len(steps) <= 41 and steps == [1] * (len(witnesses) - 1)
    assert witnesses[-1].pre_fields.exited and len(witnesses) <= 41


def test_challenger_silent_at_arbitration_loses(capsys):
    code, out, _ = run_cli(capsys, "dispute", "--synthetic-n", "40", "--strategy", "silent",
                           "--silent-after", "6", "--fault-step", "7", "--faulty", "challenger",
                           "--seed", "5")
    assert code == 0
    assert out == "winner=submitter rounds=6 pinned_node=- pinned_step=7\n"


def test_dispute_honest_scenario(capsys, model_files):
    model, inp, _, _ = model_files
    code, out, _ = run_cli(
        capsys, "dispute", "--model", model, "--input", inp,
        "--protocol", "single", "--seed", "2",
    )
    assert code == 0
    assert "winner=submitter" in out


def test_dispute_synthetic_reproducible(capsys):
    args = ["dispute", "--synthetic-n", "64", "--strategy", "fault", "--seed", "42"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "winner=challenger" in out1


def test_dispute_faulty_challenger_loses(capsys):
    code, out, _ = run_cli(
        capsys, "dispute", "--synthetic-n", "32", "--strategy", "fault",
        "--faulty", "challenger", "--seed", "5",
    )
    assert code == 0
    assert "winner=submitter" in out


def test_dispute_config_file_with_flag_override(capsys, model_files, tmp_path):
    model, inp, _, _ = model_files
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        f"# scenario\nmodel={model}\ninput={inp}\nprotocol=two-phase\n"
        "k=2\nfault.node=4\nseed=9\n"
    )
    code, out, _ = run_cli(capsys, "dispute", "--config", str(cfg))
    assert code == 0
    assert "pinned_node=4" in out
    # flag overrides config
    code, out, _ = run_cli(capsys, "dispute", "--config", str(cfg), "--fault-node", "2")
    assert code == 0
    assert "pinned_node=2" in out


def test_dispute_bad_protocol_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("protocol=three-phase\n")
    code, _, err = run_cli(capsys, "dispute", "--config", str(cfg))
    assert code == 2


def test_dispute_non_integer_config_value_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("k=abc\n")
    code, _, err = run_cli(capsys, "dispute", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "abc" in err


def test_dispute_synthetic_program_too_short_exits_2(capsys):
    code, _, err = run_cli(capsys, "dispute", "--synthetic-n", "1")
    assert code == 2
    assert err.startswith("error:")


def test_security_report(capsys):
    code, out, _ = run_cli(capsys, "security", "--p", "0.5", "--m", "10", "--f", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,m,f,p_any_trust,p_majority_trust"
    assert "0.9990234375" in lines[1]
    assert "0.623046875" in lines[1]


def test_security_sweep_monotone(capsys):
    code, out, _ = run_cli(capsys, "security", "--p", "0.5", "--m", "1:20")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    p_any = [float(r.split(",")[3]) for r in rows]
    assert len(p_any) == 20
    assert all(a < b for a, b in zip(p_any, p_any[1:]))


def test_economics_equilibrium_table(capsys):
    code, out, _ = run_cli(capsys, "economics", "equilibrium", "--C", "1",
                           "--R", "3", "--L", "1", "--B", "2", "--S", "8")
    assert code == 0
    assert "validate/cheat: 2" in out.replace(".0", "")
    assert "cheat_probability=0.25" in out
    assert "check_probability=0.3" in out


def test_economics_attention_numbers(capsys):
    code, out, _ = run_cli(capsys, "economics", "attention", "--r", "0.001",
                           "--t", "1", "--C", "0.001")
    assert code == 0
    assert "min_cost=0.002" in out
    assert "deposit=1.0" in out
    assert "response_probability=0.001" in out


def test_economics_attention_simulation(capsys):
    code, out, _ = run_cli(capsys, "economics", "attention", "--r", "0.001",
                           "--t", "1", "--C", "0.001", "--p-t", "0.2",
                           "--simulate", "500", "--seed", "3")
    assert code == 0
    assert "empirical_rate=" in out


def test_attention_simulation_with_a_penalty_above_float_range_is_exact(capsys):
    """Every validator is selected and lazy, so each of the 6 samples pays
    the whole penalty and half of it, rounded up, is burned."""
    penalty = 10**400
    code, out, _ = run_cli(capsys, "economics", "attention", "--r", "1", "--t", "1", "--C", "1",
                           "--p-t", "1", "--lazy-fraction", "1", "--validators", "2",
                           "--simulate", "3", "--penalty", str(penalty))
    assert code == 0
    assert out.splitlines()[-1] == (f"rounds=3 samples=6 selected=6 empirical_rate=1.0 "
                                    f"penalized=6 burned={6 * (penalty - penalty // 2)}")


@pytest.mark.parametrize("argv", [
    ["security", "--p", "2", "--m", "3"],
    ["economics", "attention", "--r", "0", "--t", "1", "--C", "1"],
    ["economics", "equilibrium", "--C", "0", "--R", "0", "--L", "0", "--B", "0", "--S", "0"],
    ["economics", "equilibrium", "--C", "1", "--R", "0", "--L", "0", "--B", "0", "--S", "0"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--simulate", "5", "--p-t", "2"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "4", "--simulate", "5"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--simulate", "5",
     "--penalty", "-1"],
    ["economics", "attention", "--r", "nan", "--t", "1", "--C", "1"],
    ["economics", "attention", "--r", "1", "--t", "inf", "--C", "1"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--p-t=-inf"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--lazy-fraction", "nan"],
    ["economics", "attention", "--r", "1e-300", "--t", "1e300", "--C", "1e300"],
    ["economics", "equilibrium", "--C", "nan", "--R", "1", "--L", "1", "--B", "1", "--S", "1"],
    ["economics", "equilibrium", "--C", "1", "--R", "1", "--L", "1", "--B", "inf", "--S", "1"],
], ids=["security-p", "attention-r", "equilibrium-zero-cost", "equilibrium-degenerate",
        "simulate-p-t", "simulate-optimal-p-t", "simulate-penalty", "attention-r-nan",
        "attention-t-inf", "attention-p-t-inf", "attention-lazy-fraction-nan",
        "attention-overflow", "equilibrium-C-nan", "equilibrium-B-inf"])
def test_analytics_range_error_exits_2_before_any_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--simulate", "-5"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--simulate", "5",
     "--validators", "-3"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--simulate", "5",
     "--validators", "0"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--simulate", "5",
     "--lazy-fraction", "1.5"],
    ["economics", "attention", "--r", "1", "--t", "1", "--C", "1", "--simulate", "5",
     "--lazy-fraction", "-0.1"],
    ["security", "--p", "0.5", "--m", "5:1"],
    ["dispute", "--config", "CONFIG"],
    ["dispute", "--model", os.path.join(DATA, "mlp.opml"),
     "--input", os.path.join(DATA, "mlp-input.tensor"), "--strategy", "fault"],
    ["economics", "equilibrium", "--C", "1", "--R", "1", "--L", "1", "--B", "1e308", "--S", "1e308"],
    ["dispute", "--config", os.path.join(DATA, "unknown-key.cfg")],
    ["dispute", "--model", os.path.join(DATA, "mlp.opml"),
     "--input", os.path.join(DATA, "mlp-input.tensor"), "--protocol", "two-phase",
     "--strategy", "fault"],
    ["dispute", "--model", os.path.join(DATA, "mlp.opml"),
     "--input", os.path.join(DATA, "mlp-input.tensor"), "--strategy", "fault",
     "--fault-step", "99999"],
    ["dispute", "--model", os.path.join(DATA, "mlp.opml"),
     "--input", os.path.join(DATA, "mlp-input.tensor"), "--strategy", "fault",
     "--fault-step", "0"],
    ["dispute", "--synthetic-n", "5", "--strategy", "fault", "--fault-step", "0"],
    ["dispute", "--config", os.path.join(DATA, "misspelt-strategy.cfg")],
    ["dispute", "--model", os.path.join(DATA, "mlp.opml"),
     "--input", os.path.join(DATA, "mlp-input.tensor"), "--fault-node", "2", "--fault-step", "7"],
    ["dispute", "--synthetic-n", "40", "--fault-node", "2", "--strategy", "fault"],
    ["dispute", "--synthetic-n", "40", "--fault-element", "3"],
    ["dispute", "--synthetic-n", "40", "--model", os.path.join(DATA, "mlp.opml"),
     "--input", os.path.join(DATA, "mlp-input.tensor")],
    ["dispute", "--protocol", "two-phase", "--synthetic-n", "40",
     "--model", os.path.join(DATA, "mlp.opml"), "--input", os.path.join(DATA, "mlp-input.tensor"),
     "--fault-node", "2"],
    ["dispute", "--protocol", "two-phase", "--model", os.path.join(DATA, "mlp.opml")],
    ["dispute", "--model", os.path.join(DATA, "mlp.opml"),
     "--input", os.path.join(DATA, "mlp-input.tensor"), "--fault-step", "7", "--fault-bit", "3"],
    ["dispute", "--synthetic-n", "40", "--fault-step", "7", "--fault-bit", "3"],
    ["dispute", "--synthetic-n", "40", "--wrong-round", "2"],
    ["dispute", "--synthetic-n", "40", "--strategy", "wrong-midpoint", "--wrong-round", "-5"],
    ["dispute", "--synthetic-n", "40", "--strategy", "silent", "--silent-after", "-1"],
    ["dispute", "--synthetic-n", "4194305", "--strategy", "fault"],
], ids=["simulate-negative", "validators-negative", "validators-zero", "lazy-fraction-high",
        "lazy-fraction-negative", "security-empty-m-range",
        "challenge-period-config", "fault-strategy-without-target", "equilibrium-sum-overflow",
        "config-unknown-key", "two-phase-fault-strategy-without-target",
        "fault-step-past-the-trace", "fault-step-zero", "synthetic-fault-step-zero",
        "config-misspelt-strategy", "fault-node-and-fault-step", "synthetic-fault-node",
        "synthetic-fault-element", "synthetic-with-model", "two-phase-with-synthetic-n",
        "two-phase-without-input", "fault-bit-with-fault-step", "synthetic-fault-bit", "wrong-round-without-wrong-midpoint",
        "wrong-round-below-1", "silent-after-negative", "synthetic-n-past-the-program-region"])
def test_out_of_range_argument_exits_2_before_any_output(capsys, tmp_path, argv):
    config = tmp_path / "scenario.cfg"
    config.write_text("synthetic.n = 8\nchallenge_period = 100\n")  # an unknown key
    code, out, err = run_cli(capsys, *[str(config) if a == "CONFIG" else a for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_k_past_1024_exits_2_before_anything_runs(capsys, tmp_path, monkeypatch, source):
    """One round posts k roots, so k is bounded: k = 1025 exits 2 with the
    range error, from a flag or a config file, before a program is loaded."""
    monkeypatch.setattr(fpvm, "load_program", lambda *a, **kw: pytest.fail("a program was loaded"))
    config = tmp_path / "scenario.cfg"
    config.write_text("synthetic.n = 40\nstrategy = fault\n" + ("k = 1025\n" if source == "config" else ""))
    flag = ["--k", "1025"] if source == "flag" else []
    code, out, err = run_cli(capsys, "dispute", "--config", str(config), *flag)
    assert (code, out, err) == (2, "", "error: k must be in 1..1024, got 1025\n")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("game", ["synthetic.n = 40\nstrategy = fault\n",
                                  "protocol = two-phase\nfault.node = 4\nstrategy = fault\n"
                                  f"model = {DATA}/mlp.opml\ninput = {DATA}/mlp-input.tensor\n"],
                         ids=["single", "two-phase"])
def test_m_past_the_program_region_exits_2_before_anything_runs(capsys, tmp_path, monkeypatch,
                                                                 source, game):
    """No program opml builds runs more steps than its 2^23-word program
    region holds words, so m is bounded there: a window of 10^20 steps,
    past what a witness walk can slice, exits 2 from a flag or a config
    file under either protocol, before a program is loaded."""
    monkeypatch.setattr(fpvm, "load_program", lambda *a, **kw: pytest.fail("a program was loaded"))
    config = tmp_path / "scenario.cfg"
    config.write_text(game + (f"m = {10**20}\n" if source == "config" else ""))
    flag = ["--m", str(10**20)] if source == "flag" else []
    code, out, err = run_cli(capsys, "dispute", "--config", str(config), *flag)
    assert (code, out, err) == (2, "", f"error: m must be in 1..8388608, got {10**20}\n")
    code, out, err = run_cli(capsys, "dispute", "--config", str(config), "--m", "8388609")
    assert (code, out, err) == (2, "", "error: m must be in 1..8388608, got 8388609\n")


def test_dispute_has_no_challenge_period_flag(capsys):
    """No game reads the chain's challenge period, so argparse rejects the flag."""
    with pytest.raises(SystemExit) as exc:
        main(["dispute", "--synthetic-n", "8", "--challenge-period", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --challenge-period" in capsys.readouterr().err


def _fresh_process_env() -> dict[str, str]:
    """This environment without OPML_HASH, importing this checkout's opml."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {key: value for key, value in os.environ.items() if key != "OPML_HASH"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_one_process_answers_each_command_as_a_fresh_process_does(capsys, monkeypatch):
    """`main` parses every call with one parser: a run, a two-phase game,
    a security table and a bad argv, called in turn in this process, print
    and exit as each does in a process of its own."""
    monkeypatch.delenv("OPML_HASH", raising=False)
    model, inp = os.path.join(DATA, "mlp.opml"), os.path.join(DATA, "mlp-input.tensor")
    run = ["run", "--model", model, "--input", inp]
    argvs = [run,
             ["dispute", "--model", model, "--input", inp, "--protocol", "two-phase",
              "--faulty", "challenger", "--fault-node", "7"],
             ["security", "--p", "0.5", "--m", "1:5"],
             ["dispute", "--synthetic-n", "8", "--challenge-period", "100"],
             run]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = _fresh_process_env()
    fresh = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "opml.cli", *argv], capture_output=True,
                              text=True, env=env)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()


#: An address space a synthetic game of 2,000,100 steps outgrows.
OUT_OF_MEMORY_CAP = 150 << 20


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (OUT_OF_MEMORY_CAP, OUT_OF_MEMORY_CAP))


def test_a_game_that_runs_out_of_memory_exits_3_with_one_line():
    """Under a 150 MiB address-space cap, set in the child alone, a valid
    synthetic game of 2,000,100 steps runs out of memory: `opml` exits 3
    with one `error: out of memory` line and no traceback."""
    env = _fresh_process_env()
    argv = ["dispute", "--synthetic-n", "2000100", "--strategy", "fault", "--fault-step", "5",
            "--seed", "1"]
    proc = subprocess.run([sys.executable, "-m", "opml.cli", *argv], capture_output=True, text=True,
                          env=env, preexec_fn=_cap_address_space, timeout=120)
    assert (proc.returncode, proc.stderr) == (3, "error: out of memory\n")
    assert "Traceback" not in proc.stdout


def test_a_memory_error_in_a_command_exits_3_with_one_line(capsys, monkeypatch):
    """`main` turns a MemoryError raised in a command into the same exit and line."""
    def exhausted(args, scheme):
        raise MemoryError("no room")

    monkeypatch.setattr(cli, "cmd_security", exhausted)
    assert run_cli(capsys, "security", "--p", "0.5", "--m", "3") == (3, "", "error: out of memory\n")


def test_main_calls_the_command_function_it_finds_when_it_runs(capsys, monkeypatch):
    """A wrapper put on a `cmd_*` function after the parser was built still
    runs: `main` looks the handler up by command name on each call."""
    assert run_cli(capsys, "security", "--p", "0.5", "--m", "3")[0] == 0
    calls = []
    real = cli.cmd_security
    monkeypatch.setattr(cli, "cmd_security", lambda args, scheme: calls.append(args.m)
                        or real(args, scheme))
    code, out, _ = run_cli(capsys, "security", "--p", "0.5", "--m", "4")
    assert (code, calls) == (0, ["4"])
    assert out.splitlines()[1].startswith("0.5,4,")


#: A value each game-specific option accepts, for the table-driven tests.
_VALUES = {"model": os.path.join(DATA, "mlp.opml"), "input": os.path.join(DATA, "mlp-input.tensor"),
           "synthetic.n": "40", "fault.node": "2", "fault.step": "5", "fault.element": "1",
           "fault.bit": "1", "witness.out": "w.bin"}
_GAMES = {cli.SYNTHETIC: "synthetic.n = 40\n",
          cli.SINGLE: f"model = {_VALUES['model']}\ninput = {_VALUES['input']}\n",
          cli.TWO_PHASE: f"protocol = two-phase\nmodel = {_VALUES['model']}\n"
                         f"input = {_VALUES['input']}\n"}
_UNUSED = [(game, key) for game in _GAMES for key, opt in cli.DISPUTE_OPTIONS.items()
           if game not in opt.games]


def _config_exits_2_naming(capsys, tmp_path, text, key):
    config = tmp_path / "scenario.cfg"
    config.write_text(text)
    code, out, err = run_cli(capsys, "dispute", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("game, key", _UNUSED, ids=[f"{game}-{key}" for game, key in _UNUSED])
def test_an_option_the_game_does_not_use_exits_2(capsys, tmp_path, game, key):
    _config_exits_2_naming(capsys, tmp_path, f"{_GAMES[game]}{key} = {_VALUES[key]}\n", key)


_CHOICES = [key for key, opt in cli.DISPUTE_OPTIONS.items() if isinstance(opt.kind, tuple)]


@pytest.mark.parametrize("key", _CHOICES)
def test_a_config_value_outside_its_choices_exits_2(capsys, tmp_path, key):
    _config_exits_2_naming(capsys, tmp_path, f"synthetic.n = 40\n{key} = fualt\n", key)


@pytest.mark.parametrize("strategy", cli.DISPUTE_OPTIONS["strategy"].kind)
def test_every_strategy_takes_exactly_the_64_bit_seeds(capsys, strategy):
    for seed in (0, 2**64 - 1, -1, 2**64):
        code, out, err = run_cli(capsys, "dispute", "--synthetic-n", "40", "--strategy", strategy,
                                 "--seed", str(seed))
        if 0 <= seed < 2**64:
            assert code == 0 and out.startswith("winner="), (seed, err)
        else:
            assert (code, out) == (2, ""), seed
            assert err.startswith("error: seed ")


@pytest.mark.parametrize("argv", [
    ["run", "--model", "MODEL", "--input", "INPUT", "--out", "MISSING"],
    ["run", "--model", "MODEL", "--input", "INPUT", "--dump-trace", "MISSING"],
    ["dispute", "--synthetic-n", "40", "--strategy", "fault", "--transcript", "MISSING"],
    ["dispute", "--synthetic-n", "40", "--strategy", "fault", "--witness-out", "MISSING"],
], ids=["run-out", "run-dump-trace", "dispute-transcript", "dispute-witness-out"])
def test_output_in_a_missing_directory_exits_3(capsys, tmp_path, argv):
    missing = str(tmp_path / "no-such-dir" / "output")
    names = {"MODEL": _VALUES["model"], "INPUT": _VALUES["input"], "MISSING": missing}
    code, out, err = run_cli(capsys, *[names.get(a, a) for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith("error:") and missing in err


def test_committed_model_files_are_the_fixture_mlp(model_files):
    model, inp, _, _ = model_files
    for committed, built in (("mlp.opml", model), ("mlp-input.tensor", inp)):
        with open(os.path.join(DATA, committed), "rb") as a, open(built, "rb") as b:
            assert a.read() == b.read()


def test_attention_simulation_failure_stays_internal(capsys, monkeypatch):
    def violate(**_):
        raise dispute.ProtocolViolation("validator-0 cannot pay penalty 10")
    monkeypatch.setattr(economics, "simulate_attention_rounds", violate)
    code, out, err = run_cli(capsys, "economics", "attention", "--r", "1", "--t", "1",
                             "--C", "1", "--simulate", "5")
    assert (code, out) == (4, "")
    assert err.startswith("internal error:")


def test_hash_scheme_is_read_on_every_invocation(capsys, model_files, monkeypatch):
    model, inp, _, _ = model_files
    monkeypatch.setenv("OPML_HASH", "blake2b")
    _, b2_out, _ = run_cli(capsys, "run", "--model", model, "--input", inp)
    monkeypatch.delenv("OPML_HASH")
    code, out, _ = run_cli(capsys, "run", "--model", model, "--input", inp)
    assert "hash=blake2b" in b2_out
    assert code == 0 and "hash=sha256" in out


def test_hash_scheme_selection(capsys, model_files, monkeypatch):
    model, inp, _, _ = model_files
    _, sha_out, _ = run_cli(capsys, "run", "--model", model, "--input", inp)
    monkeypatch.setenv("OPML_HASH", "blake2b")
    code, b2_out, _ = run_cli(capsys, "run", "--model", model, "--input", inp)
    assert code == 0
    assert "hash=blake2b" in b2_out
    # commitments move with the scheme, the claim fields do not vanish
    assert b2_out.split("final_state_root=")[1] != sha_out.split("final_state_root=")[1]
    monkeypatch.setenv("OPML_HASH", "nonesuch")
    code, _, err = run_cli(capsys, "run", "--model", model, "--input", inp)
    assert code == 2 and "nonesuch" in err


#: sha256 of `opml run` stdout on the committed model and input, per scheme.
RUN_STDOUT_DIGESTS = {
    "sha256": "a407e18c8bae2fbd08350f185c0fd76768331c35c3a30a1367b55e1671adde62",
    "blake2b": "c37c429a43ec67c41cda8b6a20688feed818c3035d21efb5ab45ed60c8b7a68b",
    "sha3": "f4107419dcd29a0cf5caff2a96189ce956dc1c5043513a2d01cfe7d5ca22816c",
}


@pytest.mark.parametrize("scheme_name", sorted(RUN_STDOUT_DIGESTS))
def test_run_stdout_is_pinned(capsys, monkeypatch, scheme_name):
    monkeypatch.setenv("OPML_HASH", scheme_name)
    code, out, _ = run_cli(capsys, "run", "--model", os.path.join(DATA, "mlp.opml"),
                           "--input", os.path.join(DATA, "mlp-input.tensor"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RUN_STDOUT_DIGESTS[scheme_name]


def test_verify_witness_roundtrip(capsys, model_files, tmp_path):
    model, inp, _, _ = model_files
    bundle = tmp_path / "w.bin"
    code, out, _ = run_cli(
        capsys, "dispute", "--model", model, "--input", inp,
        "--protocol", "single", "--fault-step", "4", "--seed", "1",
        "--witness-out", str(bundle),
    )
    assert code == 0
    scheme_name, pre, post, witness, values = read_witness_bundle(bundle.read_bytes())
    assert scheme_name == "sha256"
    code, out, _ = run_cli(capsys, "verify-witness", "--file", str(bundle))
    assert code == 0
    assert "verdict=Accept" in out

    # flip a byte of the claimed post root inside the bundle
    raw = bytearray(bundle.read_bytes())
    raw[4 + 1 + len(scheme_name) + 32] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    code, out, _ = run_cli(capsys, "verify-witness", "--file", str(bad))
    assert code == 0  # verdict is data, not an error
    assert "verdict=Reject" in out


def _bundle(pre, post, witness, preimages=()) -> bytes:
    """A sha256 witness bundle, laid out as docs/formats.md gives it."""
    blob = witness.to_bytes()
    return (WITNESS_MAGIC + b"\x06sha256" + fpvm.state_root(pre) + fpvm.state_root(post)
            + struct.pack("<I", len(blob)) + blob + struct.pack("<I", len(preimages))
            + b"".join(struct.pack("<I", len(value)) + value for value in preimages))


def _halt_bundle() -> bytes:
    """A well-formed sha256 bundle for the one step of a HALT program."""
    state = fpvm.load_program(fpvm.assemble([fpvm.encode("HALT")]), scheme=get_scheme("sha256"))
    return _bundle(state, fpvm.step(state), fpvm.gen_step_witness(state))


@pytest.mark.parametrize("with_preimage, flags, verdict", [
    (True, [], "verdict=Accept\n"),
    (False, [], "verdict=Reject reason=preimage-unavailable\n"),
    (False, ["--skip-preimage-check"], "verdict=Accept\n"),
], ids=["operand-blob", "no-preimage", "no-preimage-skip-check"])
def test_verify_witness_checks_a_preimage_step_against_the_bundled_preimages(
        capsys, tmp_path, with_preimage, flags, verdict):
    """The first PREIMAGE step of a lowered node trace: its chunk is checked
    against the bundle's preimages unless --skip-preimage-check is given."""
    scheme = get_scheme("sha256")
    graph, x = build_mlp(seed=90, in_dim=3, hidden=4, out_dim=2), rand_tensor(random.Random(91), (1, 3))
    node = next(node for node in graph.nodes if node.op == "matmul")
    run = ml.run_graph(graph, x, scheme=scheme)
    lowered = lowering.lower_node(node, [run.outputs[i] for i in node.input_ids])
    oracle = fpvm.PreimageOracle(scheme)
    trace = fpvm.run_trace(lowering.node_initial_state(lowered, oracle), oracle)
    pre = next(state for state in trace.walk() if int.from_bytes(
        fpvm.read_bytes(state.memory, state.pc, 4), "little") >> 24 == fpvm.OPCODES["PREIMAGE"])
    witness = fpvm.gen_step_witness(pre, oracle)
    blob = oracle.get(witness.preimage_chunk.key)
    bundle = tmp_path / "w.bin"
    bundle.write_bytes(_bundle(pre, fpvm.step(pre, oracle), witness, [blob] if with_preimage else []))
    assert len(read_witness_bundle(bundle.read_bytes())[4]) == with_preimage
    code, out, _ = run_cli(capsys, "verify-witness", "--file", str(bundle), *flags)
    assert (code, out) == (0, verdict)


@pytest.mark.parametrize("mutate", [
    lambda good: good.replace(b"\x06sha256", b"\x06nosuch", 1),
    lambda good: WITNESS_MAGIC,
    lambda good: good[:-4] + struct.pack("<II", 1, 100) + bytes(10),
    lambda good: good + b"\x00",
], ids=["unknown-scheme", "magic-only", "preimage-past-end", "trailing-bytes"])
def test_verify_witness_hostile_bundle_exits_3(capsys, tmp_path, mutate):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    good.write_bytes(_halt_bundle())
    bad.write_bytes(mutate(good.read_bytes()))
    code, out, _ = run_cli(capsys, "verify-witness", "--file", str(good))
    assert code == 0 and "verdict=Accept" in out
    code, _, err = run_cli(capsys, "verify-witness", "--file", str(bad))
    assert code == 3
    assert err.startswith("error:")
