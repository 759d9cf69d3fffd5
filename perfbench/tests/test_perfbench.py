"""Checks on the benchmark itself: seeded generation, the result checks,
the reference, host-speed scaling, repeatable traced counts and the
no-program exit.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from opml import ml  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_generates_identical_files(workload):
    first, second = workloads.build(workload, 5, 2), workloads.build(workload, 5, 2)
    assert first.files and first.files == second.files
    assert [op.argv for op in first.ops] == [op.argv for op in second.ops]
    assert workloads.build(workload, 6, 2).files != first.files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_schedule_prefix_does_not_depend_on_run_length(workload):
    short, long = workloads.build(workload, 5, 1), workloads.build(workload, 5, 3)
    assert short.ops == long.ops[: len(short.ops)]
    assert all(long.files[name] == blob for name, blob in short.files.items())


def test_reference_matches_native_engine():
    rng = random.Random(3)
    for in_dim in (3, 16):
        for argmax in (False, True):
            model = workloads._mlp(rng, in_dim, argmax)
            x = workloads._raw(rng, in_dim)
            graph = ml.load_model_bytes(model.model_bytes())
            native, _ = ml.execute_native(graph, ml.FixedTensor((1, in_dim), tuple(x)))
            assert (native.shape, native.data) == workloads.reference(model, x)


def test_reference_wraps_like_q15_16():
    w2 = [0] * workloads.OUT_DIM * 2
    w2[0] = 1 << 16  # logit 0 = hidden 0
    model = workloads.Mlp(1, 2, [1 << 16, -(1 << 16)], [0, 0], w2,
                          [0] * workloads.OUT_DIM, argmax=False)
    big = (1 << 31) - 1
    _, data = workloads.reference(model, [big])
    assert data[0] == big  # relu kept hidden 0; hidden 1 was negative
    model.b2 = [1] + [0] * (workloads.OUT_DIM - 1)
    _, data = workloads.reference(model, [big])
    assert data[0] == -(1 << 31)  # the bias add wraps at 32 bits


def test_checks_reject_wrong_results():
    claim = workloads.build("claim", 5, 1).ops[0]
    good = workloads.tensor_bytes(*claim.want_tensor)
    shape, data = claim.want_tensor
    bad = workloads.tensor_bytes(shape, (data[0] ^ 1,) + data[1:])
    assert workloads.check(claim, 0, "hash=sha256\n", good, None) is None
    assert workloads.check(claim, 0, "hash=sha256\n", bad, None)
    assert workloads.check(claim, 4, "hash=sha256\n", good, None)
    assert workloads.check(claim, 0, "hash=sha256\n", good, ["hash=blake2b"])

    model = workloads.build("dispute-model", 5, 1).ops[0]
    line = f"winner={model.winner} rounds=9 pinned_node={model.pinned_node} pinned_step=7"
    assert workloads.check(model, 0, line, None, None) is None
    assert workloads.check(model, 0, line.replace(model.winner, "x"), None, None)
    wrong_node = line.replace(f"pinned_node={model.pinned_node}", "pinned_node=0")
    assert workloads.check(model, 0, wrong_node, None, None)

    synthetic = workloads.build("dispute-synthetic", 5, 1).ops[0]
    line = f"winner={synthetic.winner} rounds={synthetic.rounds} pinned_node=- pinned_step=3"
    assert workloads.check(synthetic, 0, line, None, None) is None
    off_by_one = line.replace(f"rounds={synthetic.rounds}", f"rounds={synthetic.rounds + 1}")
    assert workloads.check(synthetic, 0, off_by_one, None, None)


def test_host_speed_scaling():
    assert hostspeed.kernel() == hostspeed.kernel()
    assert len(hostspeed.sample(3)) == 3
    slow = [2 * hostspeed.REFERENCE_S] * 2 + [9.0]
    assert hostspeed.factor(slow) == 0.5  # the median ignores one stalled repetition
    with hostspeed.Ticker() as ticker:
        deadline = time.perf_counter() + 5 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert 3 <= len(ticker.samples) <= 5
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


EXACT_COUNTS = ("fpvm.steps", "hashing.leaf.calls", "hashing.node.calls", "hashing.state.calls",
                "hashing.other.calls", "dispute.rounds", "dispute.witness_bytes",
                "lowering.program_words")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({name: result["metrics"][name]["value"] for name in EXACT_COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["fpvm.steps"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "claim", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
