"""Mutation fuzz of every file the CLI reads: model, tensor, witness bundle
and scenario config. Each case applies bit flips, truncations and splices
to a well-formed file and runs `opml` in-process; it must end in a
documented exit code (0, 2 or 3), never in an exception. A second fuzz
draws the numeric arguments of every subcommand; those cases may also end
in 4, an internal error."""

import contextlib
import io
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from opml import ml
from opml.cli import main

from fixtures import build_mlp, rand_tensor

CONFIGS = {
    "single.cfg": "protocol=single\nmodel=model.opml\ninput=input.tensor\n"
                  "fault.node=4\nfaulty=submitter\nk=2\nm=2\nseed=3\n",
    "two-phase.cfg": "phases=2\nmodel=model.opml\ninput=input.tensor\n"
                     "fault.node=7\nfaulty=challenger\nk=1\nm=4\nseed=5\n",
}

#: target file -> the command that reads it (paths relative to the work dir)
COMMANDS = {
    "model.opml": ["run", "--model", "model.opml", "--input", "input.tensor"],
    "input.tensor": ["run", "--model", "model.opml", "--input", "input.tensor"],
    "w.bin": ["verify-witness", "--file", "w.bin"],
    "single.cfg": ["dispute", "--config", "single.cfg"],
    "two-phase.cfg": ["dispute", "--config", "two-phase.cfg"],
}


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _inside(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The well-formed files, each one accepted by its command."""
    work = tmp_path_factory.mktemp("hostile")
    files = {
        "model.opml": ml.save_model_bytes(build_mlp(seed=90, in_dim=3, hidden=4, out_dim=2)),
        "input.tensor": ml.serialize_tensor(rand_tensor(random.Random(91), (1, 3))),
        **{name: text.encode() for name, text in CONFIGS.items()},
    }
    for name, data in files.items():
        (work / name).write_bytes(data)
    with _inside(work):
        assert _call(["dispute", "--config", "single.cfg", "--witness-out", "w.bin"])[0] == 0
        for argv in COMMANDS.values():
            assert _call(argv)[0] == 0, argv
    files["w.bin"] = (work / "w.bin").read_bytes()
    return work, files


_MUTATION = hst.one_of(
    hst.tuples(hst.just("flip"), hst.integers(0, 1 << 16), hst.integers(0, 7)),
    hst.tuples(hst.just("truncate"), hst.integers(0, 1 << 16)),
    hst.tuples(hst.just("splice"), hst.integers(0, 1 << 16), hst.integers(0, 1 << 16),
               hst.integers(1, 16)),
)


def _mutate(data: bytes, ops) -> bytes:
    buf = bytearray(data)
    for op in ops:
        if not buf:
            break
        if op[0] == "flip":
            buf[op[1] % len(buf)] ^= 1 << op[2]
        elif op[0] == "truncate":
            del buf[op[1] % len(buf):]
        else:  # insert a copy of one slice of the file at another offset
            src, dst, n = op[1] % len(buf), op[2] % len(buf), op[3]
            buf[dst:dst] = buf[src:src + n]
    return bytes(buf)


@given(target=hst.sampled_from(sorted(COMMANDS)), ops=hst.lists(_MUTATION, min_size=1, max_size=3))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_hostile_file_ends_in_a_documented_exit_code(originals, target, ops):
    work, files = originals
    for name, data in files.items():
        (work / name).write_bytes(_mutate(data, ops) if name == target else data)
    with _inside(work):
        code, _, err = _call(COMMANDS[target])
    assert code in (0, 2, 3), (target, ops, err)


_INT = hst.integers(-(1 << 40), 1 << 40)
_FLOAT = (hst.floats(0.0, 4.0) | hst.floats(allow_nan=True, allow_infinity=True)
          | hst.sampled_from([math.nan, math.inf, -math.inf]))
_STRATEGY = hst.sampled_from(["honest", "fault", "wrong-midpoint", "silent", "random"])
_ECONOMICS_FLOATS = {"--C", "--R", "--L", "--B", "--S", "--r", "--t", "--p-t", "--lazy-fraction"}


def _small(hi: int):
    """A value in 1..hi half the time, else an out-of-range one; the cap
    keeps every case short."""
    return hst.integers(1, hi) | hst.sampled_from([-(1 << 40), -1, 0])


def _argv(base: list[str], required: dict, optional: dict):
    return hst.fixed_dictionaries(required, optional=optional).map(
        lambda flags: base + [f"{flag}={value}" for flag, value in flags.items()])


_ARGV = hst.one_of(
    _argv(["run", "--model", "model.opml", "--input", "input.tensor"], {},
          {"--max-steps": _small(10_000_000)}),
    _argv(["dispute", "--model", "model.opml", "--input", "input.tensor"], {},
          {"--protocol": hst.sampled_from(["single", "two-phase"]), "--strategy": _STRATEGY,
           "--k": _small(8), "--m": _small(64), "--fault-node": _small(12),
           "--fault-step": _INT, "--fault-element": _INT, "--fault-bit": _INT,
           "--silent-after": _INT, "--wrong-round": _INT, "--seed": _INT,
           "--challenge-period": _small(1000)}),
    _argv(["dispute"], {"--synthetic-n": _small(300), "--strategy": _STRATEGY},
          {"--k": _small(8), "--m": _small(64), "--fault-step": _INT, "--seed": _INT}),
    _argv(["security"],
          {"--p": _FLOAT, "--m": _small(100_000) | hst.tuples(_small(100), _small(100)).map(
              lambda r: f"{r[0]}:{r[1]}")},
          {"--f": _FLOAT}),
    _argv(["economics", "equilibrium"],
          {flag: _FLOAT for flag in ("--C", "--R", "--L", "--B", "--S")}, {}),
    _argv(["economics", "attention"], {"--r": _FLOAT, "--t": _FLOAT, "--C": _FLOAT},
          {"--p-t": _FLOAT, "--simulate": _small(40), "--validators": _small(6),
           "--lazy-fraction": _FLOAT, "--penalty": _small(100), "--seed": _INT}),
)


@given(argv=_ARGV)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_numeric_arguments_end_in_a_documented_exit_code(originals, argv):
    work, files = originals
    for name, data in files.items():
        (work / name).write_bytes(data)
    with _inside(work):
        try:
            code, out, err = _call(argv)
        except SystemExit as exc:  # argparse rejects the value
            code, out, err = exc.code, "", ""
    assert code in (0, 2, 3, 4), (argv, err)
    flags = dict(arg.split("=", 1) for arg in argv if "=" in arg)
    if argv[0] == "economics" and any(not math.isfinite(float(value))
                                      for flag, value in flags.items()
                                      if flag in _ECONOMICS_FLOATS):
        assert (code, out) == (2, ""), (argv, err)
