"""Mutation fuzz of every file the CLI reads: model, tensor, witness bundle
and scenario config. Each case applies bit flips, truncations and splices
to a well-formed file and runs `opml` in-process; it must end in a
documented exit code (0, 2 or 3), never in an exception. A second fuzz
draws the numeric arguments of the other subcommands; those cases may also
end in 4, an internal error. A third plays `opml dispute` scenarios drawn
from `cli.DISPUTE_OPTIONS`."""

import contextlib
import copy
import io
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from opml import cli, ml
from opml.cli import main

from fixtures import build_mlp, rand_tensor

MODEL = build_mlp(seed=90, in_dim=3, hidden=4, out_dim=2)

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
        "model.opml": ml.save_model_bytes(MODEL),
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
_ECONOMICS_FLOATS = {"--C", "--R", "--L", "--B", "--S", "--r", "--t", "--p-t", "--lazy-fraction"}


def _small(hi: int):
    """A value in 1..hi half the time, else an out-of-range one; the cap
    keeps every case short."""
    return hst.integers(1, hi) | hst.sampled_from([-(1 << 40), -1, 0])


def _argv(base: list[str], required: dict, optional: dict):
    return hst.fixed_dictionaries(required, optional=optional).map(
        lambda flags: base + [f"{flag}={value}" for flag, value in flags.items()])


_ARGV = hst.one_of(
    _argv(["run", "--model", "model.opml", "--input", "input.tensor"], {}, {}),
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


#: The files the path options name, inside the work dir.
_PATHS = {"model": "model.opml", "input": "input.tensor",
          "transcript": "fuzz.jsonl", "witness.out": "fuzz-w.bin"}
_COMPUTED_NODES = [node.id for node in MODEL.nodes if node.op not in ("input", "const")]
_CAPS = {"k": 8, "m": 64}  # keep each game short
_INT_BOUND = 1 << 40


def _valid(key: str, game: str, n: int):
    """A value `key` accepts in `game` (on an n-step program if synthetic):
    inside its range or among its choices. An integer without a bound may
    be anything within 2^40; a fault target names a computed node or a
    step of the honest trace."""
    opt = cli.DISPUTE_OPTIONS[key]
    if key in _PATHS:
        return hst.just(_PATHS[key])
    if isinstance(opt.kind, tuple):
        return hst.sampled_from(opt.kind)
    if key == "synthetic.n":
        return hst.just(n)
    if key == "fault.node":
        return hst.sampled_from(_COMPUTED_NODES)
    if key == "fault.step":  # the model's honest trace is longer than 100 steps
        return hst.integers(1, n if game == cli.SYNTHETIC else 100)
    return hst.integers(max(opt.lo, -_INT_BOUND), min(opt.hi, _CAPS.get(key, _INT_BOUND)))


# Mostly unmutated, so that most examples play a game to its verdict.
_MUTATIONS = ["range", "unused", "choice", "contradict"] + [None] * 8


@hst.composite
def _dispute_case(draw):
    """(argv, config text, mutation): one game, a valid value for every
    option that game uses, each given as a flag or a config line, then at
    most one mutation that must make the game exit 2."""
    game = draw(hst.sampled_from(cli.EVERY_GAME))
    n = draw(hst.integers(2, 300))
    used = [key for key, opt in cli.DISPUTE_OPTIONS.items()
            if game in opt.games and key not in ("protocol", "phases")]
    given = draw(hst.fixed_dictionaries({key: _valid(key, game, n) for key in used}))
    if game == cli.TWO_PHASE or draw(hst.booleans()):
        two = game == cli.TWO_PHASE
        given.update(draw(hst.sampled_from([{"protocol": cli.TWO_PHASE if two else cli.SINGLE},
                                            {"phases": "2" if two else "1"}])))
    # The rules that tie options together: at most one fault target (one
    # is needed for the fault strategy on a model), fault.element and
    # fault.bit only with fault.node, wrong.round only with wrong-midpoint.
    targets = [key for key in ("fault.node", "fault.step") if key in used]
    if given["strategy"] != "fault" or game == cli.SYNTHETIC:
        targets.append(None)
    keep = {"fault.node": ("fault.node", "fault.element", "fault.bit"), "fault.step": ("fault.step",),
            None: ()}[draw(hst.sampled_from(targets))]
    for key in ("fault.node", "fault.step", "fault.element", "fault.bit"):
        if key not in keep:
            given.pop(key, None)
    if given["strategy"] != "wrong-midpoint":
        del given["wrong.round"]

    mutation = draw(hst.sampled_from(_MUTATIONS))
    if mutation == "range":
        key = draw(hst.sampled_from([key for key in used if cli.DISPUTE_OPTIONS[key].kind is int
                                     and math.isfinite(cli.DISPUTE_OPTIONS[key].lo)]))
        opt = cli.DISPUTE_OPTIONS[key]
        given[key] = draw(hst.sampled_from([v for v in (opt.lo - 1, opt.hi + 1) if math.isfinite(v)]))
    elif mutation == "unused":
        key = draw(hst.sampled_from([key for key, opt in cli.DISPUTE_OPTIONS.items()
                                     if game not in opt.games]))
        given[key] = draw(_valid(key, game, n))
    elif mutation == "choice":
        given[draw(hst.sampled_from([key for key, opt in cli.DISPUTE_OPTIONS.items()
                                     if isinstance(opt.kind, tuple)]))] = "fualt"
    elif mutation == "contradict":
        rules = ["wrong.round"] + (["fault.element"] if game != cli.SYNTHETIC else []) + (
            ["fault.step"] if game == cli.SINGLE else [])
        rule = draw(hst.sampled_from(rules))
        if rule == "wrong.round":
            given["wrong.round"] = 1
            if given.get("strategy") == "wrong-midpoint":
                given["strategy"] = "honest"
        elif rule == "fault.element":
            given.pop("fault.node", None)
            given["fault.element"] = 0
        else:
            given.update({"fault.node": _COMPUTED_NODES[0], "fault.step": 1})

    flags, lines = [], []
    for key, value in given.items():
        if key == "phases" or draw(hst.booleans()):
            lines.append(f"{key} = {value}\n")
        else:
            flags.append(f"--{key.replace('.', '-')}={value}")
    return ["dispute", "--config", "fuzz.cfg", *flags], "".join(lines), mutation


def test_dispute_scenarios_end_in_a_documented_exit_code(originals):
    """A valid scenario plays to a verdict or exits 2; a mutated one exits 2
    with no output; neither ever raises. Most valid ones reach a verdict."""
    work, files = originals
    verdicts = []

    @given(case=_dispute_case())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def play(case):
        argv, config, mutation = case
        for name, data in files.items():
            (work / name).write_bytes(data)
        (work / "fuzz.cfg").write_text(config)
        with _inside(work):
            try:
                code, out, err = _call(argv)
            except SystemExit as exc:  # argparse rejects a bad choice given as a flag
                code, out, err = exc.code, "", ""
        if mutation is None:
            assert code in (0, 2), (argv, config, err)
        else:
            assert (code, out) == (2, ""), (mutation, argv, config, err)
        verdicts.append(out.startswith("winner="))

    play()
    assert sum(verdicts) >= 100, (sum(verdicts), len(verdicts))


def _misbuilt(case: str) -> bytes:
    """The fixture model with one structural rule broken; the file still
    parses, and `CompGraph.validate` rejects it."""
    graph = copy.deepcopy(MODEL)
    nodes = graph.nodes
    if case == "input-count":
        nodes[2].input_ids = (0,)
    elif case == "later-dependency":
        nodes[2].input_ids = (0, 3)
    elif case == "output-id":
        graph.output_id = len(nodes)
    elif case == "no-input":
        nodes[0] = ml.GraphNode(0, "const", params=ml.FixedTensor((1, 3), (1, 2, 3)))
    else:  # two inputs
        nodes[1] = ml.GraphNode(1, "input", shape=(3, 4))
    return ml.save_model_bytes(graph)


_MISBUILT = {"input-count": "matmul takes 2 inputs",
             "later-dependency": "node 2 depends on non-preceding 3",
             "output-id": "bad output node",
             "no-input": "exactly one input node is supported",
             "two-inputs": "exactly one input node is supported"}


@pytest.mark.parametrize("command", [["run"], ["dispute", "--fault-node", "4"],
                                     ["dispute", "--protocol", "two-phase", "--fault-node", "4"]],
                         ids=["run", "single", "two-phase"])
@pytest.mark.parametrize("case", sorted(_MISBUILT))
def test_model_that_breaks_a_structural_rule_exits_3(originals, case, command):
    work, _ = originals
    (work / f"{case}.opml").write_bytes(_misbuilt(case))
    with _inside(work):
        code, out, err = _call([*command, "--model", f"{case}.opml", "--input", "input.tensor"])
    assert (code, out, err) == (3, "", f"error: {case}.opml: {_MISBUILT[case]}\n")


@pytest.mark.parametrize("argv", [
    ["run", "--model", "a-dir", "--input", "input.tensor"],
    ["run", "--model", "model.opml", "--input", "a-dir"],
    ["dispute", "--config", "a-dir"],
    ["verify-witness", "--file", "a-dir"],
], ids=["model", "input", "config", "witness"])
def test_a_directory_given_as_a_file_exits_3(originals, argv):
    work, files = originals
    for name, data in files.items():
        (work / name).write_bytes(data)
    (work / "a-dir").mkdir(exist_ok=True)
    with _inside(work):
        code, out, err = _call(argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "a-dir" in err and err.count("\n") == 1
