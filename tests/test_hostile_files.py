"""Mutation fuzz of every file the CLI reads: model, tensor, witness bundle
and scenario config. Each case applies bit flips, truncations and splices
to a well-formed file and runs `opml` in-process; it must end in a
documented exit code (0, 2 or 3), never in an exception. A second fuzz
draws the numeric arguments of the other subcommands; those cases may also
end in 4, an internal error. A third plays `opml dispute` scenarios drawn
from `cli.DISPUTE_OPTIONS`.

Each fuzz draws a fixed number of cases from its own `random.Random`
seed, integers through `fixtures.draw_int` (an end of the range one draw
in eight), so every run plays the same cases whatever else the source
tree holds."""

import contextlib
import copy
import io
import math
import os
import random
import struct
from itertools import product

import pytest

from opml import cli, ml
from opml.cli import main

from fixtures import build_mlp, draw_int, rand_tensor

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


#: A bit flip, a truncation or a splice, each as likely; `_mutate` takes
#: offsets modulo the file's length.
_FILE_MUTATIONS = [
    lambda rng: ("flip", draw_int(rng, 0, 1 << 16), draw_int(rng, 0, 7)),
    lambda rng: ("truncate", draw_int(rng, 0, 1 << 16)),
    lambda rng: ("splice", draw_int(rng, 0, 1 << 16), draw_int(rng, 0, 1 << 16), draw_int(rng, 1, 16)),
]


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


def test_hostile_file_ends_in_a_documented_exit_code(originals):
    work, files = originals
    rng = random.Random(11)
    for _ in range(200):
        target = rng.choice(sorted(COMMANDS))
        ops = [rng.choice(_FILE_MUTATIONS)(rng) for _ in range(draw_int(rng, 1, 3))]
        for name, data in files.items():
            (work / name).write_bytes(_mutate(data, ops) if name == target else data)
        with _inside(work):
            code, _, err = _call(COMMANDS[target])
        assert code in (0, 2, 3), (target, ops, err)


_ECONOMICS_FLOATS = {"--C", "--R", "--L", "--B", "--S", "--r", "--t", "--p-t", "--lazy-fraction"}
#: Doubles that 64 random bits seldom give.
_EDGE_FLOATS = (0.0, -0.0, 1.0, -1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                1.7976931348623157e308, -1.7976931348623157e308)
#: Ints above float range: `float()` of one raises OverflowError.
_HUGE = (10**309, 10**400, -(10**400))


def _float(rng: random.Random) -> float:
    """In [0, 4] a third of the time, NaN or an infinity a third, else any
    double: an edge value or 64 random bits."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice((0.0, 4.0)) if rng.random() < 1 / 8 else rng.uniform(0.0, 4.0)
    if kind == 1:
        return rng.choice((math.nan, math.inf, -math.inf))
    return rng.choice(_EDGE_FLOATS) if rng.random() < 0.5 else struct.unpack("<d", rng.randbytes(8))[0]


def _small(hi: int):
    """A value in 1..hi half the time, else an out-of-range one; the cap
    keeps every case short."""
    return lambda rng: draw_int(rng, 1, hi) if rng.random() < 0.5 else rng.choice((-(1 << 40), -1, 0))


def _int(rng: random.Random) -> int:
    return draw_int(rng, -(1 << 40), 1 << 40)


def _or_huge(draw):
    """`draw`, or one time in four an int above float range."""
    return lambda rng: rng.choice(_HUGE) if rng.random() < 1 / 4 else draw(rng)


def _m(rng: random.Random) -> str:
    """A committee size, or a size:threshold pair."""
    return str(_small(100_000)(rng)) if rng.random() < 0.5 else f"{_small(100)(rng)}:{_small(100)(rng)}"


#: (command, required flags, optional flags), each flag with its draw.
_NUMERIC_COMMANDS = [
    (["run", "--model", "model.opml", "--input", "input.tensor"], {}, {}),
    (["security"], {"--p": _float, "--m": _m}, {"--f": _float}),
    (["economics", "equilibrium"], {flag: _float for flag in ("--C", "--R", "--L", "--B", "--S")}, {}),
    (["economics", "attention"], {"--r": _float, "--t": _float, "--C": _float},
     {"--p-t": _float, "--simulate": _small(40), "--validators": _small(6), "--lazy-fraction": _float,
      "--penalty": _or_huge(_small(100)), "--seed": _or_huge(_int)}),
]


def _numeric_argv(rng: random.Random) -> list[str]:
    """A command, each as likely, with its required flags and each optional
    flag half the time."""
    base, required, optional = rng.choice(_NUMERIC_COMMANDS)
    flags = {**required, **{flag: draw for flag, draw in optional.items() if rng.random() < 0.5}}
    return base + [f"{flag}={draw(rng)}" for flag, draw in flags.items()]


def _numeric_cases(rng: random.Random, count: int):
    """`economics attention` with each pair of ends of the --penalty and
    --seed draws, on float flags that pass every check and --simulate and
    --validators at their caps; then `count` drawn argument lists."""
    for penalty, seed in product((1, 100, *_HUGE), (-(1 << 40), 1 << 40, *_HUGE)):
        yield ["economics", "attention", "--r=1.0", "--t=1.0", "--C=1.0", "--simulate=40",
               "--validators=6", f"--penalty={penalty}", f"--seed={seed}"]
    for _ in range(count):
        yield _numeric_argv(rng)


def test_numeric_arguments_end_in_a_documented_exit_code(originals):
    work, files = originals
    for argv in _numeric_cases(random.Random(12), 200):
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


def _valid(rng: random.Random, key: str, game: str, n: int):
    """A value `key` accepts in `game` (on an n-step program if synthetic):
    inside its range or among its choices. An integer without a bound may
    be anything within 2^40; a fault target names a computed node or a
    step of the honest trace."""
    opt = cli.DISPUTE_OPTIONS[key]
    if key in _PATHS:
        return _PATHS[key]
    if isinstance(opt.kind, tuple):
        return rng.choice(opt.kind)
    if key == "synthetic.n":
        return n
    if key == "fault.node":
        return rng.choice(_COMPUTED_NODES)
    if key == "fault.step":  # the model's honest trace is longer than 100 steps
        return draw_int(rng, 1, n if game == cli.SYNTHETIC else 100)
    return draw_int(rng, max(opt.lo, -_INT_BOUND), min(opt.hi, _CAPS.get(key, _INT_BOUND)))


# Mostly unmutated, so that most examples play a game to its verdict.
_MUTATIONS = ["range", "unused", "choice", "contradict"] + [None] * 8


def _dispute_case(rng: random.Random):
    """(argv, config text, mutation): one game, a valid value for every
    option that game uses, each given as a flag or a config line, then at
    most one mutation that must make the game exit 2."""
    game = rng.choice(cli.EVERY_GAME)
    n = draw_int(rng, 2, 300)
    used = [key for key, opt in cli.DISPUTE_OPTIONS.items()
            if game in opt.games and key not in ("protocol", "phases")]
    given = {key: _valid(rng, key, game, n) for key in used}
    if game == cli.TWO_PHASE or rng.random() < 0.5:
        two = game == cli.TWO_PHASE
        given.update(rng.choice([{"protocol": cli.TWO_PHASE if two else cli.SINGLE},
                                 {"phases": "2" if two else "1"}]))
    # The rules that tie options together: at most one fault target (one
    # is needed for the fault strategy on a model), fault.element and
    # fault.bit only with fault.node, wrong.round only with wrong-midpoint.
    targets = [key for key in ("fault.node", "fault.step") if key in used]
    if given["strategy"] != "fault" or game == cli.SYNTHETIC:
        targets.append(None)
    keep = {"fault.node": ("fault.node", "fault.element", "fault.bit"), "fault.step": ("fault.step",),
            None: ()}[rng.choice(targets)]
    for key in ("fault.node", "fault.step", "fault.element", "fault.bit"):
        if key not in keep:
            given.pop(key, None)
    if given["strategy"] != "wrong-midpoint":
        del given["wrong.round"]

    mutation = rng.choice(_MUTATIONS)
    if mutation == "range":
        key = rng.choice([key for key in used if cli.DISPUTE_OPTIONS[key].kind is int
                          and math.isfinite(cli.DISPUTE_OPTIONS[key].lo)])
        opt = cli.DISPUTE_OPTIONS[key]
        given[key] = rng.choice([v for v in (opt.lo - 1, opt.hi + 1) if math.isfinite(v)])
    elif mutation == "unused":
        key = rng.choice([key for key, opt in cli.DISPUTE_OPTIONS.items() if game not in opt.games])
        given[key] = _valid(rng, key, game, n)
    elif mutation == "choice":
        given[rng.choice([key for key, opt in cli.DISPUTE_OPTIONS.items()
                          if isinstance(opt.kind, tuple)])] = "fualt"
    elif mutation == "contradict":
        rules = ["wrong.round"] + (["fault.element"] if game != cli.SYNTHETIC else []) + (
            ["fault.step"] if game == cli.SINGLE else [])
        rule = rng.choice(rules)
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
        if key == "phases" or rng.random() < 0.5:
            lines.append(f"{key} = {value}\n")
        else:
            flags.append(f"--{key.replace('.', '-')}={value}")
    return ["dispute", "--config", "fuzz.cfg", *flags], "".join(lines), mutation


def test_dispute_scenarios_end_in_a_documented_exit_code(originals):
    """A valid scenario plays to a verdict or exits 2; a mutated one exits 2
    with no output; neither ever raises. Most valid ones reach a verdict."""
    work, files = originals
    rng = random.Random(13)
    verdicts = []
    for _ in range(200):
        argv, config, mutation = _dispute_case(rng)
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
