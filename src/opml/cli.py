"""Scenario runner: execute models, stage dispute games, emit analysis tables.

Commands:
  opml run             execute a model and print the resulting claim
  opml dispute         play a (possibly adversarial) dispute game
  opml security        trust-model probability tables (CSV)
  opml economics       equilibrium / attention-challenge numbers
  opml verify-witness  offline one-step verification of a witness bundle

Every command that takes --seed is bit-reproducible: all randomness flows
through named streams derived from that one seed. Exit codes: 0 success,
2 usage or configuration (including an out-of-range analytics parameter, a
dispute option the game does not use, or a VM run that reaches
fpvm.MAX_STEPS without HALT, a guard that no program opml builds can
reach), 3 I/O or parse failure (including a model ml.CompGraph rejects as
the file loads: shapes that do not fit, a matmul inner dimension over
ml.MAX_INNER_DIM or an output node that computes nothing; an input that
does not fit the model; a program too large for its region, checked before
it is built; and an output path that cannot be written), 4 internal
invariant violation (a dual-path mismatch, or a dispute move outside the
protocol, which the game's own actors never make, is a bug, not a user error).

`opml dispute` plays its game on a fresh chain simulation and writes, to
--transcript, the scenario record followed by the chain's transcript.

The hash scheme is read from the OPML_HASH environment variable (default
sha256) on each invocation and passed to the command; an unknown name exits
2. verify-witness checks a bundle under the scheme the bundle names.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import struct
import sys
from typing import NamedTuple

from . import dispute, economics, fpvm, hashing, lowering, merkle, ml, multiphase, rng, wire

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

WITNESS_MAGIC = b"OPWB"


class ConfigError(Exception):
    pass


class IoError(Exception):
    pass


def _read_file(path: str) -> bytes:
    if not os.path.exists(path):
        raise ConfigError(f"file not found: {path}")
    with open(path, "rb") as fh:
        return fh.read()


def _load_model(path: str) -> ml.CompGraph:
    """A model the VM can run: `ml.CompGraph` checks, as the file loads,
    that its shapes fit node by node and its output node computes something."""
    try:
        return ml.load_model_bytes(_read_file(path))
    except (ml.ModelParseError, ml.ShapeError) as exc:
        raise IoError(f"{path}: {exc}") from exc


def _load_tensor(path: str) -> ml.FixedTensor:
    try:
        return ml.deserialize_tensor(_read_file(path))
    except (ml.ModelParseError, ml.ShapeError) as exc:
        raise IoError(f"{path}: {exc}") from exc


def _load_model_and_input(model_path: str, input_path: str) -> tuple[ml.CompGraph, ml.FixedTensor]:
    graph = _load_model(model_path)
    input_tensor = _load_tensor(input_path)
    declared = tuple(graph.nodes[graph.input_ids[0]].shape)
    if input_tensor.shape != declared:
        raise IoError(f"{input_path}: shape {input_tensor.shape} != declared {declared}")
    return graph, input_tensor


SYNTHETIC, SINGLE, TWO_PHASE = "synthetic", "single", "two-phase"
EVERY_GAME = (SYNTHETIC, SINGLE, TWO_PHASE)
MODEL_GAMES = (SINGLE, TWO_PHASE)


class Option(NamedTuple):
    kind: type | tuple[str, ...]  # int, str, or the accepted values
    default: object
    games: tuple[str, ...]  # the games that use it
    lo: float = -math.inf
    hi: float = math.inf


#: Every `opml dispute` option, declared once for its flag and its config
#: key. The flag is the key with "." written as "-"; `phases`, a
#: config-file alias of `protocol`, has no flag. Only a single-phase game,
#: synthetic or on a model, writes a witness bundle to `witness.out`.
DISPUTE_OPTIONS = {
    "model": Option(str, None, MODEL_GAMES),
    "input": Option(str, None, MODEL_GAMES),
    "protocol": Option((SINGLE, TWO_PHASE), SINGLE, EVERY_GAME),
    "phases": Option(("1", "2"), None, EVERY_GAME),
    # One round posts k roots and the transcript logs every one, so k bounds
    # a round's memory and output; 1024 is far above any useful section count.
    "k": Option(int, 1, EVERY_GAME, lo=1, hi=1024),
    # Programs opml builds branch only forward, so none runs more steps than
    # its 2^23-word region holds words: a wider window arbitrates nothing more.
    "m": Option(int, 1, EVERY_GAME, lo=1, hi=fpvm.PROGRAM_WORDS),
    # An n-step synthetic program takes up to 2n - 1 words (an LI takes two).
    "synthetic.n": Option(int, None, (SYNTHETIC,), lo=2, hi=(fpvm.PROGRAM_WORDS + 1) // 2),
    "fault.node": Option(int, None, MODEL_GAMES),
    "fault.step": Option(int, None, (SYNTHETIC, SINGLE)),
    "fault.element": Option(int, None, MODEL_GAMES),
    "fault.bit": Option(int, None, MODEL_GAMES),
    "faulty": Option(("submitter", "challenger"), "submitter", EVERY_GAME),
    "strategy": Option(("honest", "fault", "wrong-midpoint", "silent", "random"), None, EVERY_GAME),
    "silent.after": Option(int, None, EVERY_GAME, lo=0),
    "wrong.round": Option(int, 1, EVERY_GAME, lo=1),
    "seed": Option(int, 0, EVERY_GAME, lo=0, hi=2**64 - 1),
    "transcript": Option(str, None, EVERY_GAME),
    "witness.out": Option(str, None, (SYNTHETIC, SINGLE)),
}


def read_config(path: str) -> dict[str, object]:
    """Flat key=value lines with keys from DISPUTE_OPTIONS, each value
    converted and checked as its flag's is; blank lines and #-comments
    ignored."""
    try:
        text = _read_file(path).decode()
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not UTF-8 text: {exc}") from exc
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DISPUTE_OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = DISPUTE_OPTIONS[key].kind
        try:
            out[key] = int(value) if kind is int else value
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} must be an integer, got {value!r}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"{path}:{lineno}: {key} must be one of {', '.join(kind)}, "
                              f"got {value!r}")
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args, scheme: hashing.HashScheme) -> int:
    graph, input_tensor = _load_model_and_input(args.model, args.input)
    try:
        state0 = lowering.lower_graph(graph).initial_state(input_tensor, scheme)
    except merkle.RangeError as exc:
        raise IoError(f"{args.model}: {exc}") from exc

    native_run = ml.run_graph(graph, input_tensor, scheme=scheme)
    native = native_run.output
    final, steps = fpvm.run(state0)
    vm_out = lowering.read_output_tensor(final)
    if vm_out != native:
        print("internal error: native and VM outputs diverged", file=sys.stderr)
        return EXIT_INTERNAL

    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(ml.serialize_tensor(native))
    if args.dump_trace:
        with open(args.dump_trace, "w") as fh:
            for i, state in enumerate(fpvm.run_trace(state0).walk()):
                fh.write(f"{i}, {state.pc:#010x}, {fpvm.state_root(state).hex()}\n")

    print(f"hash={scheme.name}")
    print(f"input_digest={scheme.digest(ml.serialize_tensor(input_tensor)).hex()}")
    print(f"output_digest={scheme.digest(ml.serialize_tensor(native)).hex()}")
    print(f"output_region_root={native_run.states[-1].entries[graph.output_id][1].hex()}")
    print(f"trace_len={steps}")
    print(f"final_state_root={fpvm.state_root(final).hex()}")
    print(f"graph_commitment={native_run.commitments[-1].hex()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispute
# ---------------------------------------------------------------------------


def _scenario_from_args(args) -> dict:
    """Each option's flag, else its config-file value, else its default, and
    the game they resolve to. An option that game does not use exits 2."""
    given = read_config(args.config) if args.config else {}
    for key in DISPUTE_OPTIONS:
        flag = getattr(args, key.replace(".", "_"), None)
        if flag is not None:
            given[key] = flag
    if "phases" in given:  # a protocol key or flag wins over its alias
        given.setdefault("protocol", SINGLE if given["phases"] == "1" else TWO_PHASE)
    scenario = {key: given.get(key, opt.default) for key, opt in DISPUTE_OPTIONS.items()}
    game = scenario["game"] = (TWO_PHASE if scenario["protocol"] == TWO_PHASE
                               else SINGLE if scenario["synthetic.n"] is None else SYNTHETIC)
    for key, value in given.items():
        opt = DISPUTE_OPTIONS[key]
        if game not in opt.games:
            raise ConfigError(f"{key} is not used by a {game} game"
                              + (", which synthetic.n selects" if game == SYNTHETIC else ""))
        if opt.kind is int and not opt.lo <= value <= opt.hi:
            raise ConfigError(f"{key} must be in {opt.lo}..{opt.hi}, got {value}")
    if "fault.node" in given and "fault.step" in given:
        raise ConfigError("fault.node and fault.step each name the fault; give one")
    for key in ("fault.element", "fault.bit"):
        if key in given and "fault.node" not in given:
            raise ConfigError(f"{key} is used only with fault.node")
    if "wrong.round" in given and scenario["strategy"] != "wrong-midpoint":
        raise ConfigError("wrong.round is used only with strategy=wrong-midpoint")
    if game != SYNTHETIC and not (scenario["model"] and scenario["input"]):
        raise ConfigError("dispute needs --model/--input or --synthetic-n" if game == SINGLE
                          else "two-phase dispute needs --model and --input")
    if (scenario["strategy"] == "fault" and game != SYNTHETIC
            and scenario["fault.node"] is None and scenario["fault.step"] is None):
        raise ConfigError("the fault strategy needs --fault-step or --fault-node" if game == SINGLE
                          else "the fault strategy needs --fault-node")
    return scenario


def _fresh_chain() -> dispute.ChainSim:
    chain = dispute.ChainSim()
    for party in ("submitter", "challenger"):
        chain.deposit(party, 1000)
        chain.stake(party, 100)
    return chain


def _adversary_strategy(scenario, fault: fpvm.StepFault | None = None) -> dispute.ActorStrategy:
    kind = scenario["strategy"]
    if kind is None:
        kind = "fault" if fault is not None else "honest"
    silent_after = scenario["silent.after"]
    if kind == "silent" and silent_after is None:
        silent_after = 1
    return dispute.ActorStrategy(kind=kind, fault=fault, wrong_round=scenario["wrong.round"],
                                 silent_after=silent_after, seed=scenario["seed"])


def _graph_fault(scenario, graph, streams) -> ml.GraphFault | None:
    if scenario["fault.node"] is None:
        return None
    node_id = scenario["fault.node"]
    if not 0 <= node_id < len(graph.nodes):
        raise ConfigError(f"fault node {node_id} out of range")
    if graph.nodes[node_id].op not in ml.COMPUTED_OPS:
        raise ConfigError(f"node {node_id} has no computation to corrupt")
    shapes = graph.infer_shapes()
    numel = math.prod(shapes[node_id])
    element = scenario["fault.element"]
    bit = scenario["fault.bit"]
    return ml.GraphFault(
        node_id=node_id,
        element=element if element is not None else rng.below(streams, numel),
        bit=bit if bit is not None else rng.below(streams, 32),
    )


def _by_side(scenario, adversary, honest) -> tuple:
    """(submitter's, challenger's) arguments: the adversary's for the side
    the scenario names faulty, the honest ones for the other."""
    return (adversary, honest) if scenario["faulty"] == "submitter" else (honest, adversary)


def _run_single(scenario, scheme, chain) -> dispute.DisputeResult:
    streams = rng.stream(scenario["seed"], "fault")
    step, fault = scenario["fault.step"], None
    if scenario["game"] == SYNTHETIC:
        n = scenario["synthetic.n"]
        program = dispute.synthetic_program(rng.stream(scenario["seed"], "program"), n)
        honest_trace = fpvm.run_trace(fpvm.load_program(program, scheme=scheme))
        if step is None and scenario["strategy"] == "fault":
            step = 1 + rng.below(streams, n)
    else:
        graph, input_tensor = _load_model_and_input(scenario["model"], scenario["input"])
        lowered = lowering.lower_graph(graph)
        honest_trace = fpvm.run_trace(lowered.initial_state(input_tensor, scheme))
        gfault = _graph_fault(scenario, graph, streams)
        if gfault is not None:
            fault = lowering.graph_fault_to_step_fault(lowered, honest_trace, gfault)
    if fault is None:  # the bit is drawn even when unused, so each seed keeps its draws
        bit = rng.below(streams, 256)
        if step is not None:
            fault = fpvm.StepFault(step, dispute.SCRATCH_FAULT_LEAF, bit)
    if fault is not None and not 1 <= fault.step <= len(honest_trace):
        raise ConfigError(f"fault step {fault.step} outside the trace's "
                          f"steps 1..{len(honest_trace)}")
    strategy = _adversary_strategy(scenario, fault)

    sub_strategy, chal_strategy = _by_side(scenario, strategy,
                                           dispute.ActorStrategy(seed=scenario["seed"]))
    submitter = dispute.build_trace_actor("submitter", honest_trace, sub_strategy)
    challenger = dispute.build_trace_actor("challenger", honest_trace, chal_strategy)

    claim = dispute.Claim.posted_by(submitter, scenario["k"], scenario["m"])
    result = dispute.run_dispute(claim, submitter, challenger, chain=chain)

    if scenario["witness.out"]:
        step_no = result.pinned_step or 1
        write_witness_bundle(
            scenario["witness.out"], scheme.name,
            honest_trace.root_at(step_no - 1), honest_trace.root_at(step_no),
            fpvm.gen_step_witness(honest_trace.state_at(step_no - 1)),
        )
    return result


def _run_two_phase(scenario, scheme, chain) -> dispute.DisputeResult:
    graph, input_tensor = _load_model_and_input(scenario["model"], scenario["input"])
    streams = rng.stream(scenario["seed"], "fault")
    adversary = {"graph_fault": _graph_fault(scenario, graph, streams),
                 "strategy": _adversary_strategy(scenario)}
    sub_args, chal_args = _by_side(scenario, adversary, {})
    honest_run = ml.run_graph(graph, input_tensor, scheme=scheme)
    submitter = multiphase.make_party("submitter", honest_run, **sub_args)
    challenger = multiphase.make_party("challenger", honest_run, **chal_args)
    cfg = multiphase.PhaseConfig(k_phase1=scenario["k"], k_phase2=scenario["k"],
                                 m=scenario["m"])
    return multiphase.run_two_phase_dispute(
        graph, input_tensor, submitter, challenger, cfg, chain, scheme=scheme,
    )


def cmd_dispute(args, scheme: hashing.HashScheme) -> int:
    scenario = _scenario_from_args(args)
    chain = _fresh_chain()
    try:
        if scenario["game"] == TWO_PHASE:
            result = _run_two_phase(scenario, scheme, chain)
        else:
            result = _run_single(scenario, scheme, chain)
    except merkle.RangeError as exc:  # a program or image too large for its region
        raise IoError(f"{scenario['model']}: {exc}" if scenario["model"] else str(exc)) from exc
    if scenario["transcript"]:
        header = {"event": "scenario", "hash": scheme.name, "seed": scenario["seed"],
                  "protocol": scenario["protocol"], "k": scenario["k"], "m": scenario["m"]}
        with open(scenario["transcript"], "w") as fh:
            for record in [header, *chain.transcript]:
                fh.write(json.dumps(record) + "\n")
    shown = {key: "-" if value is None else value for key, value in vars(result).items()}
    print("winner={winner} rounds={rounds} pinned_node={pinned_node} pinned_step={pinned_step}"
          .format(**shown))
    return EXIT_OK


# ---------------------------------------------------------------------------
# security / economics reports
# ---------------------------------------------------------------------------


def _parse_range(spec: str) -> range:
    lo, colon, hi = spec.partition(":")
    ms = range(int(lo), int(hi if colon else lo) + 1)
    if not ms:
        raise ValueError(f"empty range {spec}")
    return ms


def cmd_security(args, _scheme: hashing.HashScheme) -> int:
    try:
        ms = _parse_range(args.m)
    except ValueError as exc:
        raise ConfigError(f"bad m range: {exc}") from exc
    try:
        rows = [(m, economics.any_trust_prob(args.p, m),
                 economics.majority_trust_prob(args.p, m, args.f)) for m in ms]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print("p,m,f,p_any_trust,p_majority_trust")
    for m, p_any, p_maj in rows:
        print(f"{args.p!r},{m},{args.f!r},{p_any!r},{p_maj!r}")
    return EXIT_OK


def cmd_economics(args, scheme: hashing.HashScheme) -> int:
    for name, value in vars(args).items():  # NaN and infinity pass any range check
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be a finite number, got {value!r}")
    if args.kind == "equilibrium":
        try:
            payoffs = economics.GamePayoffs(C=args.C, R=args.R, L=args.L, B=args.B, S=args.S)
            eq = economics.verifier_equilibrium(payoffs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        print("action (validator/submitter)  validator  submitter")
        for (va, sa), (uv, us) in economics.payoff_matrix(payoffs).items():
            print(f"  {va}/{sa}: {uv!r} {us!r}")
        print(f"cheat_probability={eq.p_c!r}")
        print(f"check_probability={eq.p_v!r}")
        print(f"interior={eq.interior}")
        return EXIT_OK
    report = None
    try:
        best = economics.optimal_attention(args.r, args.t, args.C)
        p_t = args.p_t if args.p_t is not None else best.p_t
        if args.simulate:
            report = economics.simulate_attention_rounds(
                rounds=args.simulate,
                p_t=p_t,
                n_validators=args.validators,
                lazy_fraction=args.lazy_fraction,
                seed=args.seed,
                penalty=args.penalty,
                scheme=scheme,
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"deposit={best.G!r}")
    print(f"response_probability={best.p_t!r}")
    print(f"min_cost={best.cost!r}")
    if report is not None:
        print(f"rounds={report.rounds} samples={report.samples} "
              f"selected={report.selections} empirical_rate={report.empirical_rate!r} "
              f"penalized={report.penalized} burned={report.burned}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness bundles
# ---------------------------------------------------------------------------


def write_witness_bundle(path, scheme_name, pre_root, claimed_post, witness):
    blob = witness.to_bytes()
    with open(path, "wb") as fh:
        fh.write(WITNESS_MAGIC)
        name = scheme_name.encode()
        fh.write(struct.pack("<B", len(name)))
        fh.write(name)
        fh.write(pre_root)
        fh.write(claimed_post)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", 0))  # preimage count


def read_witness_bundle(data: bytes):
    """(scheme name, pre root, claimed post root, witness, preimages);
    wire.ParseError when a field runs past the end or bytes trail the last one."""
    r = wire.Reader(data)
    if r.take(4, "magic") != WITNESS_MAGIC:
        raise wire.ParseError(0, "bad witness bundle magic")
    scheme_name = r.take(r.u8("scheme name"), "scheme name").decode()
    pre_root, claimed = r.take(32, "pre root"), r.take(32, "claimed post root")
    inner = r.part(r.u32("witness length"), "witness")
    witness = fpvm.StepWitness.read(inner)
    inner.end("witness")
    preimages = [r.take(r.u32("preimage"), "preimage") for _ in range(r.u32("preimage count"))]
    r.end("witness bundle")
    return scheme_name, pre_root, claimed, witness, preimages


def cmd_verify_witness(args, _scheme: hashing.HashScheme) -> int:
    """Checks the bundle under the scheme it names, not the invocation's."""
    data = _read_file(args.file)
    try:
        scheme_name, pre_root, claimed, witness, values = read_witness_bundle(data)
        scheme = hashing.get_scheme(scheme_name)
    except (ValueError, KeyError) as exc:
        raise IoError(f"{args.file}: {exc}") from exc
    oracle = fpvm.PreimageOracle(scheme)
    for value in values:
        oracle.put(value)
    verdict = fpvm.verify_step(pre_root, claimed, witness,
                               preimage_chunk_check=not args.skip_preimage_check,
                               preimages=oracle, scheme=scheme)
    status = "Accept" if verdict.accepted else "Reject"
    reason = f" reason={verdict.reason}" if verdict.reason else ""
    print(f"verdict={status}{reason}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `opml` parser, built once per process: every default it holds is
    immutable, so one parser serves every `main` call."""
    parser = argparse.ArgumentParser(prog="opml", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a model, print the claim")
    p_run.add_argument("--model", required=True)
    p_run.add_argument("--input", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--dump-trace")

    p_disp = sub.add_parser("dispute", help="play a dispute game")
    p_disp.add_argument("--config")
    for key, opt in DISPUTE_OPTIONS.items():
        if key != "phases":
            p_disp.add_argument("--" + key.replace(".", "-"),
                                type=int if opt.kind is int else str,
                                choices=None if opt.kind in (int, str) else opt.kind,
                                help="used by " + ", ".join(opt.games) + " games")

    p_sec = sub.add_parser("security", help="trust-model probabilities (CSV)")
    p_sec.add_argument("--p", type=float, required=True)
    p_sec.add_argument("--m", required=True, help="validator count or range a:b")
    p_sec.add_argument("--f", type=float, default=0.5)

    p_eco = sub.add_parser("economics", help="incentive analysis")
    eco_sub = p_eco.add_subparsers(dest="kind", required=True)
    p_eq = eco_sub.add_parser("equilibrium")
    p_eq.add_argument("--C", type=float, required=True)
    p_eq.add_argument("--R", type=float, required=True)
    p_eq.add_argument("--L", type=float, required=True)
    p_eq.add_argument("--B", type=float, required=True)
    p_eq.add_argument("--S", type=float, required=True)
    p_att = eco_sub.add_parser("attention")
    p_att.add_argument("--r", type=float, required=True)
    p_att.add_argument("--t", type=float, required=True)
    p_att.add_argument("--C", type=float, required=True)
    p_att.add_argument("--p-t", type=float, dest="p_t")
    p_att.add_argument("--simulate", type=int)
    p_att.add_argument("--validators", type=int, default=1)
    p_att.add_argument("--lazy-fraction", type=float, default=0.0)
    p_att.add_argument("--penalty", type=int, default=10)
    p_att.add_argument("--seed", type=int, default=0)

    p_vw = sub.add_parser("verify-witness", help="offline one-step verification")
    p_vw.add_argument("--file", required=True)
    p_vw.add_argument("--skip-preimage-check", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one `opml` command and return its exit code; a usage error exits
    2 through argparse. Each call reads OPML_HASH again, and the handler is
    looked up by command name when it runs (`cmd_run` for `run`,
    `cmd_verify_witness` for `verify-witness`), so a wrapper put on a
    `cmd_*` function after the first call still sees every later one."""
    try:
        scheme = hashing.get_scheme(os.environ.get("OPML_HASH", "sha256"))
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args, scheme)
    except (ConfigError, fpvm.BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IoError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:  # a constant line: the handler allocates as little as it can
        print("error: out of memory", file=sys.stderr)
        return EXIT_IO
    except (dispute.ProtocolViolation, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
