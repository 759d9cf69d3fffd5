"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the measured numbers they rest on.
"""

import random
import subprocess
import sys
import time
from dataclasses import replace

from opml import dispute, economics, fpvm, lowering, merkle, ml, multiphase
from opml.dispute import ActorStrategy, ChainSim, Claim, build_trace_actor
from opml.hashing import get_scheme

from fixtures import build_mlp, fixture_models, phase_rounds, rand_tensor, random_small_mlp, staked_chain

SCHEME = get_scheme("sha256")

#: (measured rounds, expected rounds) pairs collected from responsive games.
_round_measurements: list[tuple[int, int]] = []


def _single_phase_game(rng):
    n = rng.randrange(4, 513)
    k = rng.choice([1, 2, 3])
    m = rng.choice([1, 1, 1, 2, 4])
    fault_step = rng.randrange(1, n + 1)
    kind = rng.choice(["fault", "fault", "fault", "wrong-midpoint", "silent", "random"])
    faulty_submitter = rng.random() < 0.5

    program = dispute.synthetic_program(rng, n)
    honest_trace = fpvm.run_trace(fpvm.load_program(program, scheme=SCHEME))
    fault = fpvm.StepFault(fault_step, dispute.SCRATCH_FAULT_LEAF, rng.randrange(256))
    adversary = ActorStrategy(
        kind=kind,
        fault=fault if kind in ("fault", "silent") else None,
        wrong_round=1 if kind == "wrong-midpoint" else None,
        silent_after=rng.randrange(0, 4) if kind == "silent" else None,
        seed=rng.getrandbits(32),
    )
    honest = ActorStrategy()
    submitter = build_trace_actor("sub", honest_trace, adversary if faulty_submitter else honest)
    challenger = build_trace_actor("chal", honest_trace, honest if faulty_submitter else adversary)
    # the posted claim is whatever the submitter asserts, junk included
    claim = Claim.posted_by(submitter, k, m)
    chain = staked_chain("sub", "chal")
    total = chain.total()
    result = dispute.run_dispute(claim, submitter, challenger, chain=chain)
    assert chain.total() == total, "stake conservation violated"

    honest_wins = result.winner == ("challenger" if faulty_submitter else "submitter")
    fully_responsive = kind == "fault"
    if fully_responsive:
        _round_measurements.append(
            (result.rounds, dispute.interaction_count_bound(n, m, k))
        )
        if faulty_submitter and m == 1:
            assert result.pinned_step == fault_step, "wrong step pinned"
    return honest_wins


def _two_phase_game(rng):
    graph, x = random_small_mlp(rng)
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    shapes = graph.infer_shapes()
    computable = [node.id for node in graph.nodes if node.op not in ("input", "const")]
    node_id = rng.choice(computable)
    numel = 1
    for d in shapes[node_id]:
        numel *= d
    fault = ml.GraphFault(node_id, rng.randrange(numel), rng.randrange(32))
    faulty_submitter = rng.random() < 0.5
    k1, k2 = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
    m = rng.choice([1, 1, 2])

    submitter = multiphase.make_party(
        "sub", honest, graph_fault=fault if faulty_submitter else None)
    challenger = multiphase.make_party(
        "chal", honest, graph_fault=None if faulty_submitter else fault)
    chain = staked_chain("sub", "chal")
    total = chain.total()
    result = multiphase.run_two_phase_dispute(
        graph, x, submitter, challenger,
        multiphase.PhaseConfig(k_phase1=k1, k_phase2=k2, m=m), chain, scheme=SCHEME)
    assert chain.total() == total, "stake conservation violated"

    _round_measurements.append(
        (phase_rounds(chain)[0], dispute.interaction_count_bound(len(graph.nodes), 1, k1))
    )
    honest_wins = result.winner == ("challenger" if faulty_submitter else "submitter")
    if honest_wins and faulty_submitter:
        assert result.pinned_node == node_id, "wrong node pinned"
    return honest_wins


def test_criterion_1_dispute_soundness_completeness():
    """>= 200 randomized games; the honest party wins every one, fast."""
    rng = random.Random(0xC0FFEE)
    t0 = time.monotonic()
    games = wins = 0
    for _ in range(160):
        wins += _single_phase_game(rng)
        games += 1
    for _ in range(45):
        wins += _two_phase_game(rng)
        games += 1
    elapsed = time.monotonic() - t0
    assert games >= 200
    assert wins == games, f"honest party lost {games - wins} of {games} games"
    assert elapsed < 120, f"suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: honest party won {wins}/{games} games in {elapsed:.1f}s")


def test_criterion_2_round_count_exact():
    """Measured rounds equal ceil(log_{k+1}(ceil(n/m))) in every responsive game."""
    if len(_round_measurements) < 100:  # criterion 1 did not run first
        rng = random.Random(0x2222)
        while len(_round_measurements) < 100:
            _single_phase_game(rng)
    for measured, expected in _round_measurements:
        assert measured == expected, (measured, expected)
    print(f"\nPASS criterion 2: rounds exact in {len(_round_measurements)} responsive games")


def test_criterion_3_one_step_arbitration():
    """1000 honest steps accept; 1000 single-bit mutations reject; witnesses
    stay under 4 KiB; the verifier touches no tree."""
    rng = random.Random(0xA11CE)

    # pool of traces: synthetic programs, a lowered node, a whole graph
    traces = []
    oracles = []
    for _ in range(6):
        program = dispute.synthetic_program(rng, rng.randrange(20, 200))
        traces.append(fpvm.run_trace(fpvm.load_program(program, scheme=SCHEME)))
        oracles.append(None)
    mm_node = ml.GraphNode(2, "matmul", (0, 1))
    a, b = rand_tensor(rng, (2, 3)), rand_tensor(rng, (3, 2))
    lowered = lowering.lower_node(mm_node, [a, b])
    oracle = fpvm.PreimageOracle(SCHEME)
    traces.append(fpvm.run_trace(lowering.node_initial_state(lowered, oracle), oracle))
    oracles.append(oracle)
    graph = build_mlp(seed=5, in_dim=3, hidden=4, out_dim=2)
    lg = lowering.lower_graph(graph)
    traces.append(fpvm.run_trace(lg.initial_state(rand_tensor(rng, (1, 3)), SCHEME), None))
    oracles.append(None)

    max_witness = 0
    checked = rejected = 0
    for trial in range(1000):
        which = rng.randrange(len(traces))
        trace, orc = traces[which], oracles[which]
        k = rng.randrange(len(trace))
        witness = fpvm.gen_step_witness(trace.state_at(k), orc)
        blob = witness.to_bytes()
        max_witness = max(max_witness, len(blob))
        verdict = fpvm.verify_step(trace.root_at(k), trace.root_at(k + 1), witness,
                                   preimages=orc, scheme=SCHEME)
        assert verdict.accepted, (trial, verdict.reason)
        checked += 1

        # one random single-bit mutation of the full proof bundle
        bundle = bytearray(trace.root_at(k) + trace.root_at(k + 1) + blob)
        bundle[rng.randrange(len(bundle))] ^= 1 << rng.randrange(8)
        pre = bytes(bundle[:32])
        post = bytes(bundle[32:64])
        try:
            mutated = fpvm.StepWitness.from_bytes(bytes(bundle[64:]))
        except ValueError:
            rejected += 1
            continue
        verdict = fpvm.verify_step(pre, post, mutated, preimages=orc, scheme=SCHEME)
        if not verdict.accepted:
            rejected += 1
    assert rejected == checked == 1000
    assert max_witness <= 4096

    # structural O(1) check: no tree construction, hashing or proving while
    # verifying, and the verifier's signature admits no tree argument.
    import inspect

    params = inspect.signature(fpvm.verify_step).parameters
    assert not any("tree" in name.lower() for name in params)
    calls = {"n": 0}
    originals = (merkle.MemTree.root, merkle.MemTree.update_leaf, merkle.MemTree.prove)

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls["n"] += 1
            return fn(*args, **kwargs)
        return wrapped

    merkle.MemTree.root = counting(originals[0])
    merkle.MemTree.update_leaf = counting(originals[1])
    merkle.MemTree.prove = counting(originals[2])
    try:
        trace = traces[0]
        w = fpvm.gen_step_witness(trace.state_at(0), None)
        pre, post = trace.root_at(0), trace.root_at(1)
        calls["n"] = 0
        assert fpvm.verify_step(pre, post, w, scheme=SCHEME).accepted
        assert calls["n"] == 0, "verify_step touched the memory tree"
    finally:
        merkle.MemTree.root, merkle.MemTree.update_leaf, merkle.MemTree.prove = originals
    print(f"\nPASS criterion 3: 1000 accepts, 1000 mutation rejects, "
          f"max witness {max_witness} B, no tree access")


def test_criterion_4_determinism():
    """100 random small models agree across both paths; goldens reproduce in
    a separate process."""
    rng = random.Random(0xD17E)
    for i in range(100):
        graph, x = random_small_mlp(rng)
        (native, _), (again, _) = ml.execute_native(graph, x), ml.execute_native(graph, x)
        commitments = ml.run_graph(graph, x, scheme=SCHEME).commitments
        commitments2 = ml.run_graph(graph, x, scheme=SCHEME).commitments
        assert native == again and commitments == commitments2
        via_vm = lowering.execute_via_vm(graph, x, scheme=SCHEME)
        assert ml.serialize_tensor(via_vm) == ml.serialize_tensor(native), f"model {i}"

    import os

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    snippet = (
        f"import sys; sys.path.insert(0, {here!r}); sys.path.insert(0, {src!r});"
        "from fixtures import build_mlp, rand_tensor;"
        "import random; from opml import ml; from opml.hashing import get_scheme;"
        "s = get_scheme('sha256');"
        "g = build_mlp(seed=0, in_dim=4, hidden=8, out_dim=3);"
        "x = rand_tensor(random.Random(1), (1, 4));"
        "out, _ = ml.execute_native(g, x);"
        "print(g.model_digest(s).hex()); print(s.digest(ml.serialize_tensor(out)).hex())"
    )
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                          text=True, check=True)
    model_digest, output_digest = proc.stdout.split()
    graph = build_mlp(seed=0, in_dim=4, hidden=8, out_dim=3)
    x = rand_tensor(random.Random(1), (1, 4))
    out, _ = ml.execute_native(graph, x)
    assert model_digest == graph.model_digest(SCHEME).hex()
    assert output_digest == SCHEME.digest(ml.serialize_tensor(out)).hex()
    print("\nPASS criterion 4: 100/100 dual-path matches; goldens stable across processes")


def test_criterion_5_entrance_exit_checks():
    """Honest transition evidence accepted; every mutation rejected."""
    graph = build_mlp(seed=21, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(22), (1, 3))
    run = ml.run_graph(graph, x, scheme=SCHEME)
    shapes = graph.infer_shapes()
    programs = {i: lowering.node_program(graph.nodes[i].op, tuple(
        shapes[j] for j in graph.nodes[i].input_ids))[0] for i in (2, 4, 5, 7)}
    rng = random.Random(23)
    accepted = 0
    mutations_rejected = 0
    mutations_total = 0

    for node_id in programs:
        m0, oracle, bundle, _ = multiphase.build_entrance_state(run, node_id, SCHEME)
        ok, why = multiphase.entrance_check(bundle, graph, SCHEME)
        assert ok, why
        accepted += 1

        mutants = []
        dirty = m0.memory.update_leaf((fpvm.HEAP_BASE // 32) + rng.randrange(50),
                                      rng.randbytes(32))
        mutants.append(replace(bundle, m0_root=dirty.root()))
        for field_name in ("s_prev_root", "m0_root"):
            flipped = bytearray(getattr(bundle, field_name))
            flipped[rng.randrange(32)] ^= 1 << rng.randrange(8)
            mutants.append(replace(bundle, **{field_name: bytes(flipped)}))
        # Images of another node's program, a nonzero model leaf, and the
        # operand keys shifted by one leaf.
        program = programs[node_id]
        other_program = programs[rng.choice([i for i in programs if i != node_id])]
        keys = fpvm.read_bytes(m0.memory, fpvm.INPUT_BASE,
                               32 * len(graph.nodes[node_id].input_ids))
        assert fpvm.load_program(program, keys, scheme=SCHEME).memory.root() == bundle.m0_root
        for image in (
            fpvm.load_program(other_program, keys, scheme=SCHEME),
            fpvm.load_program(program, keys, rng.randbytes(32), scheme=SCHEME),
            fpvm.load_program(program, bytes(32) + keys, scheme=SCHEME),
        ):
            mutants.append(replace(bundle, m0_root=image.memory.root()))
        bad_entries = list(bundle.opening.entries)
        slot = rng.randrange(node_id)
        bad_entries[slot] = (rng.randbytes(32), bad_entries[slot][1])
        mutants.append(replace(bundle, opening=replace(bundle.opening, entries=tuple(bad_entries))))
        mutants.append(replace(bundle, node_id=(node_id + 1) % len(graph.nodes)))

        for mutant in mutants:
            mutations_total += 1
            ok, _ = multiphase.entrance_check(mutant, graph, SCHEME)
            mutations_rejected += not ok

        final, _ = fpvm.run(m0, oracle)
        exit_bundle = multiphase.build_exit_bundle(run, node_id, final)
        ok, why = multiphase.exit_check(exit_bundle, graph, SCHEME, fpvm.state_root(final))
        assert ok, why
        accepted += 1

        exit_mutants = []
        leaf = fpvm.OUTPUT_BASE // 32 + rng.randrange(2)
        corrupted_leaf = bytearray(final.memory.get_leaf(leaf))
        corrupted_leaf[rng.randrange(32)] ^= 1 << rng.randrange(8)
        dirty_state = fpvm.VmState(final.pc, final.regs,
                                   final.memory.update_leaf(leaf, bytes(corrupted_leaf)),
                                   final.exited, final.exit_code)
        exit_mutants.append(multiphase.build_exit_bundle(run, node_id, dirty_state))
        for field_name in ("s_post_root", "final_state_root"):
            flipped = bytearray(getattr(exit_bundle, field_name))
            flipped[rng.randrange(32)] ^= 1 << rng.randrange(8)
            exit_mutants.append(replace(exit_bundle, **{field_name: bytes(flipped)}))
        siblings = list(exit_bundle.output_proof.siblings)
        slot = rng.randrange(len(siblings))
        flipped = bytearray(siblings[slot])
        flipped[rng.randrange(32)] ^= 1 << rng.randrange(8)
        siblings[slot] = bytes(flipped)
        exit_mutants.append(replace(
            exit_bundle, output_proof=replace(exit_bundle.output_proof, siblings=siblings)))
        exit_mutants.append(replace(
            exit_bundle,
            output_proof=final.memory.prove(fpvm.INPUT_BASE // 32, fpvm.INPUT_LEVEL)))

        for mutant in exit_mutants:
            mutations_total += 1
            ok, _ = multiphase.exit_check(mutant, graph, SCHEME, mutant.final_state_root)
            mutations_rejected += not ok

    assert mutations_rejected == mutations_total
    print(f"\nPASS criterion 5: {accepted} honest bundles accepted, "
          f"{mutations_rejected}/{mutations_total} mutations rejected")


def test_criterion_6_security_formulas():
    assert economics.any_trust_prob(0.5, 10) == 0.9990234375
    assert economics.majority_trust_prob(0.5, 10, 0.5) == 638 / 1024
    for f in (0.4, 0.5):
        for m in range(4, 30):
            for p_step in range(1, 20):
                p = p_step / 20
                assert economics.any_trust_prob(p, m) > economics.majority_trust_prob(p, m, f)
    print("\nPASS criterion 6: exact closed-form values; any-trust dominates on the grid")


def test_criterion_7_incentive_numbers():
    rng = random.Random(0xBEEF)
    for _ in range(1000):
        payoffs = economics.GamePayoffs(
            C=rng.uniform(0.01, 5), R=rng.uniform(0.01, 10), L=rng.uniform(0.01, 10),
            B=rng.uniform(0.01, 10), S=rng.uniform(0.01, 20))
        p_c, p_v, _ = economics.verifier_equilibrium(payoffs)
        assert abs(p_c * (payoffs.R - payoffs.C) + (1 - p_c) * (-payoffs.C)
                   - (-p_c * payoffs.L)) < 1e-12
        assert abs(p_v * (-payoffs.S) + (1 - p_v) * payoffs.B - (-payoffs.C)) < 1e-12

    best = economics.optimal_attention(0.001, 1.0, 0.001)
    assert abs(best.G - 1.0) < 1e-12
    assert abs(best.p_t - 0.001) < 1e-12
    assert abs(best.cost - 0.002) < 1e-12
    r, t, C = 0.001, 1.0, 0.001
    cheaper = 0
    for gi in range(1, 101):
        for pi in range(1, 101):
            G, p_t = gi * 0.05, pi / 100
            if p_t * G >= C and r * G + t * p_t < best.cost - 1e-12:
                cheaper += 1
    assert cheaper == 0
    print("\nPASS criterion 7: 1000 indifference identities at 1e-12; "
          "optimal attention point exact and grid-optimal")


def test_criterion_8_complexity_relation():
    lines = []
    for name, graph, x in fixture_models():
        run = ml.run_graph(graph, x, scheme=SCHEME)
        per_node = []
        for node in graph.nodes:
            if node.op in ("input", "const"):
                continue
            m0, oracle, _, _ = multiphase.build_entrance_state(run, node.id, SCHEME)
            _, steps = fpvm.run(m0, oracle)
            per_node.append(steps)
        lowered = lowering.lower_graph(graph)
        _, single_steps = fpvm.run(lowered.initial_state(x, SCHEME), None)
        two_phase_total = sum(per_node)
        n_nodes = len(graph.nodes)
        ratio = single_steps / two_phase_total
        lines.append(f"  {name}: nodes={n_nodes} phase1_states={n_nodes + 1} "
                     f"per_node_steps={per_node} sum={two_phase_total} "
                     f"single_phase_steps={single_steps} ratio={ratio:.2f}")
        assert 0.5 <= ratio <= 2.0, lines[-1]
    print("\nPASS criterion 8: two-phase size product within x2 of the one-shot trace")
    for line in lines:
        print(line)


def test_criterion_9_attention_simulation():
    report = economics.simulate_attention_rounds(rounds=10_000, p_t=0.1,
                                                 n_validators=1, seed=0xFEED, scheme=SCHEME)
    assert report.samples == 10_000
    assert 0.091 <= report.empirical_rate <= 0.109, report.empirical_rate

    chain = ChainSim(challenge_period=1)
    lazy = economics.simulate_attention_rounds(rounds=2000, p_t=0.1, n_validators=3,
                                               lazy_fraction=0.4, seed=7, penalty=10,
                                               chain=chain, scheme=SCHEME)
    assert lazy.penalized > 0
    assert chain.burned == lazy.penalized * 5
    assert chain.total() == sum(chain.balances.values()) + sum(chain.stakes.values()) + chain.burned
    print(f"\nPASS criterion 9: selection rate {report.empirical_rate:.4f} in the 3-sigma band; "
          f"{lazy.penalized} penalties conserved exactly")
