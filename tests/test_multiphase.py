"""Two-phase games, phase transitions, and the entrance/exit checks under
adversarial mutation."""

import itertools
import random
import sys
from dataclasses import asdict, replace

import pytest

from opml import dispute, fpvm, hashing, lowering, merkle, ml, multiphase
from opml.dispute import ActorStrategy, ChainSim, Claim, build_trace_actor, interaction_count_bound
from opml.hashing import HashScheme, get_scheme, scheme_names
from opml.multiphase import (
    EntranceBundle,
    ExitBundle,
    PhaseConfig,
    build_entrance_state,
    build_exit_bundle,
    entrance_check,
    exit_check,
    make_party,
    public_next_root,
    run_two_phase_dispute,
)

from fixtures import build_matmul_only, build_mlp, fixture_models, phase_rounds, rand_tensor

SCHEME = get_scheme("sha256")


def fresh_chain(*parties):
    chain = ChainSim()
    for p in parties:
        chain.deposit(p, 1000)
        chain.stake(p, 100)
    return chain


def test_phase1_commitments_shape():
    graph = build_mlp(seed=60, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(61), (1, 3))
    roots = ml.run_graph(graph, x, scheme=SCHEME).commitments
    assert len(roots) == len(graph.nodes) + 1
    assert roots == ml.run_graph(graph, x, scheme=SCHEME).commitments


def entrance_fixture(node_id=2, seed=62):
    graph = build_mlp(seed=seed, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(seed + 1), (1, 3))
    run = ml.run_graph(graph, x, scheme=SCHEME)
    m0, oracle, bundle, lowered = build_entrance_state(run, node_id, SCHEME)
    return graph, run, m0, oracle, bundle, lowered


def test_entrance_honest_accepted_and_m0_reproducible():
    graph, run, m0, oracle, bundle, lowered = entrance_fixture()
    ok, why = entrance_check(bundle, graph, SCHEME)
    assert ok, why
    # zero output region in the initial image
    assert m0.memory.subtree_root(fpvm.OUTPUT_BASE, fpvm.OUTPUT_LEVEL) == SCHEME.zero_hashes[fpvm.OUTPUT_LEVEL]
    # rebuilt across an independent construction: identical memory root
    graph2, run2, m0_again, _, bundle2, _ = entrance_fixture()
    assert m0_again.memory.root() == m0.memory.root()
    assert bundle2 == bundle
    assert m0.memory.root().hex() == GOLDEN_ENTRANCE_M0_ROOT


def test_entrance_state_builds_each_region_once(monkeypatch):
    """The prover builds each region of the image once, in `load_program`,
    which hashes it or, for the program region, takes its digest from
    `fpvm.program_root`'s memo: the bundle carries the image's root alone,
    so no region is built or hashed a second time for the evidence."""
    run = ml.run_graph(build_mlp(seed=62, in_dim=3, hidden=4, out_dim=2),
                       rand_tensor(random.Random(63), (1, 3)), scheme=SCHEME)
    callers = []
    build_region = merkle.build_region

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return build_region(*args, **kwargs)

    monkeypatch.setattr(merkle, "build_region", spy)
    monkeypatch.setattr(merkle, "region_root", lambda *a, **kw: pytest.fail("region_root called"))
    build_entrance_state(run, 2, SCHEME)
    assert callers == ["load_program"] * 3


class _NodeCountingScheme(HashScheme):
    """sha256 that counts its node hashes after its zero-hash table."""

    nodes = 0

    def __init__(self):
        super().__init__("sha256", get_scheme("sha256").digest)
        self.nodes = 0

    def node_hash(self, left: bytes, right: bytes) -> bytes:
        self.nodes += 1
        return super().node_hash(left, right)


def test_entrance_check_hashes_no_program_node_the_prover_hashed(monkeypatch):
    """The verifier's registered program root is the digest the prover's
    `load_program` put in the memo: the check hashes only the operand keys'
    region and the tree over the two region roots."""
    monkeypatch.setattr(fpvm, "_PROGRAM_ROOTS", {})
    scheme = _NodeCountingScheme()
    run = ml.run_graph(build_mlp(seed=62, in_dim=3, hidden=4, out_dim=2),
                       rand_tensor(random.Random(63), (1, 3)), scheme=scheme)
    _, _, bundle, lowered = build_entrance_state(run, 2, scheme)
    scheme.nodes = 0
    assert entrance_check(bundle, run.graph, scheme) == (True, "")
    keys_region = fpvm.INPUT_LEVEL  # two key leaves: one node per level
    above_regions = hashing.TREE_DEPTH - fpvm.PROGRAM_LEVEL + 1
    assert scheme.nodes == keys_region + above_regions

    # A verifier with a cold memo hashes the whole program region itself.
    monkeypatch.setattr(fpvm, "_PROGRAM_ROOTS", {})
    scheme.nodes = 0
    assert entrance_check(bundle, run.graph, scheme) == (True, "")
    assert scheme.nodes > keys_region + above_regions + len(lowered.program) // 32


def test_entrance_state_hashes_each_operand_blob_once(monkeypatch):
    """The oracle's `put` keys each operand; nothing else hashes its blob."""
    run = ml.run_graph(build_mlp(seed=62, in_dim=3, hidden=4, out_dim=2),
                       rand_tensor(random.Random(63), (1, 3)), scheme=SCHEME)
    blobs = [ml.tensor_blob(run.outputs[i]) for i in run.graph.nodes[2].input_ids]
    hashed = []
    digest = HashScheme.digest
    monkeypatch.setattr(HashScheme, "digest",
                        lambda scheme, data: hashed.append(data) or digest(scheme, data))
    m0, oracle, _, _ = build_entrance_state(run, 2, SCHEME)
    assert [hashed.count(blob) for blob in blobs] == [1] * len(blobs)
    keys = fpvm.read_bytes(m0.memory, fpvm.INPUT_BASE, 32 * len(blobs))
    assert [oracle.get(keys[32 * i : 32 * i + 32]) for i in range(len(blobs))] == blobs


def test_entrance_rejects_tampering():
    graph, run, m0, oracle, bundle, lowered = entrance_fixture()
    rejects = []  # (reason, bundle)

    # extra nonzero scratch leaf in the claimed initial memory
    dirty = m0.memory.update_leaf((fpvm.HEAP_BASE // 32) + 5, b"\x01" * 32)
    rejects.append(("initial memory root not reconstructible", replace(bundle, m0_root=dirty.root())))
    # flipped a bit of the claimed root
    flipped = bytearray(bundle.m0_root)
    flipped[0] ^= 1
    rejects.append(("initial memory root not reconstructible", replace(bundle, m0_root=bytes(flipped))))
    # images the verifier does not rebuild: the program of another op or
    # shape, a nonzero model leaf, the operand keys shifted by one leaf
    keys = fpvm.read_bytes(m0.memory, fpvm.INPUT_BASE, 64)
    assert fpvm.load_program(lowered.program, keys, scheme=SCHEME).memory.root() == bundle.m0_root
    for program, input_blob, model_blob in (
        (lowering.node_program("relu", ((1, 4),))[0], keys, b""),
        (lowering.node_program("matmul", ((1, 3), (3, 5)))[0], keys, b""),
        (lowered.program, keys, b"\x01"),
        (lowered.program, b"\x00" * 32 + keys, b""),
    ):
        image = fpvm.load_program(program, input_blob, model_blob, scheme=SCHEME)
        rejects.append(("initial memory root not reconstructible",
                        replace(bundle, m0_root=image.memory.root())))
    # opening that does not hash to the agreed state
    fake_entries = list(bundle.opening.entries)
    fake_entries[0] = (SCHEME.digest(b"x"), SCHEME.digest(b"y"))
    rejects.append(("opening does not match the agreed state", replace(bundle, opening=replace(
        bundle.opening, entries=tuple(fake_entries)))))
    # wrong node id (field address in the agreed state)
    rejects.append(("operand entry empty in the agreed state", replace(bundle, node_id=4)))
    # node with no lowering
    rejects.append(("node has no phase-2 computation", replace(bundle, node_id=0)))
    # node id outside the graph, past either end
    rejects.append(("node id out of range", replace(bundle, node_id=len(graph.nodes))))
    rejects.append(("node id out of range", replace(bundle, node_id=-1)))
    # opening one entry short of the graph
    rejects.append(("opening has wrong arity", replace(bundle, opening=replace(
        bundle.opening, entries=bundle.opening.entries[:-1]))))

    for i, (reason, bad) in enumerate(rejects):
        assert entrance_check(bad, graph, SCHEME) == (False, reason), f"mutation {i}"


def test_entrance_from_tampered_state_rejected():
    graph = build_mlp(seed=63, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(64), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    corrupt = honest.fork(ml.GraphFault(1, 0, 2))
    # build from the corrupted record: the opening self-verifies against the
    # corrupted state root, so the engine-level agreement check is what
    # rejects it; with the honest agreed root, the opening fails outright.
    _, _, bundle, _ = build_entrance_state(corrupt, 2, SCHEME)
    assert bundle.s_prev_root != honest.commitments[2]
    honest_opening = replace(bundle.opening, entries=honest.states[2].entries)
    mixed = replace(bundle, s_prev_root=honest.commitments[2])
    ok, _ = entrance_check(mixed, graph, SCHEME)
    assert not ok  # corrupted opening vs honest root
    mixed2 = replace(mixed, opening=honest_opening)
    ok, _ = entrance_check(mixed2, graph, SCHEME)
    assert not ok  # honest opening but an image of the corrupted operand keys


def exit_fixture(node_id=2, seed=65):
    graph = build_mlp(seed=seed, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(seed + 1), (1, 3))
    run = ml.run_graph(graph, x, scheme=SCHEME)
    m0, oracle, bundle, lowered = build_entrance_state(run, node_id, SCHEME)
    final, _ = fpvm.run(m0, oracle)
    return graph, run, final, build_exit_bundle(run, node_id, final)


def test_exit_honest_accepted():
    graph, run, final, bundle = exit_fixture()
    ok, why = exit_check(bundle, graph, SCHEME)
    assert ok, why


def test_exit_rejects_mismatches():
    graph, run, final, bundle = exit_fixture()
    rejects = []  # (reason, bundle)

    # corrupted output leaf in the final machine
    leaf = fpvm.OUTPUT_BASE // 32
    dirty = final.memory.update_leaf(leaf, b"\x07" + final.memory.get_leaf(leaf)[1:])
    dirty_state = fpvm.VmState(final.pc, final.regs, dirty, final.exited, final.exit_code)
    rejects.append(("vm output differs from the claimed node output",
                    build_exit_bundle(run, 2, dirty_state)))
    # proof for the wrong region (input instead of output)
    wrong_proof = final.memory.prove(fpvm.INPUT_BASE // 32, fpvm.INPUT_LEVEL)
    rejects.append(("output proof aimed at the wrong field", replace(bundle, output_proof=wrong_proof)))
    # output proof with one sibling flipped
    siblings = list(bundle.output_proof.siblings)
    siblings[3] = bytes([siblings[3][0] ^ 1]) + siblings[3][1:]
    rejects.append(("vm output differs from the claimed node output",
                    replace(bundle, output_proof=replace(bundle.output_proof, siblings=siblings))))
    # opening not matching the phase-1 root
    fake = list(bundle.opening.entries)
    fake[2] = (fake[2][0], SCHEME.digest(b"other"))
    rejects.append(("opening does not match the claimed state", replace(bundle, opening=replace(
        bundle.opening, entries=tuple(fake)))))
    # vm fields not opening the final state root
    bad_fields = fpvm.VmFields(bundle.vm_fields.pc + 4, bundle.vm_fields.regs,
                               bundle.vm_fields.exited, bundle.vm_fields.exit_code,
                               bundle.vm_fields.memory_root)
    rejects.append(("vm fields do not open the final state root", replace(bundle, vm_fields=bad_fields)))
    # node id outside the graph, past either end
    rejects.append(("node id out of range", replace(bundle, node_id=len(graph.nodes))))
    rejects.append(("node id out of range", replace(bundle, node_id=-1)))
    # opening one entry short of the graph
    rejects.append(("opening has wrong arity", replace(bundle, opening=replace(
        bundle.opening, entries=bundle.opening.entries[:-1]))))

    for i, (reason, bad) in enumerate(rejects):
        assert exit_check(bad, graph, SCHEME) == (False, reason), f"mutation {i}"


def test_a_cold_two_phase_game_emits_the_pinned_kernel_once(monkeypatch):
    """The entrance image and the registered program root come from the one
    program of the pinned node's op and shapes."""
    lowering.node_program.cache_clear()
    monkeypatch.setattr(fpvm, "_PROGRAM_ROOTS", {})
    emitted = []
    emit_kernel = lowering._emit_kernel

    def spy(words, op, operand_bases, operand_shapes, dst_base):
        emitted.append((op, tuple(operand_shapes)))
        return emit_kernel(words, op, operand_bases, operand_shapes, dst_base)

    monkeypatch.setattr(lowering, "_emit_kernel", spy)
    graph = build_mlp(seed=66, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(67), (1, 3))
    result = play_two_phase(graph, x, "submitter", ActorStrategy(),
                            fault=ml.GraphFault(node_id=2, element=1, bit=4))
    assert (result.winner, result.pinned_node) == ("challenger", 2)
    assert result.pinned_step is not None
    assert emitted == [("matmul", ((1, 3), (3, 4)))]


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_registered_program_root_is_the_entrance_program_root(scheme_name):
    """The registry's root, rebuilt from the op and shapes alone, is the
    program region of the image the prover loads with the real operands."""
    scheme = get_scheme(scheme_name)
    checked = 0
    for _, graph, x in fixture_models():
        run = ml.run_graph(graph, x, scheme=scheme)
        shapes = graph.infer_shapes()
        for node in graph.nodes:
            if node.op in ("input", "const"):
                continue
            m0, _, _, _ = build_entrance_state(run, node.id, scheme)
            operand_shapes = tuple(shapes[i] for i in node.input_ids)
            assert (m0.memory.subtree_root(fpvm.PROGRAM_BASE, fpvm.PROGRAM_LEVEL)
                    == multiphase.node_program_root(node.op, operand_shapes, scheme))
            checked += 1
    assert checked == 12


def test_two_phase_fault_pins_node_and_challenger_wins():
    graph = build_mlp(seed=66, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(67), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    fault = ml.GraphFault(node_id=2, element=1, bit=4)
    chain = fresh_chain("alice", "bob")
    total = chain.total()
    result = run_two_phase_dispute(
        graph, x,
        make_party("alice", honest, graph_fault=fault),
        make_party("bob", honest),
        PhaseConfig(), chain, scheme=SCHEME,
    )
    assert result.winner == "challenger"
    assert result.pinned_node == 2
    assert result.pinned_step is not None
    assert chain.total() == total
    assert phase_rounds(chain)[0] <= interaction_count_bound(len(graph.nodes), 1, 1)


def test_two_phase_node_trace_is_held_to_the_step_budget(monkeypatch):
    graph = build_mlp(seed=66, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(67), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    sub = make_party("alice", honest)
    chal = make_party("bob", honest, graph_fault=ml.GraphFault(2, 1, 4))
    m0, oracle, _, _ = build_entrance_state(sub.roots, 2, SCHEME)
    n = len(fpvm.run_trace(m0, oracle))
    monkeypatch.setattr(fpvm, "MAX_STEPS", n - 1)
    with pytest.raises(fpvm.BudgetExceededError) as exc:
        run_two_phase_dispute(graph, x, sub, chal, PhaseConfig(), fresh_chain("alice", "bob"),
                              scheme=SCHEME)
    assert exc.value.steps == exc.value.state.step_count == n - 1


@pytest.mark.parametrize("field", ["k_phase1", "k_phase2", "m"])
def test_a_phase_config_below_1_raises_before_any_phase(field):
    with pytest.raises(ValueError, match="k_phase1, k_phase2 and m must each be >= 1"):
        PhaseConfig(**{field: 0})


@pytest.mark.parametrize("unstaked", ["alice", "bob"])
def test_two_phase_game_refuses_an_unstaked_party(unstaked):
    graph = build_mlp(seed=66, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(67), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    sub = make_party("alice", honest)
    chal = make_party("bob", honest, graph_fault=ml.GraphFault(2, 1, 4))
    chain = fresh_chain(*({"alice", "bob"} - {unstaked}))
    chain.deposit(unstaked, 1000)
    with pytest.raises(dispute.ProtocolViolation, match=f"^{unstaked} is not staked$"):
        run_two_phase_dispute(graph, x, sub, chal, PhaseConfig(), chain, scheme=SCHEME)
    assert not chain.open_disputes


def test_two_phase_honest_submitter_wins():
    graph = build_mlp(seed=68, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(69), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    fault = ml.GraphFault(node_id=4, element=0, bit=7)
    chain = fresh_chain("alice", "bob")
    result = run_two_phase_dispute(
        graph, x,
        make_party("alice", honest),
        make_party("bob", honest, graph_fault=fault),
        PhaseConfig(k_phase1=2, k_phase2=2), chain, scheme=SCHEME,
    )
    assert result.winner == "submitter"
    assert result.pinned_node == 4


def test_single_and_two_phase_agree_on_every_fault():
    """Cross-protocol equivalence: same injected fault, same winner."""
    rng = random.Random(70)
    graph = build_mlp(seed=71, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(72), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    lowered = lowering.lower_graph(graph)
    state0 = lowered.initial_state(x, SCHEME)
    honest_trace = fpvm.run_trace(state0, None)
    shapes = graph.infer_shapes()

    for trial in range(6):
        node_id = rng.choice([n.id for n in graph.nodes if n.op not in ("input", "const")])
        numel = 1
        for d in shapes[node_id]:
            numel *= d
        fault = ml.GraphFault(node_id, rng.randrange(numel), rng.randrange(31))
        faulty_submitter = rng.random() < 0.5

        # two-phase game
        chain = fresh_chain("alice", "bob")
        sub = make_party("alice", honest, graph_fault=fault if faulty_submitter else None)
        chal = make_party("bob", honest, graph_fault=None if faulty_submitter else fault)
        two = run_two_phase_dispute(graph, x, sub, chal, PhaseConfig(), chain, scheme=SCHEME)

        # single-phase game over the whole lowered computation
        step_fault = lowering.graph_fault_to_step_fault(lowered, honest_trace, fault)
        strat_fault = ActorStrategy(kind="fault", fault=step_fault)
        sub_actor = build_trace_actor("alice", honest_trace, strat_fault if faulty_submitter else ActorStrategy())
        chal_actor = build_trace_actor("bob", honest_trace, ActorStrategy() if faulty_submitter else strat_fault)
        claim = Claim.posted_by(sub_actor, 1, 1, claim_id=trial)
        chain2 = fresh_chain("alice", "bob")
        single = dispute.run_dispute(claim, sub_actor, chal_actor, chain=chain2)

        expected = "challenger" if faulty_submitter else "submitter"
        assert two.winner == expected, (trial, two.reason)
        assert single.winner == expected, (trial, single.reason)
        if faulty_submitter:
            assert two.pinned_node == node_id


@pytest.mark.parametrize("game", ["single-phase", "ruled-in-phase-1", "phase-2"])
def test_both_protocols_return_the_verdict_they_log_last(game):
    """The result of either protocol is its final transcript record; only a
    game that reaches phase 2 logs the inner game's verdict before it."""
    graph = build_mlp(seed=66, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(67), (1, 3))
    fault = ml.GraphFault(node_id=2, element=1, bit=4)
    chain = fresh_chain("alice", "bob")
    if game == "single-phase":
        lowered = lowering.lower_graph(graph)
        trace = fpvm.run_trace(lowered.initial_state(x, SCHEME))
        step_fault = lowering.graph_fault_to_step_fault(lowered, trace, fault)
        sub = build_trace_actor("alice", trace, ActorStrategy(kind="fault", fault=step_fault))
        chal = build_trace_actor("bob", trace, ActorStrategy())
        result = dispute.run_dispute(Claim.posted_by(sub, 2, 3), sub, chal, chain=chain)
    else:
        silent = ActorStrategy(kind="silent", silent_after=0)
        strategy = silent if game == "ruled-in-phase-1" else ActorStrategy()
        honest = ml.run_graph(graph, x, scheme=SCHEME)
        result = run_two_phase_dispute(
            graph, x, make_party("alice", honest, fault, strategy), make_party("bob", honest),
            PhaseConfig(), chain, scheme=SCHEME)
    assert chain.transcript[-1] == {"event": "verdict", **asdict(result)}
    assert result.winner == "challenger"
    assert result.pinned_node == (2 if game == "phase-2" else None)
    verdicts = [r for r in chain.transcript if r.get("event") == "verdict"]
    assert len(verdicts) == (2 if game == "phase-2" else 1)


def test_exit_failure_flips_the_verdict(monkeypatch):
    """An incoherent submitter (fraudulent node claim, honest VM play) wins
    the inner game trivially but fails the exit reconciliation and loses."""
    graph = build_mlp(seed=75, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(76), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    fault = ml.GraphFault(node_id=2, element=0, bit=5)

    # both parties play an honest VM trace regardless of their graph claims
    monkeypatch.setattr(multiphase, "_phase2_trace",
                        lambda party, node_id, honest_trace, lowered: honest_trace)
    chain = fresh_chain("alice", "bob")
    result = run_two_phase_dispute(
        graph, x,
        make_party("alice", honest, graph_fault=fault),
        make_party("bob", honest),
        PhaseConfig(), chain, scheme=SCHEME,
    )
    assert result.winner == "challenger"
    assert "exit check failed" in result.reason


def test_entrance_failure_loses_the_game_for_the_submitter(monkeypatch):
    """The submitter supplies the entrance evidence: a bundle whose initial
    memory root does not rebuild loses, before any VM step is played, even
    when the submitter's phase-1 claim is honest."""
    graph = build_mlp(seed=75, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(76), (1, 3))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    real = multiphase.build_entrance_state

    def flipped_m0_root(run, node_id, scheme):
        m0, oracle, bundle, lowered = real(run, node_id, scheme)
        root = bytes([bundle.m0_root[0] ^ 1]) + bundle.m0_root[1:]
        return m0, oracle, replace(bundle, m0_root=root), lowered

    monkeypatch.setattr(multiphase, "build_entrance_state", flipped_m0_root)
    monkeypatch.setattr(fpvm, "run_trace", lambda *a: pytest.fail("a VM trace was run"))
    chain = fresh_chain("alice", "bob")
    result = run_two_phase_dispute(
        graph, x,
        make_party("alice", honest),
        make_party("bob", honest, graph_fault=ml.GraphFault(2, 0, 5)),
        PhaseConfig(), chain, scheme=SCHEME,
    )
    assert (result.winner, result.pinned_node, result.pinned_step, phase_rounds(chain)[1]) == (
        "challenger", 2, None, 0)
    assert result.reason == "entrance check failed: initial memory root not reconstructible"
    assert {"phase": "transition", "check": "entrance", "accepted": False,
            "reason": "initial memory root not reconstructible"} in chain.transcript
    assert chain.transcript[-1]["event"] == "verdict"
    assert chain.transcript[-1]["reason"] == result.reason
    # alice's stake is slashed, half to bob and half burned; bob's is returned
    assert (chain.balances, chain.stakes, chain.burned) == ({"alice": 900, "bob": 1050}, {}, 50)
    assert not chain.open_disputes


def test_phase_counts_against_bound():
    graph = build_mlp(seed=73, in_dim=4, hidden=6, out_dim=3)
    x = rand_tensor(random.Random(74), (1, 4))
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    fault = ml.GraphFault(node_id=7, element=0, bit=1)
    for k1, k2, m in [(1, 1, 1), (2, 3, 2), (3, 2, 4)]:
        chain = fresh_chain("alice", "bob")
        result = run_two_phase_dispute(
            graph, x,
            make_party("alice", honest, graph_fault=fault),
            make_party("bob", honest),
            PhaseConfig(k_phase1=k1, k_phase2=k2, m=m), chain, scheme=SCHEME,
        )
        assert result.winner == "challenger"
        assert phase_rounds(chain)[0] == interaction_count_bound(len(graph.nodes), 1, k1)
        # phase-2 trace length varies; check against the generic bound shape
        assert phase_rounds(chain)[1] <= interaction_count_bound(60_000, m, k2)


def test_size_complexity_relation():
    """Coarse-state count plus per-node traces versus the one-shot trace."""
    for name, graph, x in fixture_models():
        run = ml.run_graph(graph, x, scheme=SCHEME)
        per_node_steps = []
        for node in graph.nodes:
            if node.op in ("input", "const"):
                continue
            m0, oracle, _, _ = build_entrance_state(run, node.id, SCHEME)
            _, steps = fpvm.run(m0, oracle)
            per_node_steps.append(steps)
        lowered = lowering.lower_graph(graph)
        _, single_steps = fpvm.run(lowered.initial_state(x, SCHEME), None)
        total_two_phase = sum(per_node_steps)
        ratio = single_steps / total_two_phase
        assert 0.5 <= ratio <= 2.0, (name, single_steps, total_two_phase)


GOLDEN_ENTRANCE_M0_ROOT = "20bc65e05648e552d2f752deba04236553ebffbda9c9edc9d56f4d2c39678782"


def play_two_phase(graph, x, adversary_side, strategy, fault=None, cfg=PhaseConfig()):
    """One two-phase game between an honest party and an adversary that
    plays `strategy` from a record carrying `fault`."""
    honest_side = "challenger" if adversary_side == "submitter" else "submitter"
    honest = ml.run_graph(graph, x, scheme=SCHEME)
    parties = {
        adversary_side: make_party(adversary_side, honest, graph_fault=fault,
                                   strategy=strategy),
        honest_side: make_party(honest_side, honest),
    }
    chain = fresh_chain("submitter", "challenger")
    total = chain.total()
    result = run_two_phase_dispute(graph, x, parties["submitter"], parties["challenger"], cfg,
                                   chain, scheme=SCHEME)
    assert chain.total() == total
    assert chain.transcript[-1]["event"] == "verdict"
    return result


def three_and_four_node_graphs():
    three = build_matmul_only(seed=80, r=1, n=3, p=2)
    four = ml.CompGraph(three.nodes + [ml.GraphNode(3, "relu", (2,))], 3)
    x = rand_tensor(random.Random(81), (1, 3))
    return [(three, x), (four, x)]


@pytest.mark.parametrize("graph, x", three_and_four_node_graphs(), ids=["3-node", "4-node"])
def test_junk_counterclaim_plays_a_game_the_submitter_wins(graph, x):
    """A wrong-midpoint challenger with no fault posts junk past the last
    node, whatever the node count, and loses the game that follows."""
    strategy = ActorStrategy(kind="wrong-midpoint", wrong_round=1)
    result = play_two_phase(graph, x, "challenger", strategy)
    assert result.rounds > 0
    assert result.winner == "submitter", result.reason


def test_random_submitter_loses_both_protocols():
    graph = build_mlp(seed=82, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(83), (1, 3))
    strategy = ActorStrategy(kind="random", seed=5)
    two = play_two_phase(graph, x, "submitter", strategy)

    honest_trace = fpvm.run_trace(lowering.lower_graph(graph).initial_state(x, SCHEME))
    sub_actor = build_trace_actor("submitter", honest_trace, strategy)
    chal_actor = build_trace_actor("challenger", honest_trace, ActorStrategy())
    single = dispute.run_dispute(Claim.posted_by(sub_actor, 1, 1), sub_actor, chal_actor,
                                 chain=fresh_chain("submitter", "challenger"))
    assert (two.winner, single.winner) == ("challenger", "challenger"), (two.reason, single.reason)


def test_public_pins_are_recomputed_from_public_data():
    """Input and const nodes and pins past the last node need no VM game:
    their next commitment follows from the agreed state and public data."""
    graph = build_mlp(seed=84, in_dim=3, hidden=4, out_dim=2)
    x = rand_tensor(random.Random(85), (1, 3))
    run = ml.run_graph(graph, x, scheme=SCHEME)
    for node in graph.nodes:
        want = run.commitments[node.id + 1] if node.op in ("input", "const") else None
        assert public_next_root(graph, x, run.states[node.id], node.id, SCHEME) == want
    for past in (len(graph.nodes), len(graph.nodes) + 3):
        assert public_next_root(graph, x, run.state_at(past), past, SCHEME) == run.root_at(past)


KINDS = ("honest", "fault", "wrong-midpoint", "silent", "random")


@pytest.mark.parametrize("graph, x", [
    three_and_four_node_graphs()[0],
    (build_mlp(seed=86, in_dim=2, hidden=2, out_dim=2, with_argmax=True),
     rand_tensor(random.Random(87), (1, 2))),
], ids=["3-node", "11-node"])
def test_two_phase_grid_ends_in_a_verdict_the_honest_party_wins(graph, x):
    """Every strategy kind on either side, with no fault or a fault in each
    computed node: each game ends in a verdict, the honest party wins
    whenever the adversary faults or posts junk, and otherwise the
    challenger has nothing to win."""
    computed = [n.id for n in graph.nodes if n.op not in ("input", "const")]
    for kind, side, node, (k, m) in itertools.product(
            KINDS, ("submitter", "challenger"), [None] + computed, [(1, 1), (2, 4)]):
        strategy = ActorStrategy(kind=kind, wrong_round=1,
                                 silent_after=1 if kind == "silent" else None, seed=7)
        fault = None if node is None else ml.GraphFault(node, 0, 3)
        result = play_two_phase(graph, x, side, strategy, fault, PhaseConfig(k, k, m))
        adversarial = node is not None or kind in ("wrong-midpoint", "random")
        honest = "challenger" if side == "submitter" else "submitter"
        want = honest if adversarial else "submitter"
        assert result.winner == want, (kind, side, node, k, m, result.reason)
