"""Two-phase dispute: coarse node-level bisection, then a VM sub-dispute.

Phase 1 bisects the sequence of graph-state commitments (one per node) to
pin a single disputed node. A pin whose next commitment public data settles
(an input or const node, or a pin past the last node) is ruled at once.
Otherwise the entrance check (`entrance_check`) gates the descent into
phase 2, the ordinary trace dispute over the lowered node program, ending
in m-step arbitration. The exit check then proves the node output opened
out of the winner's phase-1 state to be the output region of the final VM
state whose root the winner posted in phase 2.

A bundle carries the claim it backs and the openings that tie it to public
data; each check derives every other root itself, never from the bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dispute, fpvm, lowering, merkle, ml
from .dispute import CHALLENGER, SUBMITTER, ChainSim, Claim, DisputeResult
from .hashing import HashScheme


@dataclass(frozen=True)
class PhaseConfig:
    k_phase1: int = 1
    k_phase2: int = 1
    m: int = 1  # steps the simulated contract re-executes at the base

    def __post_init__(self):
        if min(self.k_phase1, self.k_phase2, self.m) < 1:
            raise ValueError("k_phase1, k_phase2 and m must each be >= 1")


@dataclass(frozen=True)
class EntranceBundle:
    s_prev_root: bytes  # agreed phase-1 state before the disputed node
    m0_root: bytes  # claimed initial VM memory root for phase 2
    node_id: int
    opening: ml.GraphState  # proves the operand keys against s_prev_root


@dataclass(frozen=True)
class ExitBundle:
    s_post_root: bytes  # winner's phase-1 state after the disputed node
    final_state_root: bytes  # winner's phase-2 final VM state root
    vm_fields: fpvm.VmFields  # opens final_state_root to the memory root
    output_proof: merkle.MerkleProof  # places the node output under the memory root
    node_id: int
    opening: ml.GraphState  # proves the node output against s_post_root


def node_program_root(
    op: str, operand_shapes: tuple[tuple[int, ...], ...], scheme: HashScheme
) -> bytes:
    """Public registry of lowered-program roots, keyed by op and shapes: the
    `fpvm.program_root` of `lowering.node_program`, which anyone can rebuild
    from the public model."""
    program, _ = lowering.node_program(op, operand_shapes)
    return fpvm.program_root(program, scheme)


def build_entrance_state(
    run: ml.GraphRun, node_id: int, scheme: HashScheme
) -> tuple[fpvm.VmState, fpvm.PreimageOracle, EntranceBundle, lowering.LoweredNode]:
    """The phase-2 initial machine (`lowering.node_initial_state`), the
    oracle holding its operands, and its entrance evidence."""
    node = run.graph.nodes[node_id]
    operands = [run.outputs[i] for i in node.input_ids]
    lowered = lowering.lower_node(node, operands)
    oracle = fpvm.PreimageOracle(scheme)
    m0 = lowering.node_initial_state(lowered, oracle)
    bundle = EntranceBundle(
        s_prev_root=run.commitments[node_id],
        m0_root=m0.memory.root(),
        node_id=node_id,
        opening=run.states[node_id],
    )
    return m0, oracle, bundle, lowered


def entrance_check(
    bundle: EntranceBundle, graph: ml.CompGraph, scheme: HashScheme
) -> tuple[bool, str]:
    """Validate the descent from the agreed phase-1 state into the VM.

    Accepts iff the opening matches the agreed state and every operand entry
    is filled, and the registered program of the node's op and operand shapes
    plus those operand keys (all other regions zero) give exactly the claimed
    initial memory root.
    """
    if not 0 <= bundle.node_id < len(graph.nodes):
        return False, "node id out of range"
    node = graph.nodes[bundle.node_id]
    if node.op not in ml.COMPUTED_OPS:
        return False, "node has no phase-2 computation"
    if len(bundle.opening.entries) != len(graph.nodes):
        return False, "opening has wrong arity"
    if bundle.opening.commitment(scheme) != bundle.s_prev_root:
        return False, "opening does not match the agreed state"
    keys = []
    for dep in node.input_ids:
        key = bundle.opening.entries[dep][0]
        if key == b"\x00" * 32:
            return False, "operand entry empty in the agreed state"
        keys.append(key)
    shapes = graph.infer_shapes()
    program_root = node_program_root(node.op, tuple(shapes[i] for i in node.input_ids), scheme)
    keys_root = merkle.region_root(b"".join(keys), fpvm.INPUT_LEVEL, scheme)
    rebuilt = merkle.root_from_regions(
        [
            (fpvm.PROGRAM_BASE // 32, fpvm.PROGRAM_LEVEL, program_root),
            (fpvm.INPUT_BASE // 32, fpvm.INPUT_LEVEL, keys_root),
        ],
        scheme,
    )
    if rebuilt != bundle.m0_root:
        return False, "initial memory root not reconstructible"
    return True, ""


def public_next_root(
    graph: ml.CompGraph,
    input_tensor: ml.FixedTensor,
    state: ml.GraphState,
    node_id: int,
    scheme: HashScheme,
) -> bytes | None:
    """The commitment after node `node_id` from the agreed `state`, when
    public data settles it: an input node takes the game's input, a const
    node its params, and past the last node the state is its own fixpoint.
    None for a computed node, which needs a VM game."""
    if node_id >= len(graph.nodes):
        return state.commitment(scheme)
    node = graph.nodes[node_id]
    if node.op == "input":
        return state.advance(node_id, input_tensor, scheme).commitment(scheme)
    if node.op == "const":
        return state.with_entry(node_id, ml.const_entry(node.params, scheme)).commitment(scheme)
    return None


def build_exit_bundle(run: ml.GraphRun, node_id: int, final_state: fpvm.VmState) -> ExitBundle:
    """Evidence tying the phase-2 final machine to the phase-1 node output."""
    fields = final_state.fields()
    return ExitBundle(
        s_post_root=run.commitments[node_id + 1],
        final_state_root=fields.state_root(final_state.scheme),
        vm_fields=fields,
        output_proof=final_state.memory.prove(fpvm.OUTPUT_BASE // 32, fpvm.OUTPUT_LEVEL),
        node_id=node_id,
        opening=run.states[node_id + 1],
    )


def exit_check(bundle: ExitBundle, graph: ml.CompGraph, scheme: HashScheme,
               posted_root: bytes) -> tuple[bool, str]:
    """Require the bundle's final state root to be `posted_root`, the
    phase-2 end root its author posted on chain, and the node output in the
    opened phase-1 state to be the output region under that state's final
    memory root."""
    if not 0 <= bundle.node_id < len(graph.nodes):
        return False, "node id out of range"
    if bundle.final_state_root != posted_root:
        return False, "final state root is not the posted end root"
    if bundle.vm_fields.state_root(scheme) != bundle.final_state_root:
        return False, "vm fields do not open the final state root"
    proof = bundle.output_proof
    if proof.leaf_index != fpvm.OUTPUT_BASE // 32 or proof.subtree_level != fpvm.OUTPUT_LEVEL:
        return False, "output proof aimed at the wrong field"
    if len(bundle.opening.entries) != len(graph.nodes):
        return False, "opening has wrong arity"
    if bundle.opening.commitment(scheme) != bundle.s_post_root:
        return False, "opening does not match the claimed state"
    node_output = bundle.opening.entries[bundle.node_id][1]
    if not merkle.verify(bundle.vm_fields.memory_root, node_output, proof, scheme):
        return False, "vm output differs from the claimed node output"
    return True, ""


# ---------------------------------------------------------------------------
# The two-phase game
# ---------------------------------------------------------------------------


def make_party(
    party_id: str,
    honest_run: ml.GraphRun,
    graph_fault: ml.GraphFault | None = None,
    strategy: dispute.ActorStrategy = dispute.ActorStrategy(),
) -> dispute.BisectionActor:
    """A participant: a bisection actor over the honest run, or over its
    fork at `graph_fault`, which `roots.fault` keeps. It commits under the
    run's scheme, and its strategy plays both phases."""
    run = honest_run if graph_fault is None else honest_run.fork(graph_fault)
    return dispute.BisectionActor(party_id, run, strategy)


def _phase2_trace(
    party: dispute.BisectionActor,
    node_id: int,
    honest_trace: fpvm.Trace,
    lowered: lowering.LoweredNode,
) -> fpvm.Trace:
    """The VM trace this party defends for the pinned node.

    An honest party plays the honest node trace. A party whose graph run
    (`party.roots`) faults this node forks it at the one store that writes
    the faulted element, so its VM trace ends in exactly the output it
    committed to in phase 1.
    """
    fault = party.roots.fault
    if fault is None or fault.node_id != node_id:
        return honest_trace
    return honest_trace.fork(
        lowering.store_fault(honest_trace, lowered.stores, fault.element, fault.bit))


def run_two_phase_dispute(
    graph: ml.CompGraph,
    input_tensor: ml.FixedTensor,
    submitter: dispute.BisectionActor,
    challenger: dispute.BisectionActor,
    cfg: PhaseConfig,
    chain: ChainSim,
    *,
    scheme: HashScheme,
) -> DisputeResult:
    """Full protocol: node-level k-section, then either a ruling from public
    data or entrance check, VM dispute, m-step arbitration and exit check;
    then settlement. Every move, check and verdict is logged to the chain's
    transcript; the verdict's rounds are those of both phases."""
    claim = Claim.posted_by(submitter, cfg.k_phase1, 1)
    outcome = dispute.open_game(claim, submitter, challenger, chain, phase=1)
    phase1_rounds = outcome.session.round

    def verdict(winner: str, reason: str, pinned_node: int | None = None,
                pinned_step: int | None = None, phase2_rounds: int = 0) -> DisputeResult:
        result = DisputeResult(winner, reason, pinned_node, pinned_step,
                               phase1_rounds + phase2_rounds)
        return dispute.settle_verdict(result, chain, claim, submitter, challenger)

    if outcome.forfeit_winner is not None:
        return verdict(outcome.forfeit_winner, outcome.reason)

    # The submitter opens its state before the pinned node: the agreed one.
    pinned_node = outcome.session.i
    if submitter.roots.root_at(pinned_node) != outcome.session.agreed_root:
        return verdict(CHALLENGER, "entrance built from a non-agreed state", pinned_node)
    public = public_next_root(graph, input_tensor, submitter.roots.state_at(pinned_node),
                              pinned_node, scheme)
    if public is not None:
        winner = SUBMITTER if public == submitter.claimed_root(pinned_node + 1) else CHALLENGER
        return verdict(winner, "next state recomputed from public data", pinned_node)

    # Entrance: the submitter supplies the descent evidence.
    m0, oracle, bundle, lowered = build_entrance_state(submitter.roots, pinned_node, scheme)
    ok, why = entrance_check(bundle, graph, scheme)
    chain.transcript.append({"phase": "transition", "check": "entrance", "accepted": ok,
                             "reason": why})
    if not ok:
        return verdict(CHALLENGER, f"entrance check failed: {why}", pinned_node)

    honest_trace = fpvm.run_trace(m0, oracle)
    sub_trace = _phase2_trace(submitter, pinned_node, honest_trace, lowered)
    chal_trace = _phase2_trace(challenger, pinned_node, honest_trace, lowered)

    # The node fault is in the forked trace, not the strategy: a wrong-midpoint
    # party whose strategy has no fault posts junk past its trace's end.
    sub_vm = dispute.VmTraceActor(submitter.party_id, sub_trace, submitter.strategy)
    chal_vm = dispute.VmTraceActor(challenger.party_id, chal_trace, challenger.strategy)
    inner_claim = Claim.posted_by(sub_vm, cfg.k_phase2, cfg.m, claim_id=claim.claim_id + 1)
    inner = dispute.run_dispute(inner_claim, sub_vm, chal_vm, chain=chain, oracle=oracle,
                                settle=False)
    winner, reason = inner.winner, inner.reason

    # Exit: the phase-2 winner reconciles its VM result with its phase-1 claim.
    winner_party = submitter if winner == SUBMITTER else challenger
    winner_trace = sub_trace if winner == SUBMITTER else chal_trace
    posted_root = (inner_claim.final_root if winner == SUBMITTER
                   else chain.counterclaims[inner_claim.claim_id])
    exit_bundle = build_exit_bundle(winner_party.roots, pinned_node, winner_trace.states[-1])
    ok, why = exit_check(exit_bundle, graph, scheme, posted_root)
    chain.transcript.append({"phase": "transition", "check": "exit", "accepted": ok,
                             "reason": why})
    if not ok:
        winner = CHALLENGER if winner == SUBMITTER else SUBMITTER
        reason = f"exit check failed for the phase-2 winner: {why}"

    return verdict(winner, reason, pinned_node, inner.pinned_step, inner.rounds)
