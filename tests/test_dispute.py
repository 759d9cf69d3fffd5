"""Bisection games: geometry, adversaries, arbitration, stakes."""

import inspect
import random
from dataclasses import replace
from itertools import islice, product

import pytest

from opml import cli, dispute, fpvm, lowering, merkle, ml
from opml.dispute import (
    ActorStrategy,
    ChainSim,
    Claim,
    DisputeSession,
    ProtocolViolation,
    bisection_round,
    build_trace_actor,
    checkpoints,
    interaction_count_bound,
    padded_length,
    run_dispute,
    settle_challenge_period,
    synthetic_program,
)
from opml.hashing import get_scheme

from fixtures import draw_int, rand_tensor

SCHEME = get_scheme("sha256")


def scratch_fault(step):
    """Bit 0 of the scratch leaf flipped after `step`: a fault that never
    feeds back into execution."""
    return fpvm.StepFault(step, dispute.SCRATCH_FAULT_LEAF, 0)


def test_checkpoints_midpoint_rule():
    assert checkpoints(0, 8, 1) == [4]
    assert checkpoints(0, 2, 1) == [1]
    assert checkpoints(0, 9, 2) == [3, 6]
    assert checkpoints(10, 8, 3) == [12, 14, 16]
    for p in checkpoints(0, 5, 3):
        assert 0 < p < 5


def _cases(seed, count, ranges):
    """Every corner of `ranges` (inclusive (lo, hi) pairs), then `count`
    draws from `random.Random(seed)`, each value by `draw_int`."""
    rng = random.Random(seed)
    yield from product(*ranges)
    for _ in range(count):
        yield tuple(draw_int(rng, lo, hi) for lo, hi in ranges)


def test_checkpoints_properties():
    for i, j, k in _cases(50, 200, ((0, 10**6), (2, 4096), (1, 8))):
        pts = checkpoints(i, j, k)
        assert pts == sorted(set(pts))
        assert 1 <= len(pts) <= k
        for p in pts:
            assert i < p < i + j


def test_padding_and_bound_consistency():
    valid = 0
    for n, k, m in _cases(60, 220, ((1, 5000), (1, 4), (1, 6))):
        if m > n:  # an arbitration window wider than the trace is no game
            continue
        valid += 1
        padded = padded_length(n, k, m)
        assert padded >= n
        assert padded % m == 0
        # narrowing the padded span one segment at a time always takes exactly
        # the bound's number of rounds, whichever segment is chosen each round
        rounds = 0
        span = padded
        rng = random.Random(n * 31 + k * 7 + m)
        i = 0
        while span > m:
            pts = checkpoints(i, span, k)
            bounds = [i] + pts + [i + span]
            seg = rng.randrange(len(bounds) - 1)
            i, span = bounds[seg], bounds[seg + 1] - bounds[seg]
            rounds += 1
        assert rounds == interaction_count_bound(n, m, k)
    assert valid >= 200


def test_bisection_round_cases():
    session = DisputeSession(i=0, j=8, k_checkpoints=1, agreed_root=b"\xaa" * 32,
                             challenger_end_claim=b"\xbb" * 32)
    claims = [(4, b"\x01" * 32)]
    agreed = bisection_round(session, claims, 2)  # agrees with midpoint
    assert (agreed.i, agreed.j) == (4, 4)
    disagreed = bisection_round(session, claims, 1)
    assert (disagreed.i, disagreed.j) == (0, 4)

    session = DisputeSession(i=0, j=9, k_checkpoints=2, agreed_root=b"\xaa" * 32,
                             challenger_end_claim=b"\xbb" * 32)
    claims = [(3, b"\x01" * 32), (6, b"\x02" * 32)]
    third = bisection_round(session, claims, 3)
    assert (third.i, third.j) == (6, 3)


def test_bisection_round_validations():
    session = DisputeSession(i=0, j=8, k_checkpoints=1, agreed_root=b"\xaa" * 32,
                             challenger_end_claim=b"\xbb" * 32)
    with pytest.raises(ProtocolViolation):
        bisection_round(session, [(3, b"\x00" * 32)], 1)  # wrong index
    for choice in (0, 3, 5):  # two segments: choices 1 and 2 only
        with pytest.raises(ProtocolViolation, match=f"segment choice {choice} out of range"):
            bisection_round(session, [(4, b"\x00" * 32)], choice)
    done = DisputeSession(i=3, j=1, k_checkpoints=1, agreed_root=b"\xaa" * 32,
                          challenger_end_claim=b"\xbb" * 32)
    with pytest.raises(ProtocolViolation):
        bisection_round(done, [], 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bisection_round_moves_the_roots_with_the_chosen_segment(k):
    """The chosen segment's end roots, out of [agreed] + posts + [end],
    become the session's agreed root and challenger claim."""
    agreed, end = b"\xaa" * 32, b"\xbb" * 32
    session = DisputeSession(i=4, j=2 * (k + 1), k_checkpoints=k, agreed_root=agreed,
                             challenger_end_claim=end)
    indices = checkpoints(session.i, session.j, k)
    assert len(indices) == k
    posts = [bytes([t]) * 32 for t in range(1, k + 1)]
    bounds, roots = [4] + indices + [4 + session.j], [agreed] + posts + [end]
    for r in range(1, k + 2):
        after = bisection_round(session, list(zip(indices, posts)), r)
        assert (after.i, after.j, after.round) == (bounds[r - 1], bounds[r] - bounds[r - 1], 1)
        assert (after.agreed_root, after.challenger_end_claim) == (roots[r - 1], roots[r])


@pytest.mark.parametrize("side, move, message", [
    ("challenger", "post_checkpoints", "checkpoint posts at wrong indices"),
    ("submitter", "choose_segment", "segment choice 0 out of range"),
], ids=["one-post-too-few", "segment-0"])
def test_a_move_outside_the_protocol_raises(side, move, message):
    """No actor breaks the protocol, so one that does is a bug: the game
    raises instead of ending in a verdict."""
    honest_trace = fpvm.run_trace(fpvm.load_program(synthetic_program(random.Random(15), 16),
                                                    scheme=SCHEME))
    actors = {
        "submitter": build_trace_actor("alice", honest_trace,
                                       ActorStrategy(kind="fault", fault=scratch_fault(5))),
        "challenger": build_trace_actor("bob", honest_trace, ActorStrategy()),
    }
    broken = {
        "post_checkpoints": lambda round_no, indices:
            [actors["challenger"].claimed_root(idx) for idx in indices[1:]],
        "choose_segment": lambda round_no, posts: 0,
    }
    setattr(actors[side], move, broken[move])
    chain = ChainSim()
    for party in ("alice", "bob"):
        chain.deposit(party, 1000)
        chain.stake(party, 100)
    with pytest.raises(ProtocolViolation, match=message):
        run_dispute(Claim.posted_by(actors["submitter"], 1, 1), actors["submitter"],
                    actors["challenger"], chain=chain)


def test_drive_rounds_reads_the_roots_from_the_session():
    assert list(inspect.signature(dispute.drive_rounds).parameters) == [
        "session", "submitter", "challenger", "stop_span", "chain", "phase"]


@pytest.mark.parametrize("k, m", [(0, 1), (1, 0)])
def test_a_game_with_k_or_m_below_1_raises_instead_of_hanging(k, m):
    """k = 0 made the padding search multiply by 1 forever."""
    with pytest.raises(ValueError, match=f"need k >= 1 and m >= 1, got k={k}, m={m}"):
        padded_length(10, k, m)
    trace = fpvm.run_trace(fpvm.load_program(synthetic_program(random.Random(3), 10), scheme=SCHEME))
    with pytest.raises(ValueError, match="need k >= 1"):
        Claim.posted_by(build_trace_actor("alice", trace, ActorStrategy()), k, m)


@pytest.mark.parametrize("call, message", [
    (lambda: checkpoints(0, 1, 1), "span must cover at least 2 steps"),
    (lambda: checkpoints(0, 8, 0), "need at least one checkpoint"),
    (lambda: interaction_count_bound(1, 2, 1), "need n >= m >= 1"),
    (lambda: Claim(b"", b"", 0), "trace_len must be >= 1"),
    (lambda: synthetic_program(random.Random(1), 1), "need at least 2 steps"),
    (lambda: build_trace_actor("alice", None, ActorStrategy(kind="fault")),
     "fault strategy needs a fault"),
], ids=["span-of-1", "no-checkpoint", "m-past-n", "empty-claim", "one-step-program",
        "fault-without-target"])
def test_a_value_outside_the_game_geometry_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_synthetic_program_of_n_steps_is_at_most_2n_minus_1_words():
    """An LI takes two words and any other step one, so n steps take n + 1
    (the first step is an LI) to 2n - 1 words: `synthetic.n` is bounded by
    (fpvm.PROGRAM_WORDS + 1) // 2 for its program to fit the region."""
    for seed in range(40):
        for n in (2, 3, 4, 5, 8, 13, 40):
            words = len(synthetic_program(random.Random(seed), n)) // 4
            assert n + 1 <= words <= 2 * n - 1


def test_a_penalty_past_the_balance_raises_and_moves_nothing():
    chain = ChainSim()
    chain.deposit("alice", 5)
    with pytest.raises(ProtocolViolation, match="alice cannot pay penalty 6"):
        chain.penalize("alice", 6, "bob")
    assert (chain.balances, chain.burned) == ({"alice": 5}, 0)


def test_interaction_bound_values():
    assert interaction_count_bound(1024, 1, 1) == 10
    assert interaction_count_bound(1024, 4, 3) == 4
    assert interaction_count_bound(1, 1, 5) == 0
    assert padded_length(9, 1) == 16
    assert padded_length(8, 1) == 8
    assert padded_length(10, 3, 2) == 32  # ceil(10/2)=5 -> 4**2=16 segments? no: (3+1)**?
    # spelled out: segments = ceil(10/2) = 5, 4**2 = 16 >= 5, so 2 * 16 = 32


def make_game(seed, n, sub_strategy, chal_strategy, k=1, m=1):
    rng = random.Random(seed)
    program = synthetic_program(rng, n)
    honest_trace = fpvm.run_trace(fpvm.load_program(program, scheme=SCHEME))
    submitter = build_trace_actor("alice", honest_trace, sub_strategy)
    challenger = build_trace_actor("bob", honest_trace, chal_strategy)
    claim = Claim.posted_by(submitter, k, m, claim_id=seed)
    chain = ChainSim()
    chain.deposit("alice", 1000)
    chain.deposit("bob", 1000)
    chain.stake("alice", 100)
    chain.stake("bob", 100)
    total_before = chain.total()
    result = run_dispute(claim, submitter, challenger, chain=chain)
    assert chain.total() == total_before  # exact conservation
    return result, chain


def test_a_claim_is_played_under_the_game_it_names():
    """A claim posted for 3 checkpoints down to 4 steps is played with 3
    posts in every challenger round and arbitrated over at most 4 steps."""
    fault = scratch_fault(100)
    result, chain = make_game(16, 200, ActorStrategy(kind="fault", fault=fault),
                              ActorStrategy(), k=3, m=4)
    posts = [r["posted"] for r in chain.transcript if r.get("mover") == "challenger"]
    assert len(posts) == result.rounds == interaction_count_bound(200, 4, 3)
    assert all(len(p) == 3 for p in posts)
    last = [r for r in chain.transcript if r.get("mover") == "submitter"][-1]
    bounds = [last["i"], *checkpoints(last["i"], last["j"], 3), last["i"] + last["j"]]
    assert bounds[last["decision"]] - bounds[last["decision"] - 1] <= 4
    assert result.winner == "challenger"
    assert fault.step - 3 <= result.pinned_step <= fault.step


def test_fault_at_step_5_pinned_exactly():
    result, chain = make_game(
        1, 8, ActorStrategy(kind="fault", fault=scratch_fault(5)), ActorStrategy(kind="honest")
    )
    assert result.winner == "challenger"
    assert result.rounds == 3
    assert result.pinned_step == 5
    assert chain.balances["bob"] == 950 + 100  # reward: half the slashed stake
    assert chain.burned == 50


def test_honest_submitter_always_wins():
    for seed, strat in enumerate(
        [
            ActorStrategy(kind="fault", fault=scratch_fault(3)),
            ActorStrategy(kind="wrong-midpoint", wrong_round=1),
            ActorStrategy(kind="wrong-midpoint", wrong_round=2),
            ActorStrategy(kind="silent", silent_after=1, fault=scratch_fault(2)),
            ActorStrategy(kind="random", seed=9),
        ]
    ):
        result, chain = make_game(100 + seed, 16, ActorStrategy(kind="honest"), strat)
        assert result.winner == "submitter", result.reason
        # stake released back untouched, plus the reward share when slashed
        assert chain.balances["alice"] >= 1000


def test_pinpoint_matches_first_divergence_randomized():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randrange(4, 130)
        s = rng.randrange(1, n + 1)
        k = rng.choice([1, 2, 3])
        faulty_submitter = rng.random() < 0.5
        faulty, honest = ActorStrategy(kind="fault", fault=scratch_fault(s)), ActorStrategy(kind="honest")
        sub, chal = (faulty, honest) if faulty_submitter else (honest, faulty)
        result, _ = make_game(rng.getrandbits(30), n, sub, chal, k=k)
        assert result.winner == ("challenger" if faulty_submitter else "submitter")
        assert result.rounds == interaction_count_bound(padded_length(n, k), 1, k)
        if faulty_submitter:
            assert result.pinned_step == s


def test_round_count_exact_for_k3():
    result, _ = make_game(7, 16, ActorStrategy(kind="fault", fault=scratch_fault(11)),
                          ActorStrategy(kind="honest"), k=3)
    assert result.winner == "challenger"
    assert result.rounds == 2  # log_4(16)


def test_m_step_arbitration():
    for m in (2, 4):
        result, _ = make_game(8, 64, ActorStrategy(kind="fault", fault=scratch_fault(17)),
                              ActorStrategy(kind="honest"), k=1, m=m)
        assert result.winner == "challenger"
        assert result.rounds == interaction_count_bound(64, m, 1)


def test_m_step_span_crossing_halt():
    """Padding may land the arbitrated span past HALT; identity witnesses
    for exited pre-states must chain cleanly."""
    result, _ = make_game(88, 5, ActorStrategy(kind="fault", fault=scratch_fault(5)),
                          ActorStrategy(kind="honest"), k=1, m=4)
    # padded length 8, one round, span [4, 8) crosses the halt at step 5
    assert result.winner == "challenger"
    assert result.rounds == 1

    honest, _ = make_game(89, 5, ActorStrategy(kind="honest"),
                          ActorStrategy(kind="fault", fault=scratch_fault(5)), k=1, m=4)
    assert honest.winner == "submitter"


def test_arbitration_witnesses_end_at_halt():
    """Past HALT the machine is its own fixpoint: the witness list stops at
    the first exited pre-state, and only a list that ends there may be
    shorter than the span."""
    trace = fpvm.run_trace(fpvm.load_program(synthetic_program(random.Random(90), 6),
                                             scheme=SCHEME))
    witnesses = build_trace_actor("bob", trace, ActorStrategy()).witnesses(2, 16)
    assert len(witnesses) == len(trace) - 1 and witnesses[-1].pre_fields.exited
    bad_end = SCHEME.digest(b"not the end")

    def arbitrate(ws, end):
        return dispute.arbitrate_span(trace.root_at(2), end, ws, scheme=SCHEME, span=16)[0]

    padded = witnesses + [witnesses[-1]] * (16 - len(witnesses))
    for ws in (witnesses, padded):
        assert arbitrate(ws, trace.root_at(18)) == "submitter"
        assert arbitrate(ws, bad_end) == "challenger"
    # a list that stops before HALT, or runs past the span, loses for its supplier
    assert arbitrate(witnesses[:2], bad_end) == "submitter"
    assert arbitrate(padded + padded[-1:], bad_end) == "submitter"


def test_silent_challenger_forfeits():
    result, chain = make_game(
        9, 32, ActorStrategy(kind="honest"),
        ActorStrategy(kind="silent", silent_after=2, fault=scratch_fault(10)),
    )
    assert result.winner == "submitter"
    assert "timeout" in result.reason
    assert chain.clock >= 11  # missed deadline burned clock ticks


def test_silent_submitter_forfeits():
    result, _ = make_game(
        10, 32, ActorStrategy(kind="silent", silent_after=1, fault=scratch_fault(4)),
        ActorStrategy(kind="honest"),
    )
    assert result.winner == "challenger"
    assert "timeout" in result.reason or "missed" in result.reason


def test_frivolous_challenger_rejected_at_door():
    result, _ = make_game(11, 16, ActorStrategy(kind="honest"),
                          ActorStrategy(kind="silent", silent_after=0))
    assert result.winner == "submitter"
    assert result.reason == "challenger has no counterclaim"


def test_unstaked_party_cannot_play():
    rng = random.Random(12)
    program = synthetic_program(rng, 8)
    honest_trace = fpvm.run_trace(fpvm.load_program(program, scheme=SCHEME))
    submitter = build_trace_actor("alice", honest_trace, ActorStrategy(kind="honest"))
    challenger = build_trace_actor("bob", honest_trace,
                                   ActorStrategy(kind="fault", fault=scratch_fault(2)))
    claim = Claim(submitter.roots.root_at(0), submitter.roots.root_at(len(submitter.roots)),
                  len(submitter.roots))
    chain = ChainSim()
    chain.deposit("alice", 100)
    chain.stake("alice", 100)
    with pytest.raises(ProtocolViolation):
        run_dispute(claim, submitter, challenger, chain=chain)


@pytest.mark.parametrize("unstaked", ["alice", "bob"])
def test_open_game_refuses_an_unstaked_submitter_or_challenger(unstaked):
    """The chain holds the only record of a stake: a party it has none for
    cannot open a game, whichever side it plays."""
    honest_trace = fpvm.run_trace(fpvm.load_program(synthetic_program(random.Random(12), 8),
                                                    scheme=SCHEME))
    submitter = build_trace_actor("alice", honest_trace, ActorStrategy(kind="honest"))
    challenger = build_trace_actor("bob", honest_trace,
                                   ActorStrategy(kind="fault", fault=scratch_fault(2)))
    chain = ChainSim()
    for party in ("alice", "bob"):
        chain.deposit(party, 1000)
        if party != unstaked:
            chain.stake(party, 100)
    with pytest.raises(ProtocolViolation, match=f"^{unstaked} is not staked$"):
        run_dispute(Claim.posted_by(submitter, 1, 1), submitter, challenger, chain=chain)
    assert not chain.open_disputes


def test_staking_above_the_balance_raises_and_moves_nothing():
    chain = ChainSim()
    chain.deposit("alice", 50)
    chain.deposit("bob", 1000)
    chain.stake("bob", 100)
    before = (chain.total(), dict(chain.balances), dict(chain.stakes), chain.burned)
    for party, amount in (("alice", 51), ("bob", 901), ("carol", 1)):
        with pytest.raises(ProtocolViolation, match=f"{party} cannot stake {amount}"):
            chain.stake(party, amount)
        assert (chain.total(), chain.balances, chain.stakes, chain.burned) == before


def test_arbitrate_direct():
    rng = random.Random(13)
    program = synthetic_program(rng, 12)
    trace = fpvm.run_trace(fpvm.load_program(program, scheme=SCHEME))
    k = 6
    w = fpvm.gen_step_witness(trace.state_at(k))
    winner, _ = dispute.arbitrate_span(trace.root_at(k), trace.root_at(k + 1), [w],
                                       scheme=SCHEME, span=1)
    assert winner == "submitter"
    bad = bytearray(trace.root_at(k + 1))
    bad[3] ^= 1
    winner, _ = dispute.arbitrate_span(trace.root_at(k), bytes(bad), [w], scheme=SCHEME, span=1)
    assert winner == "challenger"
    # malformed witness loses for its author (the challenger here)
    broken = fpvm.StepWitness(trace.state_at(k).fields(), [], [], None)
    winner, reason = dispute.arbitrate_span(trace.root_at(k), trace.root_at(k + 1), [broken],
                                            scheme=SCHEME, span=1)
    assert winner == "submitter" and "invalid witness" in reason


def test_settle_challenge_period():
    chain = ChainSim(challenge_period=50)
    claim = Claim(b"\x00" * 32, b"\x01" * 32, 4, claim_id=77)
    assert settle_challenge_period(chain, claim, 10) == "Pending"
    assert settle_challenge_period(chain, claim, 50) == "Confirmed"
    chain.open_dispute(77)
    assert settle_challenge_period(chain, claim, 500) == "Pending"
    chain.close_dispute(77)
    assert settle_challenge_period(chain, claim, 50) == "Confirmed"


def test_an_inner_game_moves_no_stake_but_logs_its_verdict_and_closes_its_claim():
    """With settle=False the enclosing game settles the stakes, but the
    inner game still logs its verdict and closes its own claim."""
    honest_trace = fpvm.run_trace(fpvm.load_program(synthetic_program(random.Random(13), 16),
                                                    scheme=SCHEME))
    submitter = build_trace_actor("alice", honest_trace,
                                  ActorStrategy(kind="fault", fault=scratch_fault(5)))
    challenger = build_trace_actor("bob", honest_trace, ActorStrategy(kind="honest"))
    claim = Claim.posted_by(submitter, 1, 1, claim_id=13)
    chain = ChainSim()
    for party in ("alice", "bob"):
        chain.deposit(party, 1000)
        chain.stake(party, 100)
    balances, stakes = dict(chain.balances), dict(chain.stakes)
    result = run_dispute(claim, submitter, challenger, chain=chain, settle=False)
    assert result.winner == "challenger"
    assert chain.transcript[-1] == {
        "event": "verdict", "winner": "challenger", "reason": result.reason,
        "pinned_node": None, "pinned_step": 5, "rounds": result.rounds,
    }
    assert (chain.balances, chain.stakes, chain.burned) == (balances, stakes, 0)
    assert claim.claim_id not in chain.open_disputes


def test_transcript_structure():
    result, chain = make_game(14, 8, ActorStrategy(kind="fault", fault=scratch_fault(2)),
                              ActorStrategy(kind="honest"))
    moves = [r for r in chain.transcript if "mover" in r]
    assert len(moves) == 2 * result.rounds
    final = chain.transcript[-1]
    assert final["event"] == "verdict"
    assert final["winner"] == "challenger"
    assert final["pinned_step"] == 2


def test_submitter_that_posts_the_disputed_root_concedes():
    """A submitter that names segment 1 every round narrows the game onto a
    span whose end it then claims with the challenger's own disputed root:
    posting the value it disputed concedes the span, before any witness is
    checked."""

    class FirstSegment(dispute.VmTraceActor):
        def choose_segment(self, round_no, posts):
            return 1

    honest = fpvm.run_trace(fpvm.load_program(synthetic_program(random.Random(1), 200), scheme=SCHEME))
    submitter = FirstSegment("alice", honest, ActorStrategy(kind="honest"))
    challenger = build_trace_actor(
        "bob", honest, ActorStrategy(kind="fault", fault=fpvm.StepFault(190, dispute.SCRATCH_FAULT_LEAF, 3)))
    claim = Claim.posted_by(submitter, 1, 1, claim_id=1)
    chain = ChainSim()
    for party in ("alice", "bob"):
        chain.deposit(party, 1000)
        chain.stake(party, 100)
    result = run_dispute(claim, submitter, challenger, chain=chain)
    reason = "submitter conceded the disputed span"
    assert (result.winner, result.rounds, result.pinned_step, result.reason) == ("challenger", 8, 1, reason)
    assert chain.transcript[-1] == {"event": "verdict", "winner": "challenger", "reason": reason,
                                    "pinned_node": None, "pinned_step": 1, "rounds": 8}
    assert chain.balances["bob"] == 900 + 100 + 50 and chain.burned == 50


def _load_store_trace(scheme):
    """LI r1, HEAP_BASE; LW r2, [r1]; SW r2, [r1]; HALT. The LW stores
    nothing, so the LW and SW steps share a pre-state memory root, and both
    fetch from program leaf 0; the SW writes the leaf the LW read."""
    program = fpvm.assemble([fpvm.encode("LI", rd=1), fpvm.HEAP_BASE, fpvm.encode("LW", rd=2, rs=1),
                             fpvm.encode("SW", rt=2, rs=1), fpvm.encode("HALT")])
    return fpvm.run_trace(fpvm.load_program(program, scheme=scheme))


def _flip_sibling(proof):
    siblings = list(proof.siblings)
    siblings[3] = bytes([siblings[3][0] ^ 1]) + siblings[3][1:]
    return replace(proof, siblings=siblings)


@pytest.mark.parametrize("scheme_name", ["sha256", "blake2b", "sha3"])
def test_span_memo_keeps_every_rejection(scheme_name):
    """Within one arbitration, a proof of a leaf the chain has accepted
    under the same root, with one sibling flipped, is rejected with the
    reason a lone step gives, and given twice is rejected both times: the
    chain compares the siblings too, and keeps accepted proofs only."""
    scheme = get_scheme(scheme_name)
    trace = _load_store_trace(scheme)
    load, store = fpvm.gen_step_witness(trace.state_at(1)), fpvm.gen_step_witness(trace.state_at(2))
    assert load.pre_fields.memory_root == store.pre_fields.memory_root
    (fetch, _, fetch_proof), (heap, heap_leaf, heap_proof) = load.mem_reads
    (_, _, store_fetch_proof), = store.mem_reads
    (addr, old, new, write_proof), = store.mem_writes
    assert (addr, old, write_proof) == (heap, heap_leaf, heap_proof) and store_fetch_proof == fetch_proof

    bad_read = replace(store, mem_reads=[(fetch, store.mem_reads[0][1], _flip_sibling(fetch_proof))])
    bad_write = replace(store, mem_writes=[(addr, old, new, _flip_sibling(write_proof))])
    assert dispute.emulate_span(trace.root_at(1), [load, store], None, scheme) == (trace.root_at(3), "")
    for bad, reason in ((bad_read, "read-proof-invalid"), (bad_write, "write-proof-invalid")):
        assert dispute.emulate_span(trace.root_at(1), [load, bad], None, scheme) == (None, f"step 2: {reason}")
        chain = fpvm.StepChain(scheme)
        assert fpvm.verify_step(trace.root_at(1), trace.root_at(2), load, scheme=scheme, chain=chain).accepted
        kept = {base: chain.proofs.current(base // 32) for base in (fetch, heap)}
        assert kept == {fetch: (load.mem_reads[0][1], fetch_proof), heap: (heap_leaf, heap_proof)}
        for _ in range(2):  # the same bad proof, given twice, is rejected both times
            verdict = fpvm.verify_step(trace.root_at(2), trace.root_at(3), bad, scheme=scheme, chain=chain)
            assert (verdict.accepted, verdict.witness_ok, verdict.reason) == (False, False, reason)
            assert {base: chain.proofs.current(base // 32) for base in (fetch, heap)} == kept
        verdict = fpvm.verify_step(trace.root_at(2), trace.root_at(3), store, scheme=scheme, chain=chain)
        assert verdict == fpvm.Verdict(True, "", trace.root_at(3), True)


def test_step_chain_is_kept_under_one_scheme():
    """A chain checks steps under the scheme it was made for, whose roots
    it holds; a step under another scheme raises instead of reusing them."""
    trace = _load_store_trace(SCHEME)
    load = fpvm.gen_step_witness(trace.state_at(1))
    chain = fpvm.StepChain(get_scheme("sha3"))
    with pytest.raises(ValueError, match="sha3"):
        fpvm.verify_step(trace.root_at(1), trace.root_at(2), load, scheme=SCHEME, chain=chain)


def _memo_traces(scheme):
    """A 5000-step synthetic trace, its fork at a store step and a matmul
    node trace, each with the start of a window to witness from it."""
    honest = fpvm.run_trace(fpvm.load_program(synthetic_program(random.Random(2), 5000), scheme=scheme))
    store_step = next(n for n, state in enumerate(honest.walk(600), start=601)
                      if fpvm.gen_step_witness(state).mem_writes)
    fork = honest.fork(fpvm.StepFault(store_step, dispute.SCRATCH_FAULT_LEAF, 0))
    rng = random.Random(3)
    lowered = lowering.lower_node(ml.GraphNode(2, "matmul", (0, 1)),
                                  [rand_tensor(rng, (1, 6)), rand_tensor(rng, (6, 3))])
    oracle = fpvm.PreimageOracle(scheme)
    node = fpvm.run_trace(lowering.node_initial_state(lowered, oracle), oracle)
    return [(honest, 7), (fork, store_step - 100), (node, 0)]


@pytest.mark.parametrize("scheme_name", ["sha256", "blake2b", "sha3"])
def test_memoised_witnesses_equal_lone_witnesses(scheme_name):
    """`witnesses` runs its window over one witness view; every witness
    equals, field by field and in bytes, the one a lone `gen_step_witness`
    makes from the state `walk` yields. The windows cross snapshots,
    stores, a fork's faulted step and a node's PREIMAGE steps."""
    for trace, start in _memo_traces(get_scheme(scheme_name)):
        actor = dispute.VmTraceActor("bob", trace, ActorStrategy())
        memoised = actor.witnesses(start, 4096)
        lone = [fpvm.gen_step_witness(state, trace.oracle)
                for state in islice(trace.walk(start), len(memoised))]
        assert memoised == lone
        assert [w.to_bytes() for w in memoised] == [w.to_bytes() for w in lone]
        assert any(w.mem_writes for w in memoised)
        if trace.oracle is not None:
            assert any(w.preimage_chunk for w in memoised) and memoised[-1].pre_fields.exited
        else:
            assert len(memoised) == 4096


def _window_trace(scheme):
    """A trace under an oracle whose stores write one heap leaf twice, then
    its sibling, read each beside the other's new leaf, write the first
    back to all zeros and read a leaf under the written pair; a PREIMAGE
    step writes a chunk that a load reads back. Its fork flips a bit of the
    sibling leaf after the sibling's store, and a later load reads it."""
    e, heap = fpvm.encode, fpvm.HEAP_BASE
    program = fpvm.assemble([
        e("LI", rd=8), heap, e("LI", rd=1), 0x1234_5678,
        e("SW", rt=1, rs=8, imm=0), e("SW", rt=1, rs=8, imm=4), e("SW", rt=1, rs=8, imm=32),
        e("LW", rd=2, rs=8, imm=0), e("SW", rt=0, rs=8, imm=0), e("SW", rt=0, rs=8, imm=4),
        e("LW", rd=3, rs=8, imm=32), e("LW", rd=4, rs=8, imm=64),
        *[e("ADD", rd=10, rs=10, rt=3)] * 4,
        e("LI", rd=9), fpvm.ORACLE_VALUE_BASE, e("LI", rd=5), 1, e("PREIMAGE", rd=6, rs=5),
        e("LW", rd=7, rs=9, imm=0), e("SW", rt=7, rs=8, imm=32), e("LW", rd=11, rs=8, imm=32),
        e("HALT"),
    ])
    oracle = fpvm.PreimageOracle(scheme)
    state = fpvm.load_program(program, scheme=scheme)
    state.memory = fpvm.write_bytes(state.memory, fpvm.ORACLE_KEY_BASE,
                                    oracle.put(bytes(range(40)) * 2))
    trace = fpvm.run_trace(state, oracle)
    return trace, trace.fork(fpvm.StepFault(5, heap // 32 + 1, 3))


def _check_window(trace, start, count, scheme):
    """Each witness of the window opens the state root the trace holds,
    equals a lone witness, and each run of it between seams chains under
    `emulate_span` to the root of a step from the state before its end."""
    ws = trace.witnesses(start, count)
    assert ws == [fpvm.gen_step_witness(state, trace.oracle)
                  for state in islice(trace.walk(start), len(ws))]
    for t, witness in enumerate(ws):
        assert witness.pre_fields.state_root(scheme) == trace.root_at(start + t)
    cuts = [0, *(seam - start for seam in trace.seams if start < seam < start + len(ws)), len(ws)]
    for a, b in zip(cuts, cuts[1:]):
        end = fpvm.state_root(fpvm.step(trace.state_at(start + b - 1), trace.oracle))
        assert dispute.emulate_span(trace.root_at(start + a), ws[a:b], trace.oracle, scheme) == (end, "")
    return ws


@pytest.mark.parametrize("scheme_name", ["sha256", "blake2b", "sha3"])
def test_window_witnesses_hold_at_every_edge(scheme_name):
    """Windows over stores to one leaf and to its sibling, a leaf written
    back to zeros, a PREIMAGE write, and a fork's faulted state: one that
    starts on it, one that ends just before it, one whose last witness is
    of it, and one across it; a fork of that fork; and windows of a few
    widths from every start."""
    scheme = get_scheme(scheme_name)
    trace, fork = _window_trace(scheme)
    (seam,) = fork.seams
    assert seam == 5 and len(trace) == len(fork) == 21
    whole = _check_window(trace, 0, 64, scheme)
    assert len(whole) == 22 and whole[-1].pre_fields.exited
    written = [w.mem_writes[0] for w in whole if w.mem_writes]
    assert [addr - fpvm.HEAP_BASE for addr, *_ in written if addr >= fpvm.HEAP_BASE] == [0, 0, 32, 0, 0, 32]
    assert any(new == bytes(32) for _, _, new, _ in written)
    assert any(w.preimage_chunk for w in whole)
    assert fork.witnesses(0, 64)[seam].pre_fields.state_root(scheme) != whole[seam].pre_fields.state_root(scheme)
    assert fork.witnesses(0, 64)[9].pre_fields.regs != whole[9].pre_fields.regs  # r3 read the flip
    for start, count in ((seam, 64), (seam - 3, 3), (seam - 3, 4), (seam - 3, 12), (0, seam + 1)):
        _check_window(fork, start, count, scheme)
    twice = fork.fork(fpvm.StepFault(9, fpvm.HEAP_BASE // 32 + 2, 1))  # a load reads it next
    assert twice.seams == (seam, 9)
    assert twice.witnesses(0, 64)[10].pre_fields.regs != fork.witnesses(0, 64)[10].pre_fields.regs
    for chosen in (trace, fork, twice):
        for start in range(len(chosen) + 2):
            for count in (1, 2, 5):
                _check_window(chosen, start, count, scheme)


def _lone_checks(trace, start, ws, scheme):
    """Each witness of `ws`, the window of `trace` from `start`, verifies
    alone with a fresh `verify_step`, from the root of the state it was
    made from to the root of the step from it, both taken from the trace's
    trees: before a seam, that step is not the kept state after it."""
    walked = trace.walk(start)
    state = next(walked)
    for witness in ws:
        after = next(walked, state)  # an exited state is its own successor
        post = fpvm.state_root(fpvm.step(state, trace.oracle) if after.step_count in trace.seams
                               else after)
        verdict = fpvm.verify_step(fpvm.state_root(state), post, witness, preimages=trace.oracle,
                                   scheme=scheme)
        assert verdict == fpvm.Verdict(True, "", post, True)
        state = after


@pytest.mark.parametrize("scheme_name", ["sha256", "blake2b", "sha3"])
def test_window_witnesses_verify_alone(scheme_name):
    """The proofs a window's witness view makes current through the paths
    it wrote (`merkle.KeptProofs`, which the verifier's chain shares) each
    hold on their own: every witness of the windows `_memo_traces` and
    `_window_trace` give verifies alone."""
    scheme = get_scheme(scheme_name)
    windows = [(trace, start, 4096) for trace, start in _memo_traces(scheme)]
    trace, fork = _window_trace(scheme)
    windows += [(chosen, 0, 64) for chosen in (trace, fork)] + [(fork, fork.seams[0] - 3, 12)]
    for trace, start, count in windows:
        ws = trace.witnesses(start, count)
        assert any(w.mem_writes for w in ws)
        _lone_checks(trace, start, ws, scheme)


def _flip(proof, level):
    siblings = list(proof.siblings)
    siblings[level] = bytes([siblings[level][0] ^ 1]) + siblings[level][1:]
    return replace(proof, siblings=siblings)


@pytest.mark.parametrize("scheme_name", ["sha256", "blake2b", "sha3"])
def test_chain_verdicts_equal_lone_verdicts(scheme_name):
    """Over the window of `_window_trace`, each step checked as the next
    link of one `fpvm.StepChain` gets the verdict it gets alone, step by
    step, when one link is hostile: a proof valid only under the root
    before a store, a sibling flipped at the level a store patched, a
    record carrying a leaf's bytes from before a store, pre fields one
    register off the chain's, registers given as a list, a pre root that
    is not the chain's, and pre fields opening a memory root that is not
    the chain's."""
    scheme = get_scheme(scheme_name)
    trace, _ = _window_trace(scheme)
    ws = trace.witnesses(0, 64)
    roots = [trace.root_at(t) for t in range(len(ws) + 1)]
    links = [(roots[t], roots[t + 1], w) for t, w in enumerate(ws)]
    heap = fpvm.HEAP_BASE
    # Steps 2 and 3 store to heap leaf 0, step 4 to its sibling leaf 1,
    # step 5 loads leaf 0 and step 6 stores to it again.
    assert [w.mem_writes[0][0] if w.mem_writes else None for w in ws[2:7]] == [heap, heap, heap + 32, None, heap]
    _, (_, leaf, proof) = ws[5].mem_reads
    (_, old, new, write_proof), = ws[6].mem_writes
    stale = trace.state_at(4).memory.prove(heap // 32)
    fresh = trace.state_at(2).memory.get_leaf(heap // 32)
    assert stale != proof and fresh != leaf == old

    def with_fields(witness, **changes):
        fields = replace(witness.pre_fields, **changes)
        return fields.state_root(scheme), replace(witness, pre_fields=fields)

    def reads(t, record):
        return replace(ws[t], mem_reads=[ws[t].mem_reads[0], record])

    regs = list(ws[8].pre_fields.regs)
    regs[1] ^= 1
    _, off_by_one = with_fields(ws[8], regs=tuple(regs))
    moved_root, moved = with_fields(ws[5], memory_root=ws[4].pre_fields.memory_root)
    variants = [  # (step, pre root, witness, its reason alone)
        (5, roots[5], reads(5, (heap, leaf, stale)), "read-proof-invalid"),
        (6, roots[6], replace(ws[6], mem_writes=[(heap, old, new, stale)]), "write-proof-invalid"),
        (5, roots[5], reads(5, (heap, leaf, _flip(proof, 0))), "read-proof-invalid"),
        (6, roots[6], replace(ws[6], mem_writes=[(heap, old, new, _flip(write_proof, 0))]),
         "write-proof-invalid"),
        (5, roots[5], reads(5, (heap, fresh, proof)), "read-proof-invalid"),
        (6, roots[6], replace(ws[6], mem_writes=[(heap, fresh, new, write_proof)]),
         "write-proof-invalid"),
        (8, roots[8], off_by_one, "pre-fields-mismatch"),
        (8, roots[8], with_fields(ws[8], regs=list(ws[8].pre_fields.regs))[1], ""),
        (9, roots[8], ws[9], "pre-fields-mismatch"),
        (5, moved_root, moved, "read-proof-invalid"),
    ]
    for t, pre_root, witness, reason in variants:
        hostile = links[:t] + [(pre_root, roots[t + 1], witness)] + links[t + 1:]
        chain = fpvm.StepChain(scheme)
        for n, (pre, post, w) in enumerate(hostile):
            lone = fpvm.verify_step(pre, post, w, preimages=trace.oracle, scheme=scheme)
            chained = fpvm.verify_step(pre, post, w, preimages=trace.oracle, scheme=scheme, chain=chain)
            assert chained == lone, (t, reason, n)
            assert lone.accepted == (n != t or not reason) and (n != t or lone.reason == reason)


def test_arbitration_does_the_work_of_its_distinct_proofs(monkeypatch):
    """The m = 4096 synthetic game: its arbitration verifies in full only
    the proofs its chain has not kept, and hashes one path per write step,
    fewer than a root per distinct (root, leaf, proof) record plus one per
    write step; its witnesses make one `MemTree.prove` per leaf opened from
    each start tree of the window: its first state's, and each seam's it
    crosses. That is far fewer than the distinct (memory root, leaf) pairs
    the witnesses hold."""
    monkeypatch.delenv("OPML_HASH", raising=False)
    calls = {"verify": 0, "recompute_root": 0, "write": 0, "prove": 0}
    spans, proves = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def spied(fn, names, out):
        def wrapper(*args):
            before = [calls[name] for name in names]
            result = fn(*args)
            out.append((args, [calls[name] - n for name, n in zip(names, before)]))
            return result
        return wrapper

    monkeypatch.setattr(merkle, "verify", counted("verify", merkle.verify))
    monkeypatch.setattr(merkle, "recompute_root", counted("recompute_root", merkle.recompute_root))
    monkeypatch.setattr(merkle.KeptProofs, "write", counted("write", merkle.KeptProofs.write))
    monkeypatch.setattr(merkle.MemTree, "prove", counted("prove", merkle.MemTree.prove))
    monkeypatch.setattr(dispute, "emulate_span",
                        spied(dispute.emulate_span, ("verify", "recompute_root", "write"), spans))
    monkeypatch.setattr(dispute.VmTraceActor, "witnesses",
                        spied(dispute.VmTraceActor.witnesses, ("prove",), proves))
    argv = ["dispute", "--synthetic-n", "5000", "--strategy", "fault", "--k", "3", "--m", "4096",
            "--seed", "2"]
    assert cli.main(argv) == 0

    ((_, ws, _, scheme), (verifies, recomputes, paths)), = spans
    ((actor, start, *_), (witness_proves,)), = proves
    first = actor.roots.states[0].step_count + start
    records = [(w.pre_fields.memory_root, addr, leaf, proof)
               for w in ws for addr, leaf, proof in w.mem_reads]
    records += [(w.pre_fields.memory_root, addr, old, proof)
                for w in ws for addr, old, _new, proof in w.mem_writes]
    keys = {(root, scheme.leaf_hash(leaf), proof.leaf_index, proof.subtree_level, tuple(proof.siblings))
            for root, _, leaf, proof in records}
    writes = sum(1 for w in ws if w.mem_writes)
    assert len(ws) == 4096 and writes > 0
    assert (verifies, recomputes, paths, writes, len(keys)) == (648, 648, 835, 835, 2313)
    assert verifies + paths < len(keys) + writes
    views = [sum(first < seam <= first + t for seam in actor.roots.seams) for t in range(len(ws))]
    opened = {(views[t], addr) for t, w in enumerate(ws)
              for addr, *_ in (*w.mem_reads, *w.mem_writes)}
    assert witness_proves == len(opened) < len({(root, addr) for root, addr, _, _ in records})
    assert len(keys) < len(records)
