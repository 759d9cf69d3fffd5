"""Interactive dispute game over a VM execution trace.

A submitter posts a claim (initial root, final root, trace length). A
challenger who disagrees plays rounds of k-section: the challenger posts
state roots at k interior checkpoints, the submitter names the first
segment whose endpoint it disputes, and the disputed span shrinks by a
factor of k+1. When the span reaches the arbitration width m, the simulated
contract re-executes those m steps from one-step witnesses and settles.

The disputed span is padded to m * (k+1)**r using the machine's post-HALT
fixpoint (states past HALT are all equal), so every segment split is exact
and every responsive game takes the same number of rounds regardless of
where the fault sits.

Timeouts, stake slashing and the challenge period run against a small
in-process chain simulation with exact integer conservation.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from . import fpvm, rng
from .hashing import HashScheme

SUBMITTER = "submitter"
CHALLENGER = "challenger"

#: Clock ticks a party has to make its move before it forfeits.
DEADLINE_PER_MOVE = 10
#: Winner's share of a slashed stake in basis points; the rest is burned.
REWARD_BPS = 5000


class ProtocolViolation(Exception):
    """A move or chain operation outside the protocol. No game catches it:
    the game's own actors never make one, so it is a bug."""


# ---------------------------------------------------------------------------
# Chain simulation
# ---------------------------------------------------------------------------


class ChainSim:
    """Toy ledger: balances, locked stakes, burn counter, clock, the open
    disputes and the transcript; the only record of what each party has
    staked and of every move and verdict a game logged on it.

    Every operation conserves total value exactly (integers only):
    sum(balances) + sum(stakes) + burned is constant.
    """

    def __init__(self, challenge_period: int = 100):
        self.clock = 0
        self.balances: dict[str, int] = {}
        self.stakes: dict[str, int] = {}
        self.burned = 0
        self.challenge_period = challenge_period
        self.open_disputes: set[int] = set()
        #: The challenger's root at the padded span end of each game opened, by claim id.
        self.counterclaims: dict[int, bytes] = {}
        self.transcript: list[dict] = []

    def total(self) -> int:
        return sum(self.balances.values()) + sum(self.stakes.values()) + self.burned

    def tick(self, n: int = 1) -> None:
        self.clock += n

    def deposit(self, party: str, amount: int) -> None:
        self.balances[party] = self.balances.get(party, 0) + amount

    def stake(self, party: str, amount: int) -> None:
        if self.balances.get(party, 0) < amount:
            raise ProtocolViolation(f"{party} cannot stake {amount}")
        self.balances[party] -= amount
        self.stakes[party] = self.stakes.get(party, 0) + amount

    def release(self, party: str) -> None:
        amount = self.stakes.pop(party, 0)
        self.balances[party] = self.balances.get(party, 0) + amount

    def slash(self, loser: str, winner: str) -> None:
        """Loser's stake: the reward share goes to the winner, rest burns."""
        amount = self.stakes.pop(loser, 0)
        reward = amount * REWARD_BPS // 10_000
        self.balances[winner] = self.balances.get(winner, 0) + reward
        self.burned += amount - reward

    def penalize(self, party: str, amount: int, beneficiary: str) -> None:
        """Direct penalty: half to the beneficiary, half burned."""
        if self.balances.get(party, 0) < amount:
            raise ProtocolViolation(f"{party} cannot pay penalty {amount}")
        self.balances[party] -= amount
        reward = amount // 2
        self.balances[beneficiary] = self.balances.get(beneficiary, 0) + reward
        self.burned += amount - reward

    def open_dispute(self, claim_id: int) -> None:
        self.open_disputes.add(claim_id)

    def close_dispute(self, claim_id: int) -> None:
        self.open_disputes.discard(claim_id)


@dataclass(frozen=True)
class Claim:
    """What a submitter posts: the start and end roots of its sequence of
    `trace_len` steps, and the game a challenge of it is played under, k
    checkpoints a round down to an m-step window."""

    initial_root: bytes
    final_root: bytes
    trace_len: int
    claim_id: int = 0
    k: int = 1
    m: int = 1

    def __post_init__(self):
        if self.trace_len < 1:
            raise ValueError("trace_len must be >= 1")

    @classmethod
    def posted_by(cls, submitter: BisectionActor, k: int, m: int, claim_id: int = 0) -> Claim:
        """The claim a submitter posts for a game played with k checkpoints
        down to m steps, which it names: the start root of its sequence, and
        its own claimed root at the end of the padded span, by the rule
        every later post follows."""
        n = len(submitter.roots)
        return cls(submitter.roots.root_at(0), submitter.claimed_root(padded_length(n, k, m)),
                   n, claim_id, k, m)


def settle_challenge_period(chain: ChainSim, claim: Claim, elapsed: int) -> str:
    """'Confirmed' once the period passed with no open dispute, else 'Pending'."""
    if claim.claim_id in chain.open_disputes:
        return "Pending"
    if elapsed >= chain.challenge_period:
        return "Confirmed"
    return "Pending"


# ---------------------------------------------------------------------------
# Span geometry
# ---------------------------------------------------------------------------


def checkpoints(i: int, j: int, k: int) -> list[int]:
    """Interior checkpoint indices splitting span (i, i+j) into k+1 segments:
    i + ceil(j*t/(k+1)) for t in 1..k, deduplicated and kept strictly
    interior. For k=1 on the even spans a padded game splits, that is the
    midpoint i + j/2.
    """
    if j < 2:
        raise ValueError("span must cover at least 2 steps to split")
    if k < 1:
        raise ValueError("need at least one checkpoint")
    pts = sorted({i + -(-j * t // (k + 1)) for t in range(1, k + 1)})
    return [p for p in pts if i < p < i + j]


def exact_log_ceil(q: int, base: int) -> int:
    """Smallest r with base**r >= q, computed in exact integers."""
    if q <= 1:
        return 0
    r, p = 0, 1
    while p < q:
        p *= base
        r += 1
    return r


def interaction_count_bound(n_steps: int, m: int, k: int) -> int:
    """Rounds needed to pin an m-step window in an n-step trace with k checkpoints."""
    if not n_steps >= m >= 1 or k < 1:
        raise ValueError("need n >= m >= 1 and k >= 1")
    return exact_log_ceil(-(-n_steps // m), k + 1)


def padded_length(n_steps: int, k: int, m: int = 1) -> int:
    """Dispute span: n rounded up to m * (k+1)**r via the post-HALT fixpoint."""
    if k < 1 or m < 1:
        raise ValueError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    segments = -(-n_steps // m)
    return m * (k + 1) ** exact_log_ceil(segments, k + 1)


@dataclass
class DisputeSession:
    """What the contract holds of a game: the disputed span (i, i+j), the
    agreed root at i and the challenger's root at i+j."""

    i: int
    j: int
    k_checkpoints: int
    agreed_root: bytes
    challenger_end_claim: bytes
    round: int = 0

    @property
    def finished(self) -> bool:
        return self.j <= 1


def bisection_round(
    session: DisputeSession,
    challenger_claims: list[tuple[int, bytes]],
    submitter_response: int,
) -> DisputeSession:
    """Apply one challenge-response exchange and shrink the span.

    `challenger_claims` are (index, root) posts at this round's checkpoints;
    `submitter_response` is the 1-based first segment whose endpoint the
    submitter disputes (len(claims)+1 means "all checkpoints agreed", i.e.
    the standing disagreement at the span end). The chosen segment's ends
    become the new span and its roots the new agreed and challenger roots.
    """
    if session.finished:
        raise ProtocolViolation("game already finished")
    expected = checkpoints(session.i, session.j, session.k_checkpoints)
    if [idx for idx, _ in challenger_claims] != expected:
        raise ProtocolViolation("checkpoint posts at wrong indices")
    n_segments = len(challenger_claims) + 1
    if not 1 <= submitter_response <= n_segments:
        raise ProtocolViolation(f"segment choice {submitter_response} out of range")
    bounds = [session.i] + expected + [session.i + session.j]
    roots = ([session.agreed_root] + [root for _, root in challenger_claims]
             + [session.challenger_end_claim])
    r = submitter_response
    return DisputeSession(bounds[r - 1], bounds[r] - bounds[r - 1], session.k_checkpoints,
                          roots[r - 1], roots[r], session.round + 1)


# ---------------------------------------------------------------------------
# Arbitration
# ---------------------------------------------------------------------------


def emulate_span(
    pre_root: bytes,
    witnesses: list[fpvm.StepWitness],
    preimages: fpvm.PreimageOracle | None,
    scheme: HashScheme,
) -> tuple[bytes | None, str]:
    """Re-execute a chain of steps from witnesses; None on any invalid link.

    The steps are checked as one `fpvm.StepChain`: a step's pre-state that
    the step before computed is not hashed again, and a Merkle proof equal
    to one the chain accepted, made current through the paths it wrote
    since, is not verified again. Verdicts and reasons are those of lone
    steps."""
    current, chain = pre_root, fpvm.StepChain(scheme)
    for n, witness in enumerate(witnesses):
        verdict = fpvm.verify_step(
            current, b"\x00" * 32, witness, preimage_chunk_check=True,
            preimages=preimages, scheme=scheme, chain=chain,
        )
        if not verdict.witness_ok:
            return None, f"step {n + 1}: {verdict.reason}"
        current = verdict.recomputed_post
    return current, ""


def arbitrate_span(
    pre_root: bytes,
    submitter_end_claim: bytes,
    witnesses: list[fpvm.StepWitness],
    preimages: fpvm.PreimageOracle | None = None,
    *,
    scheme: HashScheme,
    span: int,
) -> tuple[str, str]:
    """m-step on-chain arbitration; returns (winner, reason).

    The challenger wins exactly when re-executing the span from its
    witnesses contradicts the submitter's claimed end root. A span of
    `span` steps takes one witness per step, or fewer when the last one is
    of an exited machine: the rest of the span is then the exit fixpoint.
    Any other count, or a witness that fails its own integrity checks,
    loses for the challenger, who supplies the witnesses.
    """
    if len(witnesses) != span and not (
            0 < len(witnesses) < span and witnesses[-1].pre_fields.exited):
        return SUBMITTER, (f"invalid witness from challenger: {len(witnesses)} witnesses "
                           f"for a {span}-step span")
    end_root, reason = emulate_span(pre_root, witnesses, preimages, scheme)
    if end_root is None:
        return SUBMITTER, f"invalid witness from challenger: {reason}"
    if end_root == submitter_end_claim:
        return SUBMITTER, "one-step re-execution confirms the claim"
    return CHALLENGER, "one-step re-execution contradicts the claim"


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActorStrategy:
    """How a party plays: honestly, from a corrupted re-execution, with a
    bad checkpoint round, going silent, or posting random junk. A fault
    composes with any kind: a silent or wrong-midpoint party still needs a
    corrupted trace to have something to claim."""

    kind: str = "honest"  # honest | fault | wrong-midpoint | silent | random
    fault: fpvm.StepFault | None = None
    wrong_round: int | None = None
    silent_after: int | None = None
    seed: int = 0


class BisectionActor:
    """A party's challenge-response play over its own root sequence.

    `roots` is any sequence with `root_at(index)`, which extends past its
    end by the fixpoint, `len()`, the index of its last root, and `scheme`,
    the hash scheme of its roots: a VM `fpvm.Trace` or a graph
    `ml.GraphRun`. Junk posts are digests under that scheme too.
    """

    def __init__(self, party_id: str, roots, strategy: ActorStrategy):
        self.party_id = party_id
        self.roots = roots
        self.strategy = strategy
        self._rng = random.Random(strategy.seed)

    def _silent(self, round_no: int) -> bool:
        after = self.strategy.silent_after
        return after is not None and round_no > after

    def claimed_root(self, index: int) -> bytes:
        junk = self.strategy.kind == "random" or (
            self.strategy.kind == "wrong-midpoint"
            and self.strategy.fault is None
            and index >= len(self.roots)
        )
        if junk:
            return self.roots.scheme.digest(
                b"junk" + self.party_id.encode() + index.to_bytes(8, "little")
                + self.strategy.seed.to_bytes(8, "little")
            )
        return self.roots.root_at(index)

    def post_checkpoints(self, round_no: int, indices: list[int]) -> list[bytes] | None:
        if self._silent(round_no):
            return None
        if self.strategy.kind == "wrong-midpoint" and round_no == self.strategy.wrong_round:
            return [
                self.roots.scheme.digest(b"wrong" + round_no.to_bytes(4, "little") + idx.to_bytes(8, "little"))
                for idx in indices
            ]
        return [self.claimed_root(idx) for idx in indices]

    def choose_segment(
        self, round_no: int, posts: list[tuple[int, bytes]]
    ) -> int | None:
        if self._silent(round_no):
            return None
        if self.strategy.kind == "random":
            return 1 + rng.below(self._rng, len(posts) + 1)
        for t, (idx, claimed) in enumerate(posts, start=1):
            if self.claimed_root(idx) != claimed:
                return t
        return len(posts) + 1


class VmTraceActor(BisectionActor):
    """A dispute party whose `roots` is a (possibly corrupted) VM execution
    trace, an `fpvm.Trace`."""

    def witnesses(
        self, start_index: int, count: int, round_no: int = 0
    ) -> list[fpvm.StepWitness] | None:
        """Witnesses of the `count` steps from `start_index`, under the
        trace's oracle, from `fpvm.Trace.witnesses`."""
        if self._silent(round_no):
            return None
        return self.roots.witnesses(start_index, count)


@dataclass(frozen=True)
class DisputeResult:
    """A game's verdict, single- or two-phase, with its fields in the order
    of the transcript's verdict record. `pinned_node` is None in a
    single-phase game, `pinned_step` when no step was pinned."""

    winner: str
    reason: str
    pinned_node: int | None
    pinned_step: int | None
    rounds: int


@dataclass
class BisectionOutcome:
    """Where the challenge-response rounds landed."""

    session: DisputeSession
    forfeit_winner: str | None
    reason: str


def drive_rounds(
    session: DisputeSession,
    submitter: BisectionActor,
    challenger: BisectionActor,
    stop_span: int,
    chain: ChainSim,
    phase: int,
) -> BisectionOutcome:
    """Run k-section rounds until the span is at most stop_span wide, logging
    each move to the chain's transcript. A missed move forfeits the game;
    `bisection_round`'s ProtocolViolation propagates."""
    while session.j > stop_span:
        round_no = session.round + 1
        indices = checkpoints(session.i, session.j, session.k_checkpoints)
        posts = challenger.post_checkpoints(round_no, indices)
        if posts is None:
            chain.tick(DEADLINE_PER_MOVE + 1)
            return BisectionOutcome(session, SUBMITTER, "challenger timeout")
        chain.tick(1)
        claims = list(zip(indices, posts))
        chain.transcript.append({
            "phase": phase, "round": round_no, "mover": CHALLENGER,
            "i": session.i, "j": session.j,
            "posted": [(idx, root.hex()) for idx, root in claims],
        })
        response = submitter.choose_segment(round_no, claims)
        if response is None:
            chain.tick(DEADLINE_PER_MOVE + 1)
            return BisectionOutcome(session, CHALLENGER, "submitter timeout")
        chain.tick(1)
        chain.transcript.append({
            "phase": phase, "round": round_no, "mover": SUBMITTER, "decision": response,
            "i": session.i, "j": session.j,
        })
        session = bisection_round(session, claims, response)
    return BisectionOutcome(session, None, "")


def open_game(
    claim: Claim,
    submitter: BisectionActor,
    challenger: BisectionActor,
    chain: ChainSim,
    phase: int,
) -> BisectionOutcome:
    """Open a dispute on `claim` between staked parties and play its
    k-section rounds down to a span of m steps, the claim's padding unit.
    The session starts from the claim's initial root and the challenger's
    counterclaim at the padded span end, which the chain keeps
    (`ChainSim.counterclaims`); a challenger whose counterclaim is the
    claimed final root has none and forfeits."""
    for party in (submitter.party_id, challenger.party_id):
        if chain.stakes.get(party, 0) <= 0:
            raise ProtocolViolation(f"{party} is not staked")
    chain.open_dispute(claim.claim_id)
    j = padded_length(claim.trace_len, claim.k, claim.m)
    session = DisputeSession(0, j, claim.k, claim.initial_root, challenger.claimed_root(j))
    chain.counterclaims[claim.claim_id] = session.challenger_end_claim
    if session.challenger_end_claim == claim.final_root:
        return BisectionOutcome(session, SUBMITTER, "challenger has no counterclaim")
    return drive_rounds(session, submitter, challenger, claim.m, chain, phase)


def run_dispute(
    claim: Claim,
    submitter: VmTraceActor,
    challenger: VmTraceActor,
    *,
    chain: ChainSim,
    oracle: fpvm.PreimageOracle | None = None,
    settle: bool = True,
) -> DisputeResult:
    """Drive the full game the claim names: k-section rounds, then m-step
    arbitration, settled by `settle_verdict` (slashing unless settle=False,
    the inner phase of a larger game). Witnesses are checked under the hash
    scheme of the submitter's roots, against `oracle`, the arbiter's
    preimage store. Rounds are logged as phase 2, the VM phase, in a
    single-phase game too.
    """
    outcome = open_game(claim, submitter, challenger, chain, phase=2)
    session = outcome.session

    def verdict(winner: str, reason: str, pinned: int | None = None) -> DisputeResult:
        result = DisputeResult(winner, reason, None, pinned, session.round)
        return settle_verdict(result, chain, claim, submitter, challenger, slash=settle)

    if outcome.forfeit_winner is not None:
        return verdict(outcome.forfeit_winner, outcome.reason)

    # Arbitration over [i, i+j]; pinned step indices are 1-based.
    pinned = session.i + 1
    arb_round = session.round + 1
    witnesses = challenger.witnesses(session.i, session.j, arb_round)
    chain.tick(1)
    if witnesses is None:
        return verdict(SUBMITTER, "challenger missed arbitration", pinned)
    if submitter._silent(arb_round):
        return verdict(CHALLENGER, "submitter missed arbitration", pinned)
    submitter_end = submitter.claimed_root(session.i + session.j)
    if submitter_end == session.challenger_end_claim:
        # Posting the value one just disputed concedes the span.
        return verdict(CHALLENGER, "submitter conceded the disputed span", pinned)
    winner, why = arbitrate_span(
        session.agreed_root, submitter_end, witnesses, preimages=oracle,
        scheme=submitter.roots.scheme, span=session.j,
    )
    return verdict(winner, why, pinned)


def settle_verdict(result: DisputeResult, chain: ChainSim, claim: Claim,
                   submitter: BisectionActor, challenger: BisectionActor,
                   slash: bool = True) -> DisputeResult:
    """Close a game, single- or two-phase, on its verdict `result`: unless
    it is an inner phase (slash=False), slash the loser's stake to the
    winner; either way close the claim's dispute, log the verdict record to
    the chain's transcript, and return `result`."""
    if slash:
        winner, loser = ((submitter, challenger) if result.winner == SUBMITTER
                         else (challenger, submitter))
        chain.slash(loser.party_id, winner.party_id)
        chain.release(winner.party_id)
    chain.close_dispute(claim.claim_id)
    chain.transcript.append({"event": "verdict", **asdict(result)})
    return result


# ---------------------------------------------------------------------------
# Adversary harness
# ---------------------------------------------------------------------------

#: Heap leaf far outside the window synthetic programs touch; flipping a bit
#: here never feeds back into execution, so corrupted traces stay divergent.
SCRATCH_FAULT_LEAF = (fpvm.HEAP_BASE + 0x10_0000) // 32


def _field(shift: int, values) -> list[int]:
    """The bits each value of an instruction field puts into its word."""
    return [value << shift for value in values]


_RD, _RS, _RT = _field(20, range(1, 8)), _field(16, range(8)), _field(12, range(8))
_OFFSET = [4 * word for word in range(256)]  # a word offset from r8, in the imm field
_ALU = _field(24, (fpvm.OPCODES[op] for op in ("ADD", "SUB", "MUL", "MULFX", "AND")))
#: A synthetic instruction by its kind, a draw below 10: its base word, the
#: fields drawn into it in order, and whether a drawn 32-bit word follows it.
_SYNTHETIC = ([(0, (_ALU, _RD, _RS, _RT), False)] * 4
              + [(fpvm.encode("LI"), (_RD,), True)] * 2
              + [(fpvm.encode("SRA"), (_RD, _RS, _field(0, range(32))), False)]
              + [(fpvm.encode("SW", rs=8), (_RT, _OFFSET), False)] * 2
              + [(fpvm.encode("LW", rs=8), (_RD, _OFFSET), False)])


def synthetic_program(r: random.Random, n_steps: int) -> bytes:
    """Straight-line program executing exactly n_steps (including HALT):
    each instruction's kind, then its fields, drawn by `rng.below`."""
    if n_steps < 2:
        raise ValueError("need at least 2 steps")
    words, bits = [fpvm.encode("LI", rd=8), fpvm.HEAP_BASE], r.getrandbits
    for _ in range(n_steps - 2):
        word, fields, immediate = _SYNTHETIC[rng.below(r, 10)]
        for values in fields:
            word |= values[rng.below(r, len(values))]
        words.append(word)
        if immediate:
            words.append(bits(32))
    words.append(fpvm.encode("HALT"))
    return fpvm.assemble(words)


def build_trace_actor(
    party_id: str,
    honest_trace: fpvm.Trace,
    strategy: ActorStrategy,
) -> VmTraceActor:
    """The party holding the trace it believes in: the honest trace, or its
    fork at the strategy's fault, which any kind may carry (`ActorStrategy`)."""
    if strategy.kind == "fault" and strategy.fault is None:
        raise ValueError("fault strategy needs a fault")
    trace = honest_trace if strategy.fault is None else honest_trace.fork(strategy.fault)
    return VmTraceActor(party_id, trace, strategy)
