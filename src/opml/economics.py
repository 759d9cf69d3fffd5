"""Security and incentive analysis: trust-model probabilities, the
verification game's mixed equilibrium, and the attention-challenge
mechanism that makes checking a dominant strategy.

Closed forms are computed exactly where it matters (rational binomials up
to 64 validators); the Monte-Carlo side runs against the same integer
ledger the dispute games use, so value conservation stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, isfinite, lgamma, log, log1p, sqrt
from typing import NamedTuple

from .dispute import ChainSim
from .hashing import HashScheme
from . import rng as rng_mod

_EXACT_LIMIT = 64


def _require_finite(**values: float) -> None:
    """NaN and infinity pass every range comparison below, so they are
    rejected by name first."""
    for name, value in values.items():
        if not isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SecurityParams:
    p: float  # per-validator malice probability
    m: int  # validator count
    f: float = 0.5  # Byzantine tolerance ratio

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 < self.f < 1.0:
            raise ValueError("f must be in (0, 1)")


@dataclass(frozen=True)
class GamePayoffs:
    C: float  # validation cost
    R: float  # challenge reward
    L: float  # victim loss
    B: float  # cheating benefit
    S: float  # stake

    def __post_init__(self):
        _require_finite(**vars(self))
        if self.C <= 0:
            raise ValueError("validation cost must be positive")
        for name in ("R", "L", "B", "S"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class AttentionParams:
    r: float  # lock-up interest rate
    t: float  # response gas fee
    C: float  # computation cost
    G: float = 0.0  # response deposit / penalty
    p_t: float = 0.0  # response probability

    def __post_init__(self):
        _require_finite(**vars(self))
        for name in ("r", "t", "C"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.p_t <= 1.0:
            raise ValueError("p_t must be in [0, 1]")


def any_trust_prob(p: float, m: int) -> float:
    """Chance at least one of m validators is honest: 1 - p**m."""
    SecurityParams(p, m)
    return 1.0 - p**m


def majority_trust_prob(p: float, m: int, f: float) -> float:
    """Chance no more than ceil(f*m) of m validators are malicious.

    Binomial sum with exact coefficients; fully rational arithmetic up to
    64 validators. Beyond that each term is summed as the exponent of its
    logarithm, since the coefficient alone overflows a float past ~1,000.
    """
    SecurityParams(p, m, f)
    cutoff = -(-Fraction(f).limit_denominator(10**9) * m // 1)  # ceil(f*m), exact
    if m <= _EXACT_LIMIT:
        pf = Fraction(p)  # binary floats convert exactly
        total = sum(
            comb(m, i) * pf**i * (1 - pf) ** (m - i) for i in range(0, min(cutoff, m) + 1)
        )
        return float(total)
    if p in (0.0, 1.0):  # one certain outcome: no malicious, or all m
        return 1.0 if p == 0.0 or cutoff >= m else 0.0
    log_p, log_q = log(p), log1p(-p)
    return min(1.0, sum(exp(lgamma(m + 1) - lgamma(i + 1) - lgamma(m - i + 1)
                            + i * log_p + (m - i) * log_q) for i in range(0, min(cutoff, m) + 1)))


class Equilibrium(NamedTuple):
    p_c: float  # submitter cheat probability
    p_v: float  # validator check probability
    interior: bool  # both probabilities inside [0, 1]


def verifier_equilibrium(payoffs: GamePayoffs) -> Equilibrium:
    """Mixed equilibrium of the one-shot verification game.

    p_c = C/(R+L) and p_v = (B+C)/(B+S), each making the other side
    indifferent. When a formula leaves [0, 1] there is no interior
    equilibrium; the raw value is reported with interior=False rather than
    silently clamped.
    """
    r_l, b_s, b_c = payoffs.R + payoffs.L, payoffs.B + payoffs.S, payoffs.B + payoffs.C
    # finite payoffs can still sum to infinity, which would divide to 0 or inf
    _require_finite(**{"R+L": r_l, "B+S": b_s, "B+C": b_c})
    if r_l <= 0 or b_s <= 0:
        raise ValueError("degenerate denominators: need R+L > 0 and B+S > 0")
    p_c = payoffs.C / r_l
    p_v = b_c / b_s
    _require_finite(p_c=p_c, p_v=p_v)
    return Equilibrium(p_c, p_v, 0.0 <= p_c <= 1.0 and 0.0 <= p_v <= 1.0)


def payoff_matrix(payoffs: GamePayoffs) -> dict[tuple[str, str], tuple[float, float]]:
    """(validator payoff, submitter payoff) per action pair."""
    C, R, L, B, S = payoffs.C, payoffs.R, payoffs.L, payoffs.B, payoffs.S
    return {
        ("validate", "cheat"): (R - C, -S),
        ("validate", "no-cheat"): (-C, -C),
        ("no-validate", "cheat"): (-L, B),
        ("no-validate", "no-cheat"): (0.0, -C),
    }


def attention_utilities(
    payoffs: GamePayoffs, att: AttentionParams, p_c: float
) -> tuple[float, float]:
    """Validator utility for checking vs staying lazy under the attention
    lottery: U_check = p_c*R - C, U_lazy = -p_c*L - p_t*G. Whenever
    p_t*G > C, checking dominates for every cheat probability."""
    u_check = p_c * payoffs.R - payoffs.C
    u_lazy = -p_c * payoffs.L - att.p_t * att.G
    return u_check, u_lazy


class OptimalAttention(NamedTuple):
    G: float
    p_t: float
    cost: float


def optimal_attention(r: float, t: float, C: float) -> OptimalAttention:
    """Cheapest (deposit, response probability) making checking dominant.

    Minimizing r*G + t*p_t subject to p_t*G >= C gives G = sqrt(t*C/r),
    p_t = sqrt(r*C/t) and cost 2*sqrt(r*t*C) (the AM-GM tight point).
    """
    AttentionParams(r, t, C)
    best = OptimalAttention(sqrt(t * C / r), sqrt(r * C / t), 2.0 * sqrt(r * t * C))
    _require_finite(**best._asdict())
    return best


# ---------------------------------------------------------------------------
# Attention-challenge simulation
# ---------------------------------------------------------------------------


class PrematureAccusationError(RuntimeError):
    """Accusations are only valid once the submitted result is accepted."""


def selection_threshold(p_t: float) -> int:
    """Hash threshold T with Pr(H < T) = p_t over a uniform 256-bit hash."""
    return int(Fraction(p_t) * 2**256)


def is_selected(address: bytes, result_digest: bytes, threshold: int, scheme: HashScheme) -> bool:
    h = int.from_bytes(scheme.digest(address + result_digest), "big")
    return h < threshold


@dataclass
class Validator:
    party_id: str
    address: bytes
    computed: bool  # did the work, so it can respond when selected


@dataclass
class RoundReport:
    commit: bytes
    selected: list[str]
    responded: list[str]
    penalized: list[str]


class AttentionRound:
    """One request's lottery, with the protocol ordering enforced:
    commit, response window, reveal, acceptance, then accusations."""

    def __init__(self, submitter_id: str, submitter_address: bytes,
                 result_digest: bytes, threshold: int, scheme: HashScheme):
        self.scheme = scheme
        self.submitter_id = submitter_id
        self.commit = self.scheme.digest(submitter_address + result_digest)
        self.result_digest = result_digest
        self.threshold = threshold
        self.revealed = False
        self.accepted = False
        self.responses: set[str] = set()

    def must_respond(self, validator: Validator) -> bool:
        return is_selected(validator.address, self.result_digest, self.threshold, self.scheme)

    def respond(self, validator: Validator) -> bool:
        """A response is only possible with the computed result in hand."""
        if not validator.computed:
            return False
        if self.must_respond(validator):
            self.responses.add(validator.party_id)
        return True

    def reveal(self) -> bytes:
        self.revealed = True
        return self.result_digest

    def accept(self) -> None:
        if not self.revealed:
            raise PrematureAccusationError("cannot accept before the reveal")
        self.accepted = True

    def accuse(self, validator: Validator, chain: ChainSim, penalty: int) -> bool:
        """Charge a selected validator that failed to respond; half of the
        penalty rewards the submitter, half is burned."""
        if not self.accepted:
            raise PrematureAccusationError("claim not yet accepted")
        if not self.must_respond(validator) or validator.party_id in self.responses:
            return False
        chain.penalize(validator.party_id, penalty, self.submitter_id)
        return True


def attention_round(
    submitter_id: str,
    submitter_address: bytes,
    validators: list[Validator],
    result_digest: bytes,
    threshold: int,
    chain: ChainSim,
    penalty: int,
    scheme: HashScheme,
) -> RoundReport:
    """Drive one full round, selecting below `threshold` (`selection_threshold`):
    commit, responses, reveal, accept, accusations."""
    rnd = AttentionRound(submitter_id, submitter_address, result_digest, threshold, scheme)
    selected, responded, penalized = [], [], []
    for v in validators:
        if rnd.must_respond(v):
            selected.append(v.party_id)
        rnd.respond(v)
        if v.party_id in rnd.responses:
            responded.append(v.party_id)
    rnd.reveal()
    chain.tick(chain.challenge_period)
    rnd.accept()
    for v in validators:
        if rnd.accuse(v, chain, penalty):
            penalized.append(v.party_id)
    return RoundReport(rnd.commit, selected, responded, penalized)


@dataclass
class SimulationReport:
    rounds: int
    samples: int
    selections: int
    penalized: int
    empirical_rate: float
    burned: int


def simulate_attention_rounds(
    rounds: int,
    p_t: float,
    n_validators: int = 1,
    lazy_fraction: float = 0.0,
    seed: int = 0,
    penalty: int = 10,
    chain: ChainSim | None = None,
    *,
    scheme: HashScheme,
) -> SimulationReport:
    """Repeated lottery rounds with fresh result digests; selection events
    across rounds are independent, so the empirical must-respond rate
    converges to p_t. Raises ValueError on a bad input before drawing."""
    if not 0.0 <= p_t <= 1.0:  # false for NaN too
        raise ValueError("p_t must be in [0, 1]")
    for name, value, low in (("rounds", rounds, 0), ("n_validators", n_validators, 1),
                             ("penalty", penalty, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if not 0.0 <= lazy_fraction <= 1.0:  # false for NaN too
        raise ValueError(f"lazy_fraction must be in [0, 1], got {lazy_fraction!r}")
    chain = chain if chain is not None else ChainSim(challenge_period=1)
    draws = rng_mod.stream(seed, "attention")
    submitter_addr = draws.randbytes(20)
    chain.deposit("submitter", 0)
    validators = []
    for i in range(n_validators):
        v = Validator(f"validator-{i}", draws.randbytes(20),
                      computed=draws.random() >= lazy_fraction)
        chain.deposit(v.party_id, penalty * rounds)
        validators.append(v)

    selections = penalized = 0
    threshold = selection_threshold(p_t)
    for _ in range(rounds):
        digest = draws.randbytes(32)
        report = attention_round("submitter", submitter_addr, validators,
                                 digest, threshold, chain, penalty, scheme)
        selections += len(report.selected)
        penalized += len(report.penalized)
        for v in validators:  # laziness redrawn each round
            v.computed = draws.random() >= lazy_fraction
    samples = rounds * n_validators
    return SimulationReport(rounds, samples, selections, penalized,
                            selections / samples if samples else 0.0, chain.burned)
