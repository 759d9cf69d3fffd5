"""Closed-form security/incentive values and the attention-challenge
mechanism. Exact values are recomputed here with independent integer
arithmetic before being asserted."""

import random
from fractions import Fraction
from math import comb

import pytest

from opml import economics
from opml.dispute import ChainSim
from opml.economics import (
    AttentionParams,
    GamePayoffs,
    PrematureAccusationError,
    Validator,
    any_trust_prob,
    attention_round,
    attention_utilities,
    majority_trust_prob,
    optimal_attention,
    payoff_matrix,
    selection_threshold,
    simulate_attention_rounds,
    verifier_equilibrium,
)
from opml.hashing import get_scheme

SCHEME = get_scheme("sha256")


def oracle_majority(p_num, p_den, m, cutoff):
    """Binomial sum in plain integer rationals."""
    total = Fraction(0)
    for i in range(cutoff + 1):
        total += comb(m, i) * Fraction(p_num, p_den) ** i * Fraction(p_den - p_num, p_den) ** (m - i)
    return total


def test_any_trust_examples():
    assert any_trust_prob(0.5, 10) == 0.9990234375  # 1023/1024 exactly
    assert any_trust_prob(0.3, 1) == 1 - 0.3
    assert any_trust_prob(0.0, 7) == 1.0
    assert any_trust_prob(1.0, 7) == 0.0


def test_majority_trust_exact_value():
    # hand-checkable: sum_{i<=5} C(10,i) / 2**10 = 638/1024
    expected = oracle_majority(1, 2, 10, 5)
    assert expected == Fraction(638, 1024)
    assert majority_trust_prob(0.5, 10, 0.5) == float(expected) == 0.623046875
    assert majority_trust_prob(0.0, 10, 0.5) == 1.0


def test_majority_trust_monotone_in_p():
    values = [majority_trust_prob(p / 20, 15, 0.5) for p in range(1, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_any_trust_dominates_majority_on_grid():
    # At m <= 3 with f around 1/2 the majority cutoff is already m-1, so the
    # two sums coincide; the curves separate strictly from m = 4 on.
    for f in (0.4, 0.5):
        for m in range(2, 25):
            for p_step in range(1, 10):
                p = p_step / 10
                any_p = any_trust_prob(p, m)
                maj_p = majority_trust_prob(p, m, f)
                # coincidence points differ by float rounding only
                assert any_p >= maj_p - 1e-15, (p, m, f)
                if m >= 4:
                    assert any_p > maj_p, (p, m, f)


def test_large_m_float_path():
    v = majority_trust_prob(0.5, 100, 0.5)
    assert 0.0 < v < 1.0
    assert any_trust_prob(0.5, 100) > v


def test_majority_trust_where_the_coefficients_overflow_a_float():
    """comb(m, m // 2) exceeds the float range from about m = 1,030."""
    for m in (1030, 2001, 20_000):
        v = majority_trust_prob(0.5, m, 0.5)
        assert 0.5 < v < 0.52, (m, v)
        assert majority_trust_prob(0.3, m, 0.5) <= any_trust_prob(0.3, m) == 1.0
    assert majority_trust_prob(1.0, 2000, 0.5) == 0.0
    assert majority_trust_prob(0.0, 2000, 0.5) == 1.0


def test_equilibrium_closed_form():
    eq = verifier_equilibrium(GamePayoffs(C=1, R=3, L=1, B=2, S=8))
    assert eq == (0.25, 0.3, True)


def test_equilibrium_indifference_identities():
    rng = random.Random(80)
    for _ in range(300):
        payoffs = GamePayoffs(
            C=rng.uniform(0.1, 5),
            R=rng.uniform(0.1, 10),
            L=rng.uniform(0.1, 10),
            B=rng.uniform(0.1, 10),
            S=rng.uniform(0.1, 20),
        )
        p_c, p_v, _ = verifier_equilibrium(payoffs)
        lhs_v = p_c * (payoffs.R - payoffs.C) + (1 - p_c) * (-payoffs.C)
        rhs_v = -p_c * payoffs.L
        assert abs(lhs_v - rhs_v) < 1e-12
        lhs_s = p_v * (-payoffs.S) + (1 - p_v) * payoffs.B
        assert abs(lhs_s - (-payoffs.C)) < 1e-12


def test_equilibrium_flags_no_interior():
    eq = verifier_equilibrium(GamePayoffs(C=10, R=3, L=1, B=2, S=8))
    assert eq.p_c > 1.0 and not eq.interior


def test_payoff_matrix_entries():
    table = payoff_matrix(GamePayoffs(C=1, R=3, L=1, B=2, S=8))
    assert table[("validate", "cheat")] == (2, -8)
    assert table[("validate", "no-cheat")] == (-1, -1)
    assert table[("no-validate", "cheat")] == (-1, 2)
    assert table[("no-validate", "no-cheat")] == (0, -1)


def test_attention_utilities_boundaries():
    payoffs = GamePayoffs(C=1, R=3, L=1, B=2, S=8)
    up = attention_utilities(payoffs, AttentionParams(0.001, 1, 1, G=20, p_t=0.1), 0.0)
    assert up[0] - up[1] == pytest.approx(1.0)  # p_t*G = 2C -> difference C
    exact = attention_utilities(payoffs, AttentionParams(0.001, 1, 1, G=10, p_t=0.1), 0.0)
    assert exact[0] - exact[1] == pytest.approx(0.0)  # p_t*G = C boundary
    below = attention_utilities(payoffs, AttentionParams(0.001, 1, 1, G=5, p_t=0.1), 0.0)
    assert below[0] - below[1] < 0


def test_attention_params_reject_a_response_probability_outside_0_1():
    for p_t in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"^p_t must be in \[0, 1\]$"):
            AttentionParams(0.001, 1, 1, G=10, p_t=p_t)


def test_dominance_when_condition_holds():
    rng = random.Random(81)
    for _ in range(300):
        payoffs = GamePayoffs(C=rng.uniform(0.1, 3), R=rng.uniform(0, 5),
                              L=rng.uniform(0, 5), B=rng.uniform(0, 5), S=rng.uniform(0.1, 5))
        g = rng.uniform(0.1, 10)
        p_t = rng.uniform(0.01, 1.0)
        if p_t * g <= payoffs.C:
            continue
        att = AttentionParams(0.001, 1, payoffs.C, G=g, p_t=p_t)
        for p_c in (0.0, 0.5, 1.0):
            u_check, u_lazy = attention_utilities(payoffs, att, p_c)
            assert u_check > u_lazy


def test_optimal_attention_paper_point():
    got = optimal_attention(0.001, 1.0, 0.001)
    assert got.G == pytest.approx(1.0)
    assert got.p_t == pytest.approx(0.001)
    assert got.cost == pytest.approx(0.002)
    # AM-GM tightness: both cost terms equal at the optimum
    assert got.G * 0.001 == pytest.approx(got.p_t * 1.0)
    # scaling law
    assert optimal_attention(0.001, 1.0, 0.002).cost == pytest.approx(0.002 * 2**0.5)


def test_optimal_attention_beats_grid():
    r, t, C = 0.003, 2.0, 0.01
    best = optimal_attention(r, t, C)
    for gi in range(1, 101):
        for pi in range(1, 101):
            G = gi * 0.1
            p_t = pi / 100
            if p_t * G < C:
                continue
            assert r * G + t * p_t >= best.cost - 1e-12


def test_selection_threshold_fraction():
    t = selection_threshold(0.25)
    assert t == 2**256 // 4


def test_attention_round_flow_and_burn():
    chain = ChainSim(challenge_period=1)
    chain.deposit("submitter", 0)
    chain.deposit("lazy", 100)
    chain.deposit("diligent", 100)
    rng = random.Random(82)
    validators = [
        Validator("diligent", rng.randbytes(20), computed=True),
        Validator("lazy", rng.randbytes(20), computed=False),
    ]
    total = chain.total()
    report = attention_round("submitter", rng.randbytes(20), validators,
                             rng.randbytes(32), selection_threshold(1.0), chain, penalty=10,
                             scheme=SCHEME)  # always selected
    assert set(report.selected) == {"diligent", "lazy"}
    assert report.responded == ["diligent"]
    assert report.penalized == ["lazy"]
    assert chain.balances["lazy"] == 90
    assert chain.balances["submitter"] == 5
    assert chain.burned == 5
    assert chain.total() == total  # balances shrink by exactly the burn


def test_premature_accusation_rejected():
    rng = random.Random(83)
    rnd = economics.AttentionRound("submitter", rng.randbytes(20), rng.randbytes(32),
                                   selection_threshold(1.0), SCHEME)
    lazy = Validator("lazy", rng.randbytes(20), computed=False)
    chain = ChainSim()
    chain.deposit("lazy", 100)
    with pytest.raises(PrematureAccusationError):
        rnd.accuse(lazy, chain, 10)
    with pytest.raises(PrematureAccusationError, match="before the reveal"):
        rnd.accept()
    rnd.reveal()
    with pytest.raises(PrematureAccusationError):
        rnd.accuse(lazy, chain, 10)  # revealed but not yet accepted
    rnd.accept()
    assert rnd.accuse(lazy, chain, 10)


def test_simulation_rate_within_band():
    report = simulate_attention_rounds(rounds=4000, p_t=0.25, seed=5, scheme=SCHEME)
    sigma = (0.25 * 0.75 / report.samples) ** 0.5
    assert abs(report.empirical_rate - 0.25) <= 3 * sigma
    assert report.samples == 4000


@pytest.mark.parametrize("bad, match", [
    ({"rounds": -3}, "rounds"),
    ({"penalty": -10}, "penalty"),
    ({"n_validators": 0}, "n_validators"),
    ({"lazy_fraction": 2.0}, "lazy_fraction"),
    ({"lazy_fraction": -0.1}, "lazy_fraction"),
    ({"lazy_fraction": float("nan")}, "lazy_fraction"),
    ({"lazy_fraction": float("inf")}, "lazy_fraction"),
    ({"p_t": 1.5}, "p_t"),
], ids=["rounds-negative", "penalty-negative", "validators-zero", "lazy-high", "lazy-negative",
        "lazy-nan", "lazy-inf", "p-t-high"])
def test_simulation_rejects_bad_inputs_before_drawing(monkeypatch, bad, match):
    """A bad input is a plain ValueError, raised before any draw or
    deposit; a negative penalty never reaches the chain's ProtocolViolation."""
    monkeypatch.setattr(economics.rng_mod, "stream", lambda *a: pytest.fail("drew"))
    chain = ChainSim(challenge_period=1)
    kwargs = {"rounds": 5, "p_t": 0.5, "n_validators": 2, **bad}
    with pytest.raises(ValueError, match=match) as excinfo:
        simulate_attention_rounds(**kwargs, chain=chain, scheme=SCHEME)
    assert excinfo.type is ValueError
    assert (chain.balances, chain.total()) == ({}, 0)


def test_a_simulation_computes_its_selection_threshold_once(monkeypatch):
    """One threshold serves every round, and the report is the one pinned
    when each round computed its own."""
    calls = []
    threshold = economics.selection_threshold
    monkeypatch.setattr(economics, "selection_threshold",
                        lambda p_t: calls.append(p_t) or threshold(p_t))
    report = simulate_attention_rounds(rounds=300, p_t=0.3, n_validators=3, lazy_fraction=0.5,
                                       seed=6, penalty=10, scheme=SCHEME)
    assert calls == [0.3]
    assert report == economics.SimulationReport(rounds=300, samples=900, selections=279,
                                                penalized=141, empirical_rate=0.31, burned=705)


def test_simulation_of_zero_rounds_samples_nothing():
    report = simulate_attention_rounds(rounds=0, p_t=0.5, n_validators=3, lazy_fraction=1.0,
                                       scheme=SCHEME)
    assert (report.samples, report.selections, report.empirical_rate) == (0, 0, 0.0)


def test_simulation_conservation_with_lazy_validators():
    chain = ChainSim(challenge_period=1)
    report = simulate_attention_rounds(rounds=500, p_t=0.3, n_validators=3,
                                       lazy_fraction=0.5, seed=6, penalty=10, chain=chain,
                                       scheme=SCHEME)
    assert report.penalized > 0
    assert chain.burned == report.penalized * 5
    assert chain.total() == sum(chain.balances.values()) + sum(chain.stakes.values()) + chain.burned
