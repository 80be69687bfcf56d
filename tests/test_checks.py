import math

import numpy as np
import pytest

from schedmech.checks import (
    CORRELATION_GAP_BOUND,
    CopiesQuery,
    FiniteJoint,
    check_correlation_gap,
    check_min_hazard_identity,
    check_mhr_scaling,
    check_opt_ratio_mhr,
    check_order_stat_dominance,
    check_random_copies,
    check_sieve_unscheduled,
    dkw_band,
    empirical_dominance,
)
from schedmech.distributions import Exponential, Pareto, TwoPoint, Uniform, sample_min_of_k

RNG = lambda seed: np.random.default_rng(seed)


def one_hot_joint(n):
    """A uniformly chosen indicator set to one: maximal positive correlation."""
    return FiniteJoint(np.eye(n), np.full(n, 1.0 / n))


# -------------------------------------------------------------- DKW machinery


def test_dkw_band_formula():
    assert dkw_band(10**5) == pytest.approx(math.sqrt(math.log(200.0) / (2 * 10**5)))


def test_negative_control_falsified_dominance_fails():
    # false claim: the minimum of m/2 draws is dominated by the minimum of m
    spec = Exponential(1.0)
    rng = RNG(0)
    trials = 40_000
    lhs = sample_min_of_k(spec, 4, rng, trials)   # min of m/2 = 4
    rhs = sample_min_of_k(spec, 8, rng, trials)   # min of m = 8
    grid = np.linspace(0.0, 1.0, 60)
    report = empirical_dominance("negative-control", {}, lhs, rhs, grid)
    assert not report.passed
    assert report.statistics["max_violation"] > 0


def test_dominance_requires_matched_sample_counts():
    with pytest.raises(ValueError):
        empirical_dominance("x", {}, np.zeros(10), np.zeros(11), np.linspace(0, 1, 50))


# ------------------------------------------------- order statistic dominance


@pytest.mark.parametrize("spec", [Exponential(1.0), TwoPoint(1.0, 10.0, 0.5)])
@pytest.mark.parametrize("i", [1, 2])
def test_order_stat_dominance_passes(spec, i):
    report = check_order_stat_dominance(spec, 16, i, 60_000, RNG(1))
    assert report.passed, f"violation {report.statistics['max_violation']}"
    assert report.statistics["t_grid"][0] == pytest.approx(report.params["alpha"])
    assert len(report.statistics["t_grid"]) >= 50
    assert "alpha_point_violation" in report.statistics


def test_order_stat_dominance_guards():
    with pytest.raises(ValueError):
        check_order_stat_dominance(Exponential(1.0), 16, 7, 100, RNG(2))
    with pytest.raises(ValueError):
        check_order_stat_dominance(Exponential(1.0), 1, 1, 100, RNG(2))


def test_order_stat_dominance_odd_m_notes_half():
    report = check_order_stat_dominance(Exponential(1.0), 9, 1, 20_000, RNG(3))
    assert report.statistics["odd_m_half"] == 4
    assert report.passed


# --------------------------------------------------------------- MHR scaling


def test_mhr_scaling_exponential_equality_case():
    # r * min of r Exp(1) draws is again Exp(1): tails agree within bands
    report = check_mhr_scaling(Exponential(1.0), 3, 80_000, RNG(4))
    assert report.passed
    slack = np.max(np.abs(report.statistics["lhs_tail"] - report.statistics["rhs_tail"]))
    assert slack <= 2 * report.band  # equality, not just dominance


def test_mhr_scaling_uniform_passes_with_margin():
    report = check_mhr_scaling(Uniform(0.0, 1.0), 2, 80_000, RNG(5))
    assert report.passed
    assert report.statistics["max_violation"] < 0


def test_mhr_scaling_r_one_identity():
    report = check_mhr_scaling(Exponential(1.0), 1, 20_000, RNG(6))
    assert report.passed


def test_mhr_scaling_rejects_heavy_tails():
    with pytest.raises(ValueError):
        check_mhr_scaling(Pareto(2.0, 1.0), 2, 100, RNG(7))
    with pytest.raises(ValueError):
        check_mhr_scaling(TwoPoint(1.0, 10.0, 0.5), 2, 100, RNG(7))


# -------------------------------------------------------------- random copies


def test_random_copies_deterministic_two_exponential():
    # lhs oracle: E[max of 2 Exp(1)] = 1.5; rhs = (2/1) * 2 * 1 = 4
    query = CopiesQuery((2,), (1.0,), Exponential(1.0), 2.0, 1)
    check = check_random_copies(query, 120_000, RNG(8))
    assert check.passed
    assert abs(check.statistics["lhs_mean"] - 1.5) <= 4 * check.statistics["lhs_se"]
    assert check.statistics["rhs_mean"] == pytest.approx(4.0, rel=0.02)


def test_random_copies_constant_sizes():
    # W degenerate at 1: lhs = 1, rhs = (3/2) * 3 * 1
    query = CopiesQuery((3,), (1.0,), TwoPoint(1.0, 2.0, 0.0), 3.0, 2)
    check = check_random_copies(query, 20_000, RNG(9))
    assert check.passed
    assert check.statistics["lhs_mean"] == pytest.approx(1.0)
    assert check.statistics["rhs_mean"] == pytest.approx(4.5)


def test_random_copies_mixed_counts():
    query = CopiesQuery((2, 3), (0.5, 0.5), Uniform(0.0, 1.0), 2.0, 4)
    check = check_random_copies(query, 120_000, RNG(10))
    assert check.passed
    assert query.mean_k == pytest.approx(2.5)


def test_copies_query_validation():
    with pytest.raises(ValueError):
        CopiesQuery((1,), (1.0,), Exponential(1.0), 2.0, 1)  # support below c
    with pytest.raises(ValueError):
        CopiesQuery((2,), (0.5,), Exponential(1.0), 2.0, 1)  # probs not normalized
    with pytest.raises(ValueError):
        CopiesQuery((2,), (1.0,), Exponential(1.0), 1.0, 1)  # c must exceed 1


# ------------------------------------------------------------ correlation gap


def test_correlation_gap_independent_joint_ratio_one():
    # product joint of two fair coins: X already independent
    outcomes = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    joint = FiniteJoint(outcomes, np.full(4, 0.25))
    check = check_correlation_gap(joint, mode="exact")
    assert check.statistics["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert check.passed


def test_correlation_gap_tight_family_exact():
    # oracle: enumerate the 2^5 outcomes of 5 independent Bernoulli(1/5)
    n = 5
    e_max_y = 0.0
    for mask in range(2**n):
        bits = [(mask >> i) & 1 for i in range(n)]
        prob = math.prod((0.2 if b else 0.8) for b in bits)
        e_max_y += prob * max(bits)
    assert e_max_y == pytest.approx(1.0 - 0.8**5)
    oracle_ratio = 1.0 / e_max_y
    assert oracle_ratio == pytest.approx(1.48740, abs=5e-5)

    check = check_correlation_gap(one_hot_joint(n), mode="exact")
    assert check.statistics["ratio"] == pytest.approx(oracle_ratio, rel=1e-12)
    assert check.statistics["ratio"] <= CORRELATION_GAP_BOUND
    assert check.passed
    assert CORRELATION_GAP_BOUND == pytest.approx(1.5819767068693265)


def test_correlation_gap_comonotone_pair():
    # X1 = X2 = Bernoulli(1/2): E[max X] = 0.5, E[max Y] = 0.75
    joint = FiniteJoint(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
    check = check_correlation_gap(joint, mode="exact")
    assert check.statistics["e_max_joint"] == pytest.approx(0.5)
    assert check.statistics["e_max_independent"] == pytest.approx(0.75)
    assert check.statistics["ratio"] == pytest.approx(2.0 / 3.0)
    assert check.passed


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_correlation_gap_refuses_an_all_zero_joint(mode):
    # E[max] is 0 on both sides: the ratio has a zero denominator
    joint = FiniteJoint(np.zeros((2, 3)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="mean is zero"):
        check_correlation_gap(joint, mode=mode, trials=100, rng=RNG(11))


def test_correlation_gap_monte_carlo_agrees_with_exact():
    exact = check_correlation_gap(one_hot_joint(5), mode="exact")
    mc = check_correlation_gap(one_hot_joint(5), mode="mc", trials=200_000, rng=RNG(11))
    assert mc.passed
    assert abs(mc.statistics["ratio"] - exact.statistics["ratio"]) <= 3 * mc.statistics["se"]


# ---------------------------------------------------------------- OPT ratios


def test_opt_ratio_exponential_half():
    check = check_opt_ratio_mhr(Exponential(1.0), 8, 8, 0.5, 150_000, RNG(12))
    assert check.passed
    assert check.statistics["bound"] == 4.0
    # scale property makes the worst-best ratio exactly 2
    assert abs(check.statistics["worst_ratio"] - 2.0) <= 3 * check.statistics["worst_se"]
    # the band is the larger slack of the pass rule, in ratio units
    stats = check.statistics
    assert check.band == 3 * max(stats["worst_se"], stats["average_se"])


def test_opt_ratio_delta_one_identity():
    check = check_opt_ratio_mhr(Exponential(1.0), 4, 4, 1.0, 50_000, RNG(13))
    assert check.passed
    assert check.statistics["worst_ratio"] == pytest.approx(1.0, abs=0.05)


def test_opt_ratio_uniform_passes():
    check = check_opt_ratio_mhr(Uniform(0.0, 1.0), 8, 8, 0.5, 100_000, RNG(14))
    assert check.passed


def test_opt_ratio_rejects_non_mhr():
    with pytest.raises(ValueError):
        check_opt_ratio_mhr(Pareto(2.0, 1.0), 4, 4, 0.5, 100, RNG(15))


@pytest.mark.parametrize("delta", [0.0, 1.5, math.nan])
def test_opt_ratio_rejects_delta_outside_unit_interval(delta):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        check_opt_ratio_mhr(Exponential(1.0), 4, 4, delta, 100, RNG(15))


# -------------------------------------------------------- min hazard identity


def test_min_hazard_identity_exponential():
    check = check_min_hazard_identity(Exponential(2.0), 5, np.linspace(0.01, 1.0, 80))
    assert check.passed
    assert check.statistics["max_rel_error"] <= 1e-10


def test_min_hazard_identity_uniform_point():
    spec = Uniform(0.0, 1.0)
    # oracle at t=0.5, k=3: base hazard 1/(1-t) = 2, implied = 6
    implied = 3 * (1 - 0.5) ** 2 * 1.0 / (1 - (1 - (1 - 0.5) ** 3))
    assert implied == pytest.approx(6.0)
    check = check_min_hazard_identity(spec, 3, [0.25, 0.5, 0.75])
    assert check.passed


def test_min_hazard_identity_k_one():
    check = check_min_hazard_identity(Pareto(2.0, 1.0), 1, np.linspace(1.05, 3.0, 40))
    assert check.passed


def test_min_hazard_identity_guards():
    with pytest.raises(ValueError):
        check_min_hazard_identity(TwoPoint(1.0, 2.0, 0.5), 2, [1.0])
    with pytest.raises(ValueError):
        check_min_hazard_identity(Uniform(0.0, 1.0), 2, [1.5])  # outside support


# ------------------------------------------------------------ sieve leftovers


def test_sieve_unscheduled_exponential():
    check = check_sieve_unscheduled(Exponential(1.0), 100, 10, 2.0, 3000, RNG(16))
    assert check.passed
    assert check.params["beta"] == pytest.approx(0.5)
    # closed-form oracle: 100 * P(min of 10 Exp(1) > 0.5) = 100 e^{-5}
    oracle = 100.0 * math.exp(-5.0)
    assert abs(check.statistics["mean"] - oracle) <= 4 * check.statistics["se"]
    assert check.statistics["bound"] == 20.0


def test_sieve_unscheduled_huge_reserve_leaves_nothing():
    # a tiny k drives beta huge; nothing passes the threshold
    rng = RNG(17)
    check = check_sieve_unscheduled(Exponential(1.0), 20, 4, 0.05, 200, rng)
    assert check.statistics["mean"] == 0.0
    assert check.passed


def test_sieve_unscheduled_pareto_heavy_tail():
    check = check_sieve_unscheduled(Pareto(2.0, 1.0), 50, 5, 1.0, 1500, RNG(18))
    assert check.passed


def test_json_records_are_serialisable():
    import json

    report = check_mhr_scaling(Exponential(1.0), 2, 5000, RNG(19))
    record = report.json_record()
    text = json.dumps(record)
    assert '"lemma_id": "mhr-scaling"' in text
    for key in ("lemma_id", "parameters", "trials", "statistics", "band", "pass"):
        assert key in record


# ------------------------------------------------------ one-trial estimates


@pytest.mark.parametrize(
    "run",
    [
        lambda: check_random_copies(
            CopiesQuery((2,), (1.0,), Exponential(1.0), 2.0, 1), 1, RNG(19)
        ),
        lambda: check_correlation_gap(one_hot_joint(3), mode="mc", trials=1, rng=RNG(19)),
        lambda: check_opt_ratio_mhr(Exponential(1.0), 4, 4, 0.5, 1, RNG(19)),
        lambda: check_sieve_unscheduled(Exponential(1.0), 20, 4, 1.0, 1, RNG(19)),
    ],
    ids=["random-copies", "correlation-gap-mc", "opt-ratio-mhr", "sieve-unscheduled"],
)
def test_checks_with_a_standard_error_refuse_one_trial(run):
    with pytest.raises(ValueError, match="trials >= 2"):
        run()
