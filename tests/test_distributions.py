import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedmech.distributions import (
    DEFAULT_MC_TRIALS,
    Empirical,
    Exponential,
    OrderStatQuery,
    Pareto,
    TwoPoint,
    Uniform,
    alpha_quantile,
    expected_min,
    min_of_k_cdf,
    parse_distribution,
    sample_min_of_k,
    sample_order_stat,
)

RNG = lambda seed=0: np.random.default_rng(seed)

ALL_SPECS = [
    Exponential(1.0),
    Exponential(2.5),
    Uniform(0.0, 1.0),
    Uniform(0.5, 2.0),
    Pareto(2.0, 1.0),
    TwoPoint(1.0, 10.0, 0.5),
    TwoPoint(1.0, 10.0, 0.0),
    Empirical(np.array([0.5, 1.0, 1.0, 3.0])),
]


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Uniform(1.0, 1.0),
        lambda: Uniform(-0.5, 1.0),
        lambda: Pareto(0.0, 1.0),
        lambda: Pareto(1.0, -2.0),
        lambda: TwoPoint(5.0, 1.0, 0.5),
        lambda: TwoPoint(1.0, 10.0, 1.5),
        lambda: Empirical(np.array([])),
        lambda: Empirical(np.array([-1.0, 2.0])),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_mhr_flags():
    assert Exponential(1.0).mhr
    assert Uniform(0.0, 1.0).mhr
    assert not Pareto(2.0, 1.0).mhr
    assert not TwoPoint(1.0, 10.0, 0.5).mhr
    # single-atom degenerate cases are the only discrete MHR ones
    assert TwoPoint(1.0, 10.0, 0.0).mhr
    assert TwoPoint(1.0, 10.0, 1.0).mhr
    assert Empirical(np.array([2.0, 2.0])).mhr
    assert not Empirical(np.array([1.0, 2.0])).mhr


# ------------------------------------------------------------------- parsing


def test_parse_round_trip():
    for text in ["exp:1.0", "uniform:0.0,1.0", "pareto:2.0,1.0", "twopoint:1.0,10.0,0.5"]:
        spec = parse_distribution(text)
        assert spec.spec_string == text
        assert parse_distribution(spec.spec_string).spec_string == text


def test_parse_empirical(tmp_path):
    path = tmp_path / "sizes.txt"
    path.write_text("1.5\n0.25\n3.0\n")
    spec = parse_distribution(f"empirical:{path}")
    assert isinstance(spec, Empirical)
    assert list(spec.values) == [0.25, 1.5, 3.0]
    assert spec.spec_string == f"empirical:{path}"


def test_parse_rejects_garbage():
    for text in ["exp", "gauss:1.0", "uniform:1.0", "twopoint:1,2"]:
        with pytest.raises(ValueError):
            parse_distribution(text)


def test_empirical_without_path_has_no_string_form():
    with pytest.raises(ValueError):
        Empirical(np.array([1.0])).spec_string


# ------------------------------------------------------------------ sampling


def test_degenerate_two_point_always_low():
    spec = TwoPoint(1.0, 10.0, 0.0)
    draws = spec.sample(RNG(), 1000)
    assert np.all(draws == 1.0)


def test_exponential_sample_mean_matches_closed_form():
    # oracle: E[Exp(1)] = 1
    draws = Exponential(1.0).sample(RNG(1), 10**6)
    assert abs(draws.mean() - 1.0) < 0.01


@pytest.mark.parametrize("rate", [1.0, 2.5, 0.3])
@pytest.mark.parametrize("size", [None, 7, (64, 64), (512, 32)])
def test_exponential_sample_is_numpys_exponential_bit_for_bit(rate, size):
    # the sampler scales standard draws; numpy's exponential(scale) does the
    # same, so every campaign's instances are unchanged
    for seed in (0, 1, 12345):
        ours = np.asarray(Exponential(rate).sample(RNG(seed), size))
        numpys = np.asarray(RNG(seed).exponential(1.0 / rate, size))
        assert ours.dtype == numpys.dtype and ours.shape == numpys.shape
        assert ours.tobytes() == numpys.tobytes()


def test_uniform_support():
    draws = Uniform(0.0, 1.0).sample(RNG(2), 10**5)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_pareto_support_and_mean():
    spec = Pareto(3.0, 2.0)
    draws = spec.sample(RNG(3), 10**6)
    assert draws.min() >= 2.0
    # oracle: mean = shape*scale/(shape-1) = 3
    assert abs(draws.mean() - 3.0) < 0.02


# ------------------------------------------------------------- order statistics


def test_min_of_k_exponential_mean():
    # min of 4 Exp(1) draws is Exp(4): mean 0.25
    q = OrderStatQuery(Exponential(1.0), 1, 4)
    draws = sample_order_stat(q, RNG(4), 10**6)
    assert abs(draws.mean() - 0.25) < 0.0025


def test_order_stat_identity_case_distribution():
    # i = k = 1 must match plain sampling in distribution (DKW comparison)
    spec = Exponential(1.0)
    n = 10**5
    a = np.sort(sample_order_stat(OrderStatQuery(spec, 1, 1), RNG(5), n))
    b = np.sort(spec.sample(RNG(6), n))
    grid = np.linspace(0.0, 4.0, 100)
    ta = (n - np.searchsorted(a, grid, side="right")) / n
    tb = (n - np.searchsorted(b, grid, side="right")) / n
    band = math.sqrt(math.log(2 / 0.01) / (2 * n))
    assert np.max(np.abs(ta - tb)) <= 2 * band


def test_second_of_three_uniform_mean():
    # oracle: the 2nd of 3 uniforms is Beta(2, 2), mean 1/2
    q = OrderStatQuery(Uniform(0.0, 1.0), 2, 3)
    draws = sample_order_stat(q, RNG(7), 10**6)
    assert abs(draws.mean() - 0.5) < 0.005


def test_order_stat_query_validation():
    with pytest.raises(ValueError):
        OrderStatQuery(Exponential(1.0), 0, 3)
    with pytest.raises(ValueError):
        OrderStatQuery(Exponential(1.0), 4, 3)


def test_min_of_k_two_point_uses_literal_draws():
    # P(min of 3 = high) = p^3 = 0.125
    spec = TwoPoint(1.0, 10.0, 0.5)
    draws = sample_min_of_k(spec, 3, RNG(8), 10**5)
    frac_high = np.mean(draws == 10.0)
    assert abs(frac_high - 0.125) < 0.004  # ~4 binomial SEs


# -------------------------------------------------------------- expected_min


def test_expected_min_closed_forms():
    assert expected_min(Exponential(1.0), 10).value == pytest.approx(0.1, abs=1e-15)
    assert expected_min(Uniform(0.0, 1.0), 3).value == pytest.approx(0.25, abs=1e-15)
    est = expected_min(Exponential(1.0), 10)
    assert est.exact and est.standard_error == 0.0


def test_expected_min_two_point_by_enumeration():
    # oracle: enumerate the 4 equally likely outcomes of two draws
    spec = TwoPoint(1.0, 10.0, 0.5)
    outcomes = [(a, b) for a in (1.0, 10.0) for b in (1.0, 10.0)]
    oracle = sum(min(a, b) for a, b in outcomes) / 4.0
    assert oracle == 3.25
    assert expected_min(spec, 2).value == pytest.approx(3.25, abs=1e-12)


def test_expected_min_pareto_monte_carlo():
    # oracle: min of k Pareto(a, s) is Pareto(k*a, s) with mean k*a*s/(k*a - 1)
    spec = Pareto(2.0, 1.0)
    est = expected_min(spec, 3, rng=RNG(9))
    assert not est.exact and est.trials == DEFAULT_MC_TRIALS
    oracle = 6.0 / 5.0
    assert abs(est.value - oracle) < 4 * est.standard_error + 1e-3


def test_expected_min_requires_budget_without_closed_form():
    with pytest.raises(ValueError):
        expected_min(Pareto(2.0, 1.0), 3, trials=0, rng=RNG())
    with pytest.raises(ValueError):
        expected_min(Empirical(np.array([1.0, 2.0])), 2)  # no rng supplied


# ------------------------------------------------------------ alpha quantile


def test_alpha_quantile_exponential():
    # oracle: F(z) = 1 - exp(-z) = 1/10  =>  z = -ln(0.9)
    assert alpha_quantile(Exponential(1.0), 10) == pytest.approx(
        0.10536051565782628, abs=1e-12
    )


def test_alpha_quantile_uniform():
    assert alpha_quantile(Uniform(0.0, 1.0), 4) == pytest.approx(0.25, abs=1e-15)


def test_alpha_quantile_two_point_step():
    # F(z) = 0 below 1 and F(1) = 0.5 >= 1/4: the sup lands on the low atom
    assert alpha_quantile(TwoPoint(1.0, 10.0, 0.5), 4) == 1.0


@pytest.mark.parametrize("spec", [Exponential(1.3), Uniform(0.2, 2.0), Pareto(2.0, 1.0)])
@pytest.mark.parametrize("m", [2, 5, 17])
def test_alpha_quantile_continuous_hits_one_over_m(spec, m):
    alpha = alpha_quantile(spec, m)
    assert abs(float(spec.cdf(alpha)) - 1.0 / m) <= 1e-10


@pytest.mark.parametrize(
    "spec",
    [TwoPoint(1.0, 10.0, 0.5), Empirical(np.array([0.5, 1.0, 1.0, 3.0]))],
)
@pytest.mark.parametrize("m", [2, 3, 8])
def test_alpha_quantile_step_brackets_one_over_m(spec, m):
    alpha = alpha_quantile(spec, m)
    assert float(spec.cdf(alpha)) >= 1.0 / m
    assert float(spec.cdf(alpha - 1e-9)) < 1.0 / m


# ------------------------------------------------------------- min_of_k_cdf


def test_min_of_k_cdf_identity_and_closed_forms():
    spec = Exponential(1.0)
    t = np.linspace(0, 3, 7)
    assert np.allclose(min_of_k_cdf(spec, 1, t), spec.cdf(t))
    # oracle: 1 - e^{-3}
    assert min_of_k_cdf(spec, 3, 1.0) == pytest.approx(0.950212931632136, abs=1e-12)
    assert min_of_k_cdf(Uniform(0.0, 1.0), 2, 0.5) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_min_of_k_cdf_matches_empirical_within_dkw(spec):
    k, n = 4, 10**5
    draws = np.sort(sample_min_of_k(spec, k, RNG(10), n))
    grid = np.quantile(draws, np.linspace(0.01, 0.99, 50))
    empirical = np.searchsorted(draws, grid, side="right") / n
    band = math.sqrt(math.log(2 / 0.01) / (2 * n))
    assert np.max(np.abs(empirical - min_of_k_cdf(spec, k, grid))) <= band


# --------------------------------------------------------- property tests


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(0.1, 10.0),
    t=st.lists(st.floats(-1.0, 50.0), min_size=2, max_size=20),
)
def test_cdf_is_monotone_and_bounded_exponential(rate, t):
    spec = Exponential(rate)
    values = spec.cdf(np.sort(np.asarray(t)))
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) >= -1e-12)


@settings(max_examples=60, deadline=None)
@given(
    low=st.floats(0.0, 5.0),
    gap=st.floats(0.1, 10.0),
    p=st.floats(0.0, 1.0),
    t=st.lists(st.floats(-1.0, 20.0), min_size=2, max_size=20),
)
def test_cdf_is_monotone_and_bounded_two_point(low, gap, p, t):
    spec = TwoPoint(low, low + gap, p)
    values = spec.cdf(np.sort(np.asarray(t)))
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) >= -1e-12)


def test_hazard_closed_forms():
    assert float(Exponential(2.0).hazard(1.3)) == 2.0
    assert float(Uniform(0.0, 1.0).hazard(0.5)) == pytest.approx(2.0)
    assert float(Pareto(2.0, 1.0).hazard(2.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TwoPoint(1.0, 2.0, 0.5).hazard(1.0)
