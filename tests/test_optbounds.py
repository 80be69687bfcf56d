import math

import numpy as np
import pytest

from schedmech.distributions import Exponential, TwoPoint, Uniform
from schedmech.optbounds import (
    OptEstimate,
    expected_average_best,
    expected_worst_best,
    mean_se,
    opt_reference,
    ratio_se,
    reduced_machine_count,
)


def harmonic(n):
    return sum(1.0 / i for i in range(1, n + 1))


RNG = lambda seed: np.random.default_rng(seed)


def test_single_job_reduces_to_expected_min():
    # E[min of 4 Exp(1)] = 1/4
    est = expected_worst_best(Exponential(1.0), 1, 4, 200_000, RNG(0))
    assert abs(est.mean - 0.25) <= 4 * est.standard_error


def test_worst_best_exponential_harmonic_oracle():
    # max of 4 independent Exp(4) variables has mean H_4 / 4
    oracle = harmonic(4) / 4.0
    assert oracle == pytest.approx(0.5208333333333333)
    est = expected_worst_best(Exponential(1.0), 4, 4, 200_000, RNG(1))
    assert abs(est.mean - oracle) <= 4 * est.standard_error


def test_degenerate_two_point_exact():
    spec = TwoPoint(1.0, 10.0, 1.0)  # every draw is 10
    est = expected_worst_best(spec, 3, 2, 500, RNG(2))
    assert est.mean == 10.0 and est.standard_error == 0.0


def test_average_best_single_job():
    # E[min of 2 Exp(1)] / 2 = 0.25
    est = expected_average_best(Exponential(1.0), 1, 2, 200_000, RNG(3))
    assert abs(est.mean - 0.25) <= 4 * est.standard_error


def test_average_best_linearity_in_n():
    one = expected_average_best(Exponential(1.0), 4, 3, 300_000, RNG(4))
    two = expected_average_best(Exponential(1.0), 8, 3, 300_000, RNG(5))
    se = math.hypot(2 * one.standard_error, two.standard_error)
    assert abs(two.mean - 2 * one.mean) <= 4 * se


def test_average_best_degenerate_exact():
    spec = TwoPoint(1.0, 10.0, 1.0)
    est = expected_average_best(spec, 6, 4, 100, RNG(6))
    assert est.mean == pytest.approx(6 * 10.0 / 4.0)


def test_opt_reference_identity_at_full_delta():
    ref = opt_reference(Exponential(1.0), 4, 4, 1.0, 100_000, RNG(7))
    wb = expected_worst_best(Exponential(1.0), 4, 4, 100_000, RNG(8))
    assert ref.machines_used == 4
    assert abs(ref.mean - wb.mean) <= 4 * math.hypot(ref.standard_error, wb.standard_error)


def test_opt_reference_half_machines_oracle():
    # worst-best on 2 machines: max of 4 Exp(2), mean H_4 / 2
    oracle = harmonic(4) / 2.0
    assert oracle == pytest.approx(1.0416666666666665)
    ref = opt_reference(Exponential(1.0), 4, 4, 0.5, 300_000, RNG(9))
    assert ref.machines_used == 2
    assert abs(ref.mean - oracle) <= 4 * ref.standard_error


def test_exponential_worst_best_ratio_is_two():
    # scale property: halving the machines doubles every best runtime
    half = expected_worst_best(Exponential(1.0), 8, 4, 300_000, RNG(10))
    full = expected_worst_best(Exponential(1.0), 8, 8, 300_000, RNG(11))
    ratio = half.mean / full.mean
    se = abs(ratio) * math.hypot(
        half.standard_error / half.mean, full.standard_error / full.mean
    )
    assert abs(ratio - 2.0) <= 4 * se


def test_bounds_nonincreasing_in_machine_count():
    rng = RNG(12)
    prev_wb, prev_ab = math.inf, math.inf
    for machines in (2, 4, 8):
        wb = expected_worst_best(Exponential(1.0), 6, machines, 150_000, rng)
        ab = expected_average_best(Exponential(1.0), 6, machines, 150_000, rng)
        assert wb.mean <= prev_wb + 3 * wb.standard_error
        assert ab.mean <= prev_ab + 3 * ab.standard_error
        prev_wb, prev_ab = wb.mean, ab.mean


def test_worst_at_least_average_when_jobs_fit():
    # max of n nonnegative values >= their sum / m' whenever n <= m'
    rng = RNG(13)
    for spec in (Exponential(1.0), Uniform(0.0, 1.0)):
        n, machines, trials = 4, 6, 50_000
        from schedmech.optbounds import _per_trial_stats

        worst, total = _per_trial_stats(spec, n, machines, trials, rng)
        assert np.all(worst >= total / machines - 1e-12)


def test_reduced_machine_count_rounding():
    assert reduced_machine_count(4, 0.5) == 2
    assert reduced_machine_count(3, 0.5) == 2  # 1.5 rounds half up
    assert reduced_machine_count(32, 1.0 / 3.0) == 11
    with pytest.raises(ValueError, match="at least one machine"):
        reduced_machine_count(1, 0.5)
    for delta in (0.0, -0.5, 2.0, math.nan):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            reduced_machine_count(16, delta)


def test_estimate_validation():
    with pytest.raises(ValueError):
        OptEstimate("worst-best", 2, -1.0, 0.0, 10)
    with pytest.raises(ValueError):
        expected_worst_best(Exponential(1.0), 2, 0, 10, RNG(14))


def test_per_job_spec_list_must_match_n():
    with pytest.raises(ValueError):
        expected_worst_best([Exponential(1.0)] * 3, 2, 2, 10, RNG(15))


def test_mean_se_one_sample_and_sample_std():
    assert mean_se(np.array([3.0])) == (3.0, 0.0)
    mean, se = mean_se(np.array([1.0, 2.0, 4.0]))
    assert mean == pytest.approx(7.0 / 3.0)
    assert se == pytest.approx(math.sqrt(7.0 / 3.0) / math.sqrt(3.0))


def test_ratio_se_relative_errors_and_zero_denominator():
    ratio, se = ratio_se(2.0, 0.2, 4.0, 0.3)
    assert ratio == 0.5
    assert se == pytest.approx(0.5 * math.hypot(0.1, 0.075))
    assert ratio_se(0.0, 0.1, 4.0, 0.3) == (0.0, 0.0)  # a zero numerator adds no error
    with pytest.raises(ValueError, match="mean is zero"):
        ratio_se(1.0, 0.1, 0.0, 0.0)
