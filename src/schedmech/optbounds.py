"""Monte Carlo estimators of the first-best makespan lower bounds.

Two statistics bound the optimal makespan from below on a machine set of
size m':

* worst best runtime -- E[max over jobs of (min of m' fresh draws)]; sharp
  when there are few jobs per machine.
* average best runtime -- E[sum over jobs of (min of m' draws)] / m'; sharp
  when the load factor is large.

``opt_reference`` evaluates both on a reduced machine count round(delta * m)
and reports the larger, which is the usual comparison target for mechanism
campaigns.  Estimates always use fresh draws, independent of any mechanism
run, so the ratio numerator and denominator stay uncorrelated unless the
caller explicitly pairs them.

``mean_se`` and ``ratio_se`` are the lab's one rule for a mean's standard
error and for a ratio of two means with its delta-method standard error;
the checks and the campaign aggregates use them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DistributionSpec

__all__ = [
    "OptEstimate",
    "mean_se",
    "ratio_se",
    "larger_bound",
    "expected_worst_best",
    "expected_average_best",
    "opt_reference",
    "reduced_machine_count",
]


@dataclass(frozen=True)
class OptEstimate:
    kind: str  # "worst-best" | "average-best" | "max-of-both"
    machines_used: int
    mean: float
    standard_error: float
    trials: int

    def __post_init__(self):
        if self.mean < 0 or self.standard_error < 0 or self.trials < 1:
            raise ValueError("estimate requires mean >= 0, se >= 0, trials >= 1")


def _spec_list(specs, n: int) -> list[DistributionSpec]:
    if n < 1:
        raise ValueError("need n >= 1")
    if isinstance(specs, DistributionSpec):
        return [specs] * n
    specs = list(specs)
    if len(specs) != n:
        raise ValueError(f"need one spec per job: got {len(specs)} for n={n}")
    return specs


def _per_trial_stats(specs, n, machines, trials, rng):
    """Per-trial (max over jobs, sum over jobs) of each job's m'-fold minimum."""
    worst = np.full(trials, -np.inf)
    total = np.zeros(trials)
    for spec in _spec_list(specs, n):
        best = spec.sample(rng, (trials, machines)).min(axis=1)
        np.maximum(worst, best, out=worst)
        total += best
    return worst, total


def mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1)/sqrt(n); the error is
    0.0 for a single sample."""
    trials = samples.size
    se = float(np.std(samples, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(samples.mean()), se


def ratio_se(num_mean: float, num_se: float, den_mean: float, den_se: float) -> tuple[float, float]:
    """num_mean / den_mean and its standard error for independent estimates:
    the ratio times the hypot of the relative errors, a zero numerator
    contributing none.  A zero denominator raises ``ValueError``."""
    if not den_mean:
        raise ValueError("ratio undefined: the denominator's mean is zero")
    ratio = num_mean / den_mean
    rel = math.hypot(num_se / num_mean if num_mean else 0.0, den_se / den_mean)
    return ratio, abs(ratio) * rel


def _estimate(kind, machines, samples) -> OptEstimate:
    mean, se = mean_se(samples)
    return OptEstimate(kind, machines, mean, se, samples.size)


def larger_bound(
    machines: int, worst: np.ndarray, average: np.ndarray
) -> tuple[OptEstimate, str, np.ndarray]:
    """The larger of the two bounds from their per-trial samples on
    ``machines`` machines: its "max-of-both" estimate, its kind and its
    samples.  The worst-best bound wins a tie."""
    wb = _estimate("worst-best", machines, worst)
    ab = _estimate("average-best", machines, average)
    larger, samples = (wb, worst) if wb.mean >= ab.mean else (ab, average)
    both = OptEstimate("max-of-both", machines, larger.mean, larger.standard_error, larger.trials)
    return both, larger.kind, samples


def expected_worst_best(
    specs, n: int, machines: int, trials: int, rng: np.random.Generator
) -> OptEstimate:
    """E[max over jobs of each job's best runtime on `machines` machines]."""
    if machines < 1 or trials < 1:
        raise ValueError("need machines >= 1 and trials >= 1")
    worst, _ = _per_trial_stats(specs, n, machines, trials, rng)
    return _estimate("worst-best", machines, worst)


def expected_average_best(
    specs, n: int, machines: int, trials: int, rng: np.random.Generator
) -> OptEstimate:
    """E[sum of best runtimes] divided by the (reduced) machine count."""
    if machines < 1 or trials < 1:
        raise ValueError("need machines >= 1 and trials >= 1")
    _, total = _per_trial_stats(specs, n, machines, trials, rng)
    return _estimate("average-best", machines, total / machines)


def reduced_machine_count(m: int, delta: float) -> int:
    """round(delta * m), half away from zero; errors unless delta lies in
    (0, 1] and delta * m >= 1."""
    if not (0 < delta <= 1):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    raw = delta * m
    if raw < 1.0 - 1e-12:
        raise ValueError(f"delta*m = {raw:.3g} < 1: the reduced count needs at least one machine")
    return int(math.floor(raw + 0.5))


def opt_reference(
    specs, n: int, m: int, delta: float, trials: int, rng: np.random.Generator
) -> OptEstimate:
    """The larger of the two bounds on round(delta * m) machines."""
    machines = reduced_machine_count(m, delta)
    worst, total = _per_trial_stats(specs, n, machines, trials, rng)
    return larger_bound(machines, worst, total / machines)[0]
