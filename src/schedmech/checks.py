"""Executable statistical checks for the order-statistic and sieve claims.

Each check turns a probabilistic statement the mechanisms rely on into a
falsifiable Monte Carlo (or exact) test and returns a ``CheckResult`` with
a ``passed`` flag and a ``json_record()`` for reporting:

* ``check_order_stat_dominance`` -- the i-th smallest of m draws is
  stochastically dominated by max(alpha, max of 4^i copies of the minimum
  of m/2 draws), for thresholds at or above the bottom-1/m point alpha.
* ``check_mhr_scaling`` -- a monotone-hazard variable is dominated by
  r times the minimum of r draws.
* ``check_random_copies`` -- E[max over j of (max of K_j copies of W_j)]
  is at most c/(c-1) * E[K] * E[max_j W_j] when every K_j >= c.
* ``check_correlation_gap`` -- decorrelating coordinates (independent
  copies with the same marginals) shrinks the expected maximum by at most
  the factor e/(e-1).
* ``check_opt_ratio_mhr`` -- for monotone-hazard families, the first-best
  bounds on delta*m machines stay within 1/delta^2 of the full-m bounds.
* ``check_min_hazard_identity`` -- the k-fold minimum's hazard rate equals
  k times the base hazard (deterministic identity).
* ``check_sieve_unscheduled`` -- with the count-target reserve tuning the
  sieve leaves at most ~k*m jobs unscheduled on average.

Empirical tail comparisons are judged against two-sided
Dvoretzky-Kiefer-Wolfowitz bands at 99% confidence; moment comparisons get
three standard errors of slack, and the checks that estimate a standard
error refuse fewer than two trials.  The checks are deliberately conservative:
every claim here is provably true, so a failure indicates a bug, and every
dominance check must fail when fed a deliberately falsified claim (see
``empirical_dominance`` and the negative-control tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    DistributionSpec,
    OrderStatQuery,
    alpha_quantile,
    min_of_k_cdf,
    sample_min_of_k,
    sample_order_stat,
)
from .instances import sample_instance
from .mechanisms import derive_reserve, run_sieve
from .optbounds import (
    expected_average_best,
    expected_worst_best,
    mean_se,
    ratio_se,
    reduced_machine_count,
)

__all__ = [
    "CONFIDENCE",
    "dkw_band",
    "CheckResult",
    "CopiesQuery",
    "FiniteJoint",
    "empirical_dominance",
    "check_order_stat_dominance",
    "check_mhr_scaling",
    "check_random_copies",
    "check_correlation_gap",
    "check_opt_ratio_mhr",
    "check_min_hazard_identity",
    "check_sieve_unscheduled",
    "CORRELATION_GAP_BOUND",
]

CONFIDENCE = 0.99
GRID_POINTS = 60
ORDER_STAT_MAX_I = 6  # 4^i copies blow up past this
CORRELATION_GAP_BOUND = math.e / (math.e - 1.0)

# Memory ceiling (in draws) for one sampling block.
_BLOCK_BUDGET = 8_000_000


def dkw_band(trials: int, confidence: float = CONFIDENCE) -> float:
    """Two-sided DKW half-width for one empirical CDF."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


def _tail(sorted_samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    n = sorted_samples.size
    return (n - np.searchsorted(sorted_samples, grid, side="right")) / n


def _grid(lo: float, samples: np.ndarray, points: int = GRID_POINTS) -> np.ndarray:
    hi = float(np.quantile(samples, 0.999))
    if hi <= lo:
        hi = lo + max(1e-9, abs(lo) * 1e-9)
    return np.linspace(lo, hi, max(points, 50))


@dataclass(frozen=True, eq=False)
class CheckResult:
    """One check's outcome: the claim's id and parameters, the trials it
    drew (0 for an exact check), its named statistics, the slack ``band``
    it was judged with, and whether it passed."""

    lemma_id: str
    params: dict
    trials: int
    statistics: dict
    band: float
    passed: bool

    def json_record(self) -> dict:
        """The result as JSON-ready data, numpy arrays as lists."""
        return {
            "lemma_id": self.lemma_id,
            "parameters": self.params,
            "trials": self.trials,
            "statistics": {
                key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in self.statistics.items()
            },
            "band": self.band,
            "pass": self.passed,
        }


def _need_se_trials(trials: int) -> None:
    if trials < 2:
        raise ValueError("a standard error needs trials >= 2")


def empirical_dominance(
    lemma_id: str,
    params: dict,
    lhs_samples: np.ndarray,
    rhs_samples: np.ndarray,
    grid: np.ndarray,
    confidence: float = CONFIDENCE,
    notes: dict | None = None,
) -> CheckResult:
    """Judge "lhs stochastically dominated by rhs" on an explicit grid.

    Its statistics are the grid ``t_grid``, both empirical tails, and
    ``max_violation``, the largest lhs_tail - rhs_tail - 2 * band over the
    grid, with ``notes`` merged in; the claim passes when ``max_violation``
    is nonpositive.
    """
    lhs_samples = np.sort(np.asarray(lhs_samples, dtype=float))
    rhs_samples = np.sort(np.asarray(rhs_samples, dtype=float))
    if lhs_samples.size != rhs_samples.size:
        raise ValueError("dominance comparison expects equal sample counts per side")
    trials = lhs_samples.size
    band = dkw_band(trials, confidence)
    lhs_tail = _tail(lhs_samples, grid)
    rhs_tail = _tail(rhs_samples, grid)
    violation = lhs_tail - rhs_tail - 2.0 * band
    max_violation = float(violation.max())
    return CheckResult(
        lemma_id=lemma_id,
        params=params,
        trials=trials,
        statistics={
            "t_grid": np.asarray(grid, dtype=float),
            "lhs_tail": lhs_tail,
            "rhs_tail": rhs_tail,
            "max_violation": max_violation,
            **(notes or {}),
        },
        band=band,
        passed=max_violation <= 0.0,
    )


def _sample_chunked(draw_block, trials: int, per_trial_cost: int) -> np.ndarray:
    """Fill `trials` samples in memory-bounded blocks via draw_block(count)."""
    block = max(1, _BLOCK_BUDGET // max(per_trial_cost, 1))
    out = np.empty(trials)
    start = 0
    while start < trials:
        stop = min(trials, start + block)
        out[start:stop] = draw_block(stop - start)
        start = stop
    return out


def check_order_stat_dominance(
    spec: DistributionSpec,
    m: int,
    i: int,
    trials: int,
    rng: np.random.Generator,
) -> CheckResult:
    """The i-th of m draws vs max(alpha, max of 4^i minima of m/2 draws)."""
    if m < 2:
        raise ValueError("need m >= 2")
    if not (1 <= i <= m):
        raise ValueError("need 1 <= i <= m")
    if i > ORDER_STAT_MAX_I:
        raise ValueError(f"budget guard: i <= {ORDER_STAT_MAX_I} (4^i copies explode)")
    half = m // 2
    copies = 4**i
    alpha = alpha_quantile(spec, m)

    query = OrderStatQuery(spec, i, m)
    lhs = _sample_chunked(lambda c: sample_order_stat(query, rng, c), trials, 1)
    rhs = _sample_chunked(
        lambda c: np.maximum(alpha, sample_min_of_k(spec, half, rng, (c, copies)).max(axis=1)),
        trials,
        copies,
    )

    grid = _grid(alpha, np.concatenate([lhs, rhs]))
    report = empirical_dominance(
        "order-stat-dominance",
        {"spec": spec.spec_string, "m": m, "i": i, "alpha": alpha, "half_draws": half},
        lhs,
        rhs,
        grid,
    )
    # The threshold point itself sits on the CDF jump for step families, so
    # its result is recorded separately as well.
    stats = report.statistics
    boundary = float(stats["lhs_tail"][0] - stats["rhs_tail"][0] - 2.0 * report.band)
    stats["alpha_point_violation"] = boundary
    if m % 2 == 1:
        stats["odd_m_half"] = half
    return report


def check_mhr_scaling(
    spec: DistributionSpec,
    r: int,
    trials: int,
    rng: np.random.Generator,
) -> CheckResult:
    """A monotone-hazard draw vs r times the minimum of r draws."""
    if not spec.mhr:
        raise ValueError(f"{spec.spec_string} is not a monotone-hazard-rate family")
    if r < 1:
        raise ValueError("need r >= 1")
    lhs = np.asarray(spec.sample(rng, trials), dtype=float)
    rhs = r * np.asarray(sample_min_of_k(spec, r, rng, trials), dtype=float)
    pooled = np.concatenate([lhs, rhs])
    grid = _grid(float(pooled.min()), pooled)
    return empirical_dominance(
        "mhr-scaling",
        {"spec": spec.spec_string, "r": r},
        lhs,
        rhs,
        grid,
    )


@dataclass(frozen=True)
class CopiesQuery:
    """Random copy counts K_j (integer, all >= c) paired with sizes W_j."""

    k_values: tuple[int, ...]
    k_probs: tuple[float, ...]
    w_spec: DistributionSpec
    c: float
    n: int

    def __post_init__(self):
        if len(self.k_values) != len(self.k_probs) or not self.k_values:
            raise ValueError("k_values and k_probs must be nonempty and aligned")
        if abs(sum(self.k_probs) - 1.0) > 1e-9 or min(self.k_probs) < 0:
            raise ValueError("k_probs must be a probability vector")
        if not (self.c > 1):
            raise ValueError("need c > 1")
        if min(self.k_values) < self.c:
            raise ValueError("support of the copy counts must sit at or above c")
        if self.n < 1:
            raise ValueError("need n >= 1")

    @property
    def mean_k(self) -> float:
        return float(sum(v * p for v, p in zip(self.k_values, self.k_probs)))


def check_random_copies(
    query: CopiesQuery, trials: int, rng: np.random.Generator
) -> CheckResult:
    """E[max_j (max of K_j copies of W_j)] vs c/(c-1) * E[K] * E[max_j W_j]."""
    _need_se_trials(trials)
    n = query.n
    k_values = np.asarray(query.k_values)
    k_max = int(k_values.max())

    def lhs_block(count: int) -> np.ndarray:
        ks = rng.choice(k_values, size=(count, n), p=query.k_probs)
        draws = np.asarray(query.w_spec.sample(rng, (count, n, k_max)), dtype=float)
        mask = np.arange(k_max)[None, None, :] < ks[:, :, None]
        return np.where(mask, draws, -np.inf).max(axis=2).max(axis=1)

    lhs_mean, lhs_se = mean_se(_sample_chunked(lhs_block, trials, n * k_max))

    w_max = _sample_chunked(
        lambda c: np.asarray(query.w_spec.sample(rng, (c, n)), dtype=float).max(axis=1),
        trials,
        n,
    )
    factor = query.c / (query.c - 1.0) * query.mean_k
    w_mean, w_se = mean_se(w_max)
    rhs_mean, rhs_se = factor * w_mean, factor * w_se

    slack = 3.0 * math.hypot(lhs_se, rhs_se)
    return CheckResult(
        lemma_id="random-copies",
        params={
            "k_values": list(query.k_values),
            "k_probs": list(query.k_probs),
            "w_spec": query.w_spec.spec_string,
            "c": query.c,
            "n": n,
        },
        trials=trials,
        statistics={"lhs_mean": lhs_mean, "lhs_se": lhs_se, "rhs_mean": rhs_mean, "rhs_se": rhs_se},
        band=slack,
        passed=lhs_mean <= rhs_mean + slack,
    )


@dataclass(frozen=True, eq=False)
class FiniteJoint:
    """A finite joint distribution over (X_1, ..., X_n): outcome rows + probs."""

    outcomes: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        outcomes = np.atleast_2d(np.asarray(self.outcomes, dtype=float))
        probs = np.asarray(self.probs, dtype=float)
        if outcomes.shape[0] != probs.size:
            raise ValueError("one probability per outcome row required")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be a probability vector")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.outcomes.shape[1]


def _independent_max_mean(joint: FiniteJoint) -> float:
    """E[max of independent copies of the marginals], computed exactly.

    Uses P(max <= v) = prod_i P(X_i <= v) over the union of support values,
    so no product-space enumeration is needed.
    """
    values = np.unique(joint.outcomes)
    cdf = np.ones(values.size)
    for i in range(joint.n):
        coord = joint.outcomes[:, i]
        cdf *= (joint.probs[None, :] * (coord[None, :] <= values[:, None])).sum(axis=1)
    pmf = np.diff(np.concatenate([[0.0], cdf]))
    return float(values @ pmf)


def check_correlation_gap(
    joint: FiniteJoint,
    mode: str = "exact",
    trials: int | None = None,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
) -> CheckResult:
    """E[max under the joint] vs E[max under independent marginals].

    The ratio must not exceed e/(e-1).  Exact mode enumerates; Monte Carlo
    mode samples both sides and widens the pass threshold by 3 ratio-SEs.
    """
    if mode not in ("exact", "mc"):
        raise ValueError("mode must be 'exact' or 'mc'")
    max_x = joint.outcomes.max(axis=1)
    if mode == "exact":
        e_x, se_x = float(joint.probs @ max_x), 0.0
        e_y, se_y = _independent_max_mean(joint), 0.0
        used = 0
    else:
        if trials is None or rng is None:
            raise ValueError("mc mode needs trials and rng")
        _need_se_trials(trials)
        idx = rng.choice(joint.probs.size, size=trials, p=joint.probs)
        x_samples = max_x[idx]
        y_samples = np.full(trials, -np.inf)
        for i in range(joint.n):
            idx_i = rng.choice(joint.probs.size, size=trials, p=joint.probs)
            np.maximum(y_samples, joint.outcomes[idx_i, i], out=y_samples)
        (e_x, se_x), (e_y, se_y) = mean_se(x_samples), mean_se(y_samples)
        used = trials
    ratio, se = ratio_se(e_x, se_x, e_y, se_y)
    return CheckResult(
        lemma_id="correlation-gap",
        params={"n": joint.n, "outcomes": joint.outcomes.shape[0], "mode": mode},
        trials=used,
        statistics={
            "ratio": ratio,
            "bound": CORRELATION_GAP_BOUND,
            "se": se,
            "e_max_joint": e_x,
            "e_max_independent": e_y,
        },
        band=3.0 * se,
        passed=ratio <= CORRELATION_GAP_BOUND + tol + 3.0 * se,
    )


def check_opt_ratio_mhr(
    spec: DistributionSpec,
    n: int,
    m: int,
    delta: float,
    trials: int,
    rng: np.random.Generator,
) -> CheckResult:
    """Reduced-machine bounds vs full-machine bounds, capped at 1/delta^2."""
    if not spec.mhr:
        raise ValueError(f"{spec.spec_string} is not a monotone-hazard-rate family")
    reduced = reduced_machine_count(m, delta)
    _need_se_trials(trials)
    wb_r = expected_worst_best(spec, n, reduced, trials, rng)
    wb_f = expected_worst_best(spec, n, m, trials, rng)
    ab_r = expected_average_best(spec, n, reduced, trials, rng)
    ab_f = expected_average_best(spec, n, m, trials, rng)
    worst_ratio, worst_se = ratio_se(wb_r.mean, wb_r.standard_error, wb_f.mean, wb_f.standard_error)
    avg_ratio, avg_se = ratio_se(ab_r.mean, ab_r.standard_error, ab_f.mean, ab_f.standard_error)
    bound = 1.0 / delta**2
    passed = (worst_ratio <= bound + 3 * worst_se) and (avg_ratio <= bound + 3 * avg_se)
    return CheckResult(
        lemma_id="opt-ratio-mhr",
        params={"spec": spec.spec_string, "n": n, "m": m, "delta": delta},
        trials=trials,
        statistics={
            "worst_ratio": worst_ratio,
            "worst_se": worst_se,
            "average_ratio": avg_ratio,
            "average_se": avg_se,
            "bound": bound,
        },
        band=3 * max(worst_se, avg_se),
        passed=passed,
    )


def check_min_hazard_identity(
    spec: DistributionSpec,
    k: int,
    t_grid: Sequence[float],
    tol: float = 1e-10,
) -> CheckResult:
    """Hazard implied by the k-fold-minimum CDF vs k times the base hazard.

    Grid points must keep the k-fold minimum's survival well away from zero:
    recovering 1 - F_k from the returned CDF loses the identity to float
    cancellation in the far tail.
    """
    if not spec.has_hazard:
        raise ValueError(f"{spec.spec_string} has no closed-form hazard rate")
    t = np.asarray(t_grid, dtype=float)
    base_cdf = np.asarray(spec.cdf(t), dtype=float)
    survival_k = 1.0 - np.asarray(min_of_k_cdf(spec, k, t), dtype=float)
    if np.any(survival_k <= 0) or np.any(base_cdf >= 1):
        raise ValueError("grid extends past the support; pick interior points")
    implied = k * (1.0 - base_cdf) ** (k - 1) * np.asarray(spec.pdf(t), dtype=float) / survival_k
    expected = k * np.asarray(spec.hazard(t), dtype=float)
    rel = np.abs(implied - expected) / expected
    max_rel = float(rel.max())
    return CheckResult(
        lemma_id="min-hazard-identity",
        params={"spec": spec.spec_string, "k": k, "grid_points": int(t.size)},
        trials=0,
        statistics={"max_rel_error": max_rel},
        band=tol,
        passed=max_rel <= tol,
    )


def check_sieve_unscheduled(
    spec: DistributionSpec,
    n: int,
    m: int,
    k: float,
    trials: int,
    rng: np.random.Generator,
) -> CheckResult:
    """Mean unscheduled count under the count-target reserve vs k*m."""
    _need_se_trials(trials)
    beta = derive_reserve(spec, n, m, rule="count-target", k=k)
    counts = np.empty(trials)
    specs = [spec] * n
    for t in range(trials):
        inst = sample_instance(specs, m, rng)
        counts[t] = run_sieve(inst, beta, compute_payments=False).schedule.n_unscheduled
    mean, se = mean_se(counts)
    bound = k * m
    return CheckResult(
        lemma_id="sieve-unscheduled",
        params={"spec": spec.spec_string, "n": n, "m": m, "k": k, "beta": beta},
        trials=trials,
        statistics={"mean": mean, "se": se, "bound": bound},
        band=3.0 * se,
        passed=mean <= bound + 3.0 * se,
    )
