"""Job-size distribution families: samplers, CDFs, order statistics.

Five families cover the regimes the scheduling mechanisms care about:

* :class:`Exponential` and :class:`Uniform` -- continuous families whose
  hazard rate ``h(x) = f(x) / (1 - F(x))`` is nondecreasing.
* :class:`Pareto` -- heavy-tailed stress case; its hazard rate decreases,
  so it is deliberately outside the monotone-hazard class.
* :class:`TwoPoint` -- atoms at a low and a high value; exercises the
  step-CDF handling everywhere quantiles appear.
* :class:`Empirical` -- file-driven sample set with the usual step CDF.

All specs are immutable and freely shareable across threads.  Sampling
always draws from a caller-owned :class:`numpy.random.Generator`; there is
no hidden global randomness.  Compact string forms (``exp:1.0``,
``uniform:0,1``, ``pareto:2,1``, ``twopoint:1,10,0.5``, ``empirical:PATH``)
round-trip through :func:`parse_distribution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DistributionSpec",
    "Exponential",
    "Uniform",
    "Pareto",
    "TwoPoint",
    "Empirical",
    "OrderStatQuery",
    "MinEstimate",
    "parse_distribution",
    "sample_min_of_k",
    "sample_order_stat",
    "expected_min",
    "alpha_quantile",
    "min_of_k_cdf",
    "DEFAULT_MC_TRIALS",
]

# Default Monte Carlo budget for expected_min on families without a closed form.
DEFAULT_MC_TRIALS = 100_000


class DistributionSpec:
    """Base class for job-size distributions.

    Subclasses provide ``cdf``, ``quantile`` (the generalized inverse
    ``inf{z : F(z) >= u}``), and ``sample``.  Families with a density also
    provide ``pdf`` and ``hazard``.
    """

    family: str = "?"
    is_continuous: bool = False

    @property
    def mhr(self) -> bool:
        """True only when the hazard rate is certifiably nondecreasing."""
        raise NotImplementedError

    @property
    def has_hazard(self) -> bool:
        """Whether ``pdf`` and ``hazard`` have closed forms."""
        return False

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def spec_string(self) -> str:
        raise NotImplementedError

    def cdf(self, t):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def pdf(self, t):
        raise ValueError(f"{self.family} has no closed-form density")

    def hazard(self, t):
        raise ValueError(f"{self.family} has no closed-form hazard rate")

    def __str__(self) -> str:
        return self.spec_string


@dataclass(frozen=True)
class Exponential(DistributionSpec):
    rate: float

    family = "exponential"
    is_continuous = True

    def __post_init__(self):
        if not (self.rate > 0):
            raise ValueError("exponential rate must be positive")

    @property
    def mhr(self) -> bool:
        return True  # constant hazard

    @property
    def has_hazard(self) -> bool:
        return True

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def spec_string(self) -> str:
        return f"exp:{self.rate!r}"

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            return -np.log1p(-u) / self.rate

    def sample(self, rng, size=None):
        return rng.standard_exponential(size) * (1.0 / self.rate)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)))

    def hazard(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0, 0.0, self.rate)


@dataclass(frozen=True)
class Uniform(DistributionSpec):
    lo: float
    hi: float

    family = "uniform"
    is_continuous = True

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise ValueError("uniform requires 0 <= lo < hi")

    @property
    def mhr(self) -> bool:
        return True  # h(x) = 1/(hi - x) is increasing

    @property
    def has_hazard(self) -> bool:
        return True

    @property
    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def spec_string(self) -> str:
        return f"uniform:{self.lo!r},{self.hi!r}"

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.lo + u * (self.hi - self.lo)

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.lo) & (t <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def hazard(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.lo) & (t < self.hi)
        with np.errstate(divide="ignore"):
            return np.where(inside, 1.0 / (self.hi - t), np.where(t < self.lo, 0.0, np.inf))


@dataclass(frozen=True)
class Pareto(DistributionSpec):
    shape: float
    scale: float

    family = "pareto"
    is_continuous = True

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("pareto requires shape > 0 and scale > 0")

    @property
    def mhr(self) -> bool:
        return False  # h(x) = shape/x decreases

    @property
    def has_hazard(self) -> bool:
        return True

    @property
    def mean(self) -> float:
        if self.shape <= 1:
            return math.inf
        return self.shape * self.scale / (self.shape - 1)

    @property
    def spec_string(self) -> str:
        return f"pareto:{self.shape!r},{self.scale!r}"

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            tail = (self.scale / np.maximum(t, self.scale)) ** self.shape
        return np.where(t < self.scale, 0.0, 1.0 - tail)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            return self.scale * (1.0 - u) ** (-1.0 / self.shape)

    def sample(self, rng, size=None):
        return self.quantile(rng.random(size))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        safe = np.maximum(t, self.scale)
        val = self.shape * self.scale**self.shape / safe ** (self.shape + 1)
        return np.where(t < self.scale, 0.0, val)

    def hazard(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.scale, 0.0, self.shape / np.maximum(t, self.scale))


@dataclass(frozen=True)
class TwoPoint(DistributionSpec):
    low: float
    high: float
    p_high: float

    family = "two-point"
    is_continuous = False

    def __post_init__(self):
        if not (0 <= self.low < self.high):
            raise ValueError("two-point requires 0 <= low < high")
        if not (0 <= self.p_high <= 1):
            raise ValueError("two-point requires p_high in [0, 1]")

    @property
    def mhr(self) -> bool:
        # Only the degenerate single-atom cases behave like a monotone-hazard
        # distribution under the scaling relation r * (min of r draws); a
        # genuine two-atom mixture violates it (check at t just above the
        # scaled low atom), so the flag stays off for 0 < p_high < 1.
        return self.p_high in (0.0, 1.0)

    @property
    def mean(self) -> float:
        return self.low * (1 - self.p_high) + self.high * self.p_high

    @property
    def spec_string(self) -> str:
        return f"twopoint:{self.low!r},{self.high!r},{self.p_high!r}"

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t < self.low, 0.0, np.where(t < self.high, 1.0 - self.p_high, 1.0))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= 1.0 - self.p_high, self.low, self.high)

    def sample(self, rng, size=None):
        draws = np.where(rng.random(size) < self.p_high, self.high, self.low)
        return float(draws) if size is None else draws


@dataclass(frozen=True, eq=False)
class Empirical(DistributionSpec):
    values: np.ndarray
    path: str | None = None

    family = "empirical"
    is_continuous = False

    def __post_init__(self):
        vals = np.sort(np.asarray(self.values, dtype=float))
        if vals.size == 0:
            raise ValueError("empirical sample must be nonempty")
        if not np.all(np.isfinite(vals)) or vals[0] < 0:
            raise ValueError("empirical sample must be finite and nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        cum = np.arange(1, vals.size + 1) / vals.size
        cum.setflags(write=False)
        object.__setattr__(self, "_cum", cum)

    @property
    def mhr(self) -> bool:
        return bool(self.values[0] == self.values[-1])

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def spec_string(self) -> str:
        if self.path is None:
            raise ValueError("empirical spec without a source path has no string form")
        return f"empirical:{self.path}"

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return np.searchsorted(self.values, t, side="right") / self.values.size

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.minimum(np.searchsorted(self._cum, u, side="left"), self.values.size - 1)
        return self.values[idx]

    def sample(self, rng, size=None):
        idx = rng.integers(0, self.values.size, size)
        draws = self.values[idx]
        return float(draws) if size is None else draws


def parse_distribution(text: str) -> DistributionSpec:
    """Parse a compact spec string into a distribution.

    Grammar: ``exp:RATE``, ``uniform:LO,HI``, ``pareto:SHAPE,SCALE``,
    ``twopoint:LOW,HIGH,PHI``, ``empirical:PATH`` where PATH names a file of
    newline-separated nonnegative decimals.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed distribution spec {text!r}")
    head = head.strip().lower()
    if head == "exp":
        return Exponential(float(body))
    if head == "uniform":
        lo, hi = (float(x) for x in body.split(","))
        return Uniform(lo, hi)
    if head == "pareto":
        shape, scale = (float(x) for x in body.split(","))
        return Pareto(shape, scale)
    if head == "twopoint":
        low, high, p_high = (float(x) for x in body.split(","))
        return TwoPoint(low, high, p_high)
    if head == "empirical":
        path = body.strip()
        lines = Path(path).read_text().split()
        return Empirical(np.array([float(x) for x in lines]), path=path)
    raise ValueError(f"unknown distribution family {head!r}")


@dataclass(frozen=True)
class OrderStatQuery:
    """The i-th smallest of k i.i.d. draws from ``spec`` (1-based rank)."""

    spec: DistributionSpec
    i: int
    k: int

    def __post_init__(self):
        if not (1 <= self.i <= self.k):
            raise ValueError("order statistic requires 1 <= i <= k")


def sample_min_of_k(spec: DistributionSpec, k: int, rng: np.random.Generator, size=None):
    """Draw the minimum of ``k`` i.i.d. draws.

    Continuous strictly-increasing CDFs use the one-uniform inverse-CDF
    shortcut ``Q(1 - (1 - U)^(1/k))``; step CDFs draw the k values literally
    so no inverse-function edge case can bias the atoms.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if spec.is_continuous:
        u = rng.random(size)
        out = spec.quantile(1.0 - (1.0 - u) ** (1.0 / k))
        return float(out) if size is None else out
    if size is None:
        return float(np.min(spec.sample(rng, (k,))))
    shape = (size,) if np.isscalar(size) else tuple(size)
    return spec.sample(rng, shape + (k,)).min(axis=-1)


def sample_order_stat(q: OrderStatQuery, rng: np.random.Generator, size=None):
    """Draw the i-th smallest of k draws, distributionally exact."""
    if q.i == 1:
        return sample_min_of_k(q.spec, q.k, rng, size)
    if size is None:
        draws = q.spec.sample(rng, (q.k,))
        return float(np.partition(draws, q.i - 1)[q.i - 1])
    shape = (size,) if np.isscalar(size) else tuple(size)
    draws = q.spec.sample(rng, shape + (q.k,))
    return np.partition(draws, q.i - 1, axis=-1)[..., q.i - 1]


@dataclass(frozen=True)
class MinEstimate:
    """Point estimate of E[min of k draws], with its standard error.

    ``exact`` estimates carry a zero standard error and ignored trial count.
    """

    value: float
    standard_error: float
    trials: int
    exact: bool


def expected_min(
    spec: DistributionSpec,
    k: int,
    trials: int | None = None,
    rng: np.random.Generator | None = None,
) -> MinEstimate:
    """The reserve statistic: E[minimum of k i.i.d. draws].

    Exponential, uniform and two-point admit closed forms and return exact
    values.  Pareto and empirical are estimated by Monte Carlo with a
    caller-supplied trial budget (default ``DEFAULT_MC_TRIALS``) and require
    a random generator.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(spec, Exponential):
        return MinEstimate(1.0 / (k * spec.rate), 0.0, 0, True)
    if isinstance(spec, Uniform):
        return MinEstimate(spec.lo + (spec.hi - spec.lo) / (k + 1), 0.0, 0, True)
    if isinstance(spec, TwoPoint):
        # min of k draws is `high` only when every draw is high
        value = spec.low + (spec.high - spec.low) * spec.p_high**k
        return MinEstimate(value, 0.0, 0, True)
    if trials is None:
        trials = DEFAULT_MC_TRIALS
    if trials <= 0:
        raise ValueError(f"{spec.family} has no closed form; a Monte Carlo budget is required")
    if rng is None:
        raise ValueError(f"{spec.family} has no closed form; a random generator is required")
    samples = sample_min_of_k(spec, k, rng, trials)
    return MinEstimate(
        float(np.mean(samples)),
        float(np.std(samples, ddof=1) / math.sqrt(trials)),
        trials,
        False,
    )


def alpha_quantile(spec: DistributionSpec, m: int) -> float:
    """sup{z : Pr[X <= z] < 1/m}, the bottom-1/m threshold of the family.

    Equals the 1/m quantile for continuous invertible CDFs; for step CDFs it
    lands exactly on the smallest atom whose CDF reaches 1/m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return float(spec.quantile(1.0 / m))


def min_of_k_cdf(spec: DistributionSpec, k: int, t):
    """CDF of the k-fold minimum: 1 - (1 - F(t))^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    base = np.asarray(spec.cdf(t), dtype=float)
    out = 1.0 - (1.0 - base) ** k
    return float(out) if out.ndim == 0 else out
