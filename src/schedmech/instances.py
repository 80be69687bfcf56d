"""Realized scheduling instances: an n-by-m matrix of job runtimes.

Entry ``(j, i)`` is the runtime of job ``j`` on machine ``i``.  Each job's
runtimes are i.i.d. across machines (machine-symmetric prior), drawn from
that job's own distribution.  Instances are immutable after sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import DistributionSpec

__all__ = [
    "Instance",
    "sample_instance",
    "runtime_sampler",
    "rank_runtime",
    "preference_order",
]


@dataclass(frozen=True, eq=False)
class Instance:
    runtimes: np.ndarray
    specs: tuple[DistributionSpec, ...]

    def __post_init__(self):
        rt = np.asarray(self.runtimes, dtype=float)
        if rt.ndim != 2 or rt.shape[0] < 1 or rt.shape[1] < 1:
            raise ValueError("runtimes must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(rt)) or np.any(rt < 0):
            raise ValueError("runtimes must be finite and nonnegative")
        if len(self.specs) != rt.shape[0]:
            raise ValueError("need exactly one distribution spec per job")
        rt = rt.copy()
        rt.setflags(write=False)
        object.__setattr__(self, "runtimes", rt)
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def n(self) -> int:
        return self.runtimes.shape[0]

    @property
    def m(self) -> int:
        return self.runtimes.shape[1]


def sample_instance(
    specs: Sequence[DistributionSpec], m: int, rng: np.random.Generator
) -> Instance:
    """Draw an n-by-m runtime matrix, row j i.i.d. from specs[j]."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("need at least one job spec")
    if m < 1:
        raise ValueError("need at least one machine")
    return Instance(runtime_sampler(specs)(rng, np.empty((len(specs), m))), specs)


def runtime_sampler(
    specs: Sequence[DistributionSpec],
) -> Callable[[np.random.Generator, np.ndarray], np.ndarray]:
    """The draws of :func:`sample_instance`, as a function that fills an
    ``(n, m)`` array from a generator and returns it: one ``(n, m)`` draw
    when every job has the same spec object, else one m-vector per row in
    job order.  The values are not validated."""
    specs = tuple(specs)
    if all(s is specs[0] for s in specs):
        spec = specs[0]

        def fill(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
            out[...] = spec.sample(rng, out.shape)
            return out

    else:

        def fill(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
            for row, spec in zip(out, specs):
                row[...] = spec.sample(rng, row.size)
            return out

    return fill


def rank_runtime(inst: Instance, j: int, r: int) -> float:
    """The r-th smallest entry of job j's row (1-based)."""
    if not (1 <= r <= inst.m):
        raise ValueError(f"rank {r} out of range 1..{inst.m}")
    return float(np.sort(inst.runtimes[j])[r - 1])


def preference_order(inst: Instance, j: int) -> np.ndarray:
    """Machines sorted by job j's runtime, ties to the lowest index."""
    return np.argsort(inst.runtimes[j], kind="stable")
