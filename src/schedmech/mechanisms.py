"""Truthful scheduling mechanisms and their Clarke payments.

Four mechanisms, all dominant-strategy incentive compatible because each is
an exact total-work minimizer over a fixed outcome range:

* minimum work -- every job on its cheapest machine; payments are the
  classic externality pivot.
* bounded overload -- minimum work restricted to at most ``ceil(c * n/m)``
  jobs per machine (overload factor ``c > 1``).
* sieve -- minimum work with a dummy machine of per-job runtime ``beta``;
  dummy-assigned jobs count as unscheduled.
* sieve + bounded overload -- machines are split into a sieve set of size
  ``ceil((1 - delta) * m)`` and an overload set holding the remainder; the
  sieve runs first, then bounded overload schedules its leftovers on the
  second set.  Payments are stage-local: a machine's pivot removes it from
  its own stage only.

Every pivot excludes the machine from the range rather than faking an
infinite report; an infeasible pivot raises :class:`PaymentInfeasibleError`
with the schedule attached instead of silently paying zero.

Also here: the last-entry diagnostic (schedule everyone else, then walk the
held-out job down its preference list to the first machine with a free
slot), the capped-geometric rank model it is compared against, and a
falsification-style incentive audit over a finite misreport grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .assignment import (
    UNSCHEDULED,
    InfeasibleError,
    RangeConstraint,
    Schedule,
    schedule_from_assignment,
    schedule_objective,
    solve_min_work,
)
from .distributions import DistributionSpec, expected_min
from .instances import Instance, preference_order

__all__ = [
    "MECHANISM_KINDS",
    "RESERVE_RULES",
    "MechanismConfig",
    "Outcome",
    "PaymentInfeasibleError",
    "IcViolation",
    "overload_cap",
    "partition_sizes",
    "run_minimum_work",
    "run_bounded_overload",
    "run_sieve",
    "run_sieve_bounded_overload",
    "run_mechanism",
    "derive_reserve",
    "default_partition",
    "last_entry_rank",
    "geometric_rank_pmf",
    "sample_geometric_rank",
    "ic_audit",
    "misreport_columns",
]

MECHANISM_KINDS = ("minimum-work", "bounded-overload", "sieve", "sieve-bounded-overload")

# Reserve tunings: how to derive beta from the job-size distribution.
#   sqrt-log      beta = n/(m ln m) * E[min of round(delta/2 * m) draws]
#   log-log       beta = 2n/(m ln m) * E[min of round(delta/2 * m) draws]
#   count-target  beta = n/(k m) * E[min of m draws]  (aims at ~k*m unscheduled)
RESERVE_RULES = ("sqrt-log", "log-log", "count-target")

GAIN_TOL = 1e-9

# Reported runtime standing in for "infinitely slow" in misreports.
BIG_RUNTIME = 1e15


class PaymentInfeasibleError(RuntimeError):
    """A Clarke pivot has no feasible schedule; carries the chosen schedule."""

    def __init__(self, message: str, schedule: Schedule | None = None):
        super().__init__(message)
        self.schedule = schedule


@dataclass(frozen=True)
class MechanismConfig:
    kind: str
    c: float = 7.0
    beta: float | None = None
    delta: float | None = None
    k: float | None = None

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if not (self.c > 1):
            raise ValueError("overload factor c must exceed 1")
        if self.beta is not None and self.beta < 0:
            raise ValueError("reserve beta must be nonnegative")
        if self.delta is not None and not (0 < self.delta < 1):
            raise ValueError("partition delta must lie in (0, 1)")
        if self.k is not None and not (self.k > 0):
            raise ValueError("sieve parameter k must be positive")

    @property
    def uses_reserve(self) -> bool:
        return self.kind in ("sieve", "sieve-bounded-overload")


@dataclass(frozen=True, eq=False)
class Outcome:
    """A mechanism run: schedule, payments, and placement diagnostics.

    ``ranks[j]`` is the 1-based rank of job j's machine in its preference
    order (restricted to the job's stage for the combined mechanism), or -1
    if unscheduled.  Campaigns never read it, so it is computed by
    ``rank_source`` on first access.  ``stages`` labels each job "sieve" /
    "overload" / "unscheduled" for the combined mechanism and is None
    otherwise.  ``payments`` is None when the caller skipped payment
    computation.
    """

    schedule: Schedule
    payments: np.ndarray | None
    rank_source: Callable[[], np.ndarray] = field(repr=False)
    stages: tuple[str, ...] | None = None

    @cached_property
    def ranks(self) -> np.ndarray:
        return self.rank_source()


def _ceil_tol(x: float, tol: float = 1e-9) -> int:
    """Ceiling that forgives float noise just above an integer."""
    return int(math.ceil(x - tol))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def overload_cap(n: int, m: int, c: float) -> int:
    """Per-machine job bound ceil(c * n / m)."""
    return _ceil_tol(c * n / m)


def partition_sizes(m: int, delta: float) -> tuple[int, int]:
    """(sieve set size, overload set size) for the combined mechanism."""
    m1 = _ceil_tol((1.0 - delta) * m)
    m1 = min(max(m1, 1), m)
    m2 = m - m1
    if m2 < 1:
        raise ValueError(f"overload machine set is empty for delta={delta}, m={m}")
    return m1, m2


def _ranks_within(inst: Instance, assignment: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """1-based preference rank of each job's machine among the pool machines.

    Rank follows the preference order with ties broken toward lower machine
    indices, matching :func:`schedmech.instances.preference_order`.
    """
    ranks = np.full(inst.n, UNSCHEDULED)
    jobs = np.flatnonzero(assignment != UNSCHEDULED)
    if jobs.size == 0:
        return ranks
    sub = inst.runtimes[np.ix_(jobs, pool)]
    own = inst.runtimes[jobs, assignment[jobs]]
    less = (sub < own[:, None]).sum(axis=1)
    eq_before = ((sub == own[:, None]) & (pool[None, :] < assignment[jobs, None])).sum(axis=1)
    ranks[jobs] = 1 + less + eq_before
    return ranks


def _clarke_payments(inst: Instance, rc: RangeConstraint, schedule: Schedule) -> np.ndarray:
    """Externality payment per machine: pivot removes the machine from rc."""
    m = inst.m
    payments = np.zeros(m)
    base = schedule_objective(schedule, rc)
    for i in range(m):
        if i in rc.excluded:
            continue
        if schedule.loads[i] == 0:
            continue  # removing an idle machine changes nothing
        try:
            pivot = solve_min_work(inst, rc.excluding(i))
        except InfeasibleError as exc:
            raise PaymentInfeasibleError(
                f"pivot for machine {i} is infeasible: {exc}", schedule=schedule
            ) from exc
        payments[i] = schedule_objective(pivot, rc) - (base - schedule.works[i])
    return payments


def run_minimum_work(inst: Instance, compute_payments: bool = True) -> Outcome:
    """Unconstrained total-work minimizer with externality payments."""
    rc = RangeConstraint()
    schedule = solve_min_work(inst, rc)
    ranks = partial(_ranks_within, inst, schedule.assignment, np.arange(inst.m))
    payments = _clarke_payments(inst, rc, schedule) if compute_payments else None
    return Outcome(schedule=schedule, payments=payments, rank_source=ranks)


def run_bounded_overload(inst: Instance, c: float = 7.0, compute_payments: bool = True) -> Outcome:
    """Total-work minimizer holding every machine to ceil(c * n/m) jobs."""
    if not (c > 1):
        raise ValueError("overload factor c must exceed 1")
    rc = RangeConstraint(cap=overload_cap(inst.n, inst.m, c))
    schedule = solve_min_work(inst, rc)
    ranks = partial(_ranks_within, inst, schedule.assignment, np.arange(inst.m))
    payments = _clarke_payments(inst, rc, schedule) if compute_payments else None
    return Outcome(schedule=schedule, payments=payments, rank_source=ranks)


def run_sieve(inst: Instance, beta: float, compute_payments: bool = True) -> Outcome:
    """Minimum work with a dummy machine priced at beta per job."""
    if beta < 0:
        raise ValueError("reserve beta must be nonnegative")
    rc = RangeConstraint(reserve=beta)
    schedule = solve_min_work(inst, rc)
    ranks = partial(_ranks_within, inst, schedule.assignment, np.arange(inst.m))
    payments = _clarke_payments(inst, rc, schedule) if compute_payments else None
    return Outcome(schedule=schedule, payments=payments, rank_source=ranks)


def run_sieve_bounded_overload(
    inst: Instance,
    c: float,
    beta: float,
    delta: float,
    compute_payments: bool = True,
) -> Outcome:
    """Sieve on the first machine set, bounded overload on the rest.

    The overload stage caps each of its machines at
    ``max(1, ceil(c * u / m2))`` where ``u`` counts the sieve's unscheduled
    jobs, so every job ends up scheduled by exactly one stage.
    """
    if not (0 < delta < 1):
        raise ValueError("partition delta must lie in (0, 1)")
    n, m = inst.n, inst.m
    m1, m2 = partition_sizes(m, delta)
    set1 = np.arange(0, m1)
    set2 = np.arange(m1, m)

    rc1 = RangeConstraint(reserve=beta, excluded=frozenset(set2.tolist()))
    stage1 = solve_min_work(inst, rc1)
    leftover = np.flatnonzero(stage1.assignment == UNSCHEDULED)

    assignment = np.array(stage1.assignment)
    rc2 = None
    stage2 = None
    sub = None
    if leftover.size:
        cap2 = max(1, _ceil_tol(c * leftover.size / m2))
        sub = Instance(inst.runtimes[leftover], tuple(inst.specs[j] for j in leftover))
        rc2 = RangeConstraint(cap=cap2, excluded=frozenset(set1.tolist()))
        stage2 = solve_min_work(sub, rc2)
        assignment[leftover] = stage2.assignment

    schedule = schedule_from_assignment(inst.runtimes, assignment)

    in_stage2 = np.zeros(n, dtype=bool)
    in_stage2[leftover] = True
    stages = tuple(
        "overload" if in_stage2[j]
        else ("sieve" if assignment[j] != UNSCHEDULED else "unscheduled")
        for j in range(n)
    )

    def ranks() -> np.ndarray:
        out = _ranks_within(inst, np.asarray(stage1.assignment), set1)
        if leftover.size:
            out[leftover] = _ranks_within(sub, np.asarray(stage2.assignment), set2)
        return out

    payments = None
    if compute_payments:
        payments = np.zeros(m)
        base1 = schedule_objective(stage1, rc1)
        for i in set1:
            if schedule.loads[i] == 0:
                continue
            pivot = solve_min_work(inst, rc1.excluding(int(i)))
            payments[i] = schedule_objective(pivot, rc1) - (base1 - stage1.works[i])
        if leftover.size:
            base2 = schedule_objective(stage2, rc2)
            for i in set2:
                if stage2.loads[i] == 0:
                    continue
                try:
                    pivot = solve_min_work(sub, rc2.excluding(int(i)))
                except InfeasibleError as exc:
                    raise PaymentInfeasibleError(
                        f"overload-stage pivot for machine {i} is infeasible: {exc}",
                        schedule=schedule,
                    ) from exc
                payments[i] = schedule_objective(pivot, rc2) - (base2 - stage2.works[i])
    return Outcome(schedule=schedule, payments=payments, rank_source=ranks, stages=stages)


def run_mechanism(config: MechanismConfig, inst: Instance, compute_payments: bool = True) -> Outcome:
    if config.kind == "minimum-work":
        return run_minimum_work(inst, compute_payments)
    if config.kind == "bounded-overload":
        return run_bounded_overload(inst, config.c, compute_payments)
    if config.beta is None:
        raise ValueError(f"{config.kind} requires an explicit reserve beta")
    if config.kind == "sieve":
        return run_sieve(inst, config.beta, compute_payments)
    if config.delta is None:
        raise ValueError("sieve-bounded-overload requires a partition delta")
    return run_sieve_bounded_overload(inst, config.c, config.beta, config.delta, compute_payments)


def derive_reserve(
    spec: DistributionSpec,
    n: int,
    m: int,
    delta: float | None = None,
    rule: str = "sqrt-log",
    k: float | None = None,
    trials: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Reserve beta from the job-size distribution under a named tuning.

    ``trials``/``rng`` feed Monte Carlo estimation of E[min of ...] for
    families without a closed form.
    """
    if rule not in RESERVE_RULES:
        raise ValueError(f"unknown reserve rule {rule!r}")
    if n < 1 or m < 2:
        raise ValueError("reserve derivation needs n >= 1 and m >= 2")
    if rule == "count-target":
        if k is None:
            raise ValueError("count-target rule needs the parameter k")
        if k >= math.log(m):
            warnings.warn(
                f"count-target tuning expects k < ln m (k={k}, ln m={math.log(m):.3f})",
                stacklevel=2,
            )
        tau = expected_min(spec, m, trials=trials, rng=rng).value
        return n * tau / (k * m)
    if delta is None:
        raise ValueError(f"{rule} rule needs the partition delta")
    draws = max(1, _round_half_up(0.5 * delta * m))
    tau = expected_min(spec, draws, trials=trials, rng=rng).value
    beta = n / (m * math.log(m)) * tau
    if rule == "log-log":
        if n < m * math.log(m):
            warnings.warn(
                f"log-log tuning expects n >= m ln m (n={n}, m ln m={m * math.log(m):.1f})",
                stacklevel=2,
            )
        beta *= 2.0
    return beta


def default_partition(rule: str, m: int) -> float:
    """Partition delta conventionally paired with each reserve tuning."""
    if rule == "sqrt-log":
        return 2.0 / 3.0
    if rule == "log-log":
        if m < 16:
            raise ValueError("log-log tuning needs m >= 16 so that ln ln m > 0")
        return 1.0 / math.log(math.log(m))
    raise ValueError(f"no default partition for rule {rule!r}")


def last_entry_rank(inst: Instance, c: float, j: int) -> int:
    """Rank of the first free machine for job j after scheduling the rest.

    Runs bounded overload on every job except j (same cap as the full
    instance), then walks j's preference list to the first machine with a
    free slot.  Pigeonhole keeps the answer at or below ceil(m / c).
    """
    n, m = inst.n, inst.m
    cap = overload_cap(n, m, c)
    others = np.delete(np.arange(n), j)
    if others.size:
        sub = Instance(inst.runtimes[others], tuple(inst.specs[i] for i in others))
        loads = solve_min_work(sub, RangeConstraint(cap=cap)).loads
    else:
        loads = np.zeros(m, dtype=int)
    for rank, machine in enumerate(preference_order(inst, j), start=1):
        if loads[machine] < cap:
            return rank
    raise AssertionError("unreachable: cap * ceil(m/c) >= n guarantees a free slot")


def geometric_rank_pmf(c: float, m: int) -> np.ndarray:
    """PMF of the capped-geometric rank on {1, ..., ceil(m/c)}.

    P(i) = (1 - 1/c) / c^(i-1) below the cap; all residual mass sits on the
    cap index.
    """
    if not (c > 1) or m < 1:
        raise ValueError("need c > 1 and m >= 1")
    cap_index = _ceil_tol(m / c)
    if cap_index <= 1:
        return np.array([1.0])
    i = np.arange(1, cap_index)
    pmf = (1.0 - 1.0 / c) / c ** (i - 1.0)
    return np.append(pmf, 1.0 - pmf.sum())


def sample_geometric_rank(c: float, m: int, rng: np.random.Generator, size=None):
    """Draw from the capped-geometric rank distribution."""
    if not (c > 1) or m < 1:
        raise ValueError("need c > 1 and m >= 1")
    cap_index = _ceil_tol(m / c)
    if cap_index <= 1:
        return 1 if size is None else np.ones(size, dtype=int)
    u = rng.random(size)
    with np.errstate(divide="ignore"):
        raw = np.floor(-np.log(u) / math.log(c)) + 1.0
    ranks = np.minimum(raw, cap_index).astype(int)
    return int(ranks) if size is None else ranks


@dataclass(frozen=True)
class IcViolation:
    machine: int
    misreport: str
    truthful_utility: float
    deviant_utility: float

    @property
    def gain(self) -> float:
        return self.deviant_utility - self.truthful_utility


def misreport_columns(true_column: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The audit's candidate reports: scalings, a huge sentinel, and swaps.

    The truthful column (scale 1) is always included so the audit verifies
    its own zero-gain baseline.
    """
    candidates: list[tuple[str, np.ndarray]] = []
    for f in (1.0, 0.0, 0.25, 0.5, 2.0, 4.0):
        candidates.append((f"scale:{f}", f * true_column))
    candidates.append(("sentinel", np.full_like(true_column, BIG_RUNTIME)))
    n = true_column.size
    for a in range(n):
        for b in range(a + 1, n):
            col = true_column.copy()
            col[a], col[b] = col[b], col[a]
            candidates.append((f"swap:{a},{b}", col))
    return candidates


def _machine_stage_problem(
    config: MechanismConfig, inst: Instance, machine: int
) -> tuple[np.ndarray, RangeConstraint]:
    """The (job set, range) that machine's stage optimizes over."""
    n, m = inst.n, inst.m
    all_jobs = np.arange(n)
    if config.kind == "minimum-work":
        return all_jobs, RangeConstraint()
    if config.kind == "bounded-overload":
        return all_jobs, RangeConstraint(cap=overload_cap(n, m, config.c))
    if config.beta is None:
        raise ValueError(f"{config.kind} requires an explicit reserve beta")
    if config.kind == "sieve":
        return all_jobs, RangeConstraint(reserve=config.beta)
    if config.delta is None:
        raise ValueError("sieve-bounded-overload requires a partition delta")
    m1, m2 = partition_sizes(m, config.delta)
    if machine < m1:
        return all_jobs, RangeConstraint(
            reserve=config.beta, excluded=frozenset(range(m1, m))
        )
    # Overload-stage machines see only the sieve's leftovers, which do not
    # depend on this machine's own report.
    rc1 = RangeConstraint(reserve=config.beta, excluded=frozenset(range(m1, m)))
    leftover = np.flatnonzero(solve_min_work(inst, rc1).assignment == UNSCHEDULED)
    cap2 = max(1, _ceil_tol(config.c * leftover.size / m2)) if leftover.size else 1
    return leftover, RangeConstraint(cap=cap2, excluded=frozenset(range(m1)))


def ic_audit(
    config: MechanismConfig,
    inst: Instance,
    machines=None,
    gain_tol: float = GAIN_TOL,
) -> list[IcViolation]:
    """Search the misreport grid for profitable deviations.

    For each candidate report of each audited machine the outcome is
    recomputed on the misreported matrix and the machine's utility (payment
    minus the true runtime of the jobs it receives) is compared against the
    truthful run.  Any gain above ``gain_tol`` is reported.  A finite grid
    cannot prove truthfulness; an empty result is a failed falsification.
    """
    n, m = inst.n, inst.m
    audit_machines = range(m) if machines is None else machines
    violations: list[IcViolation] = []
    for i in audit_machines:
        jobs, rc = _machine_stage_problem(config, inst, i)
        if jobs.size == 0:
            continue
        stage_specs = tuple(inst.specs[j] for j in jobs)
        stage_true = inst.runtimes[jobs]
        try:
            pivot = solve_min_work(Instance(stage_true, stage_specs), rc.excluding(i))
        except InfeasibleError as exc:
            raise PaymentInfeasibleError(f"audit pivot for machine {i} infeasible: {exc}") from exc
        pivot_objective = schedule_objective(pivot, rc)

        def utility(reported_rows: np.ndarray) -> float:
            sched = solve_min_work(Instance(reported_rows, stage_specs), rc)
            payment = pivot_objective - (schedule_objective(sched, rc) - sched.works[i])
            mine = sched.assignment == i
            return float(payment - stage_true[mine, i].sum())

        truthful = utility(stage_true)
        for label, column in misreport_columns(inst.runtimes[:, i].copy()):
            reported = stage_true.copy()
            reported[:, i] = column[jobs]
            deviant = utility(reported)
            if deviant - truthful > gain_tol:
                violations.append(IcViolation(i, label, truthful, deviant))
    return violations
