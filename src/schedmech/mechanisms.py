"""Truthful scheduling mechanisms and their Clarke payments.

Four mechanisms, all dominant-strategy incentive compatible because each is
built from exact total-work minimizers over fixed outcome ranges:

* minimum work -- every job on its cheapest machine; payments are the
  classic externality pivot.
* bounded overload -- minimum work restricted to at most ``ceil(c * n/m)``
  jobs per machine (overload factor ``c > 1``).
* sieve -- minimum work with a dummy machine of per-job runtime ``beta``;
  dummy-assigned jobs count as unscheduled.
* sieve + bounded overload -- machines are split into a sieve set of size
  ``ceil((1 - delta) * m)`` and an overload set holding the remainder; the
  sieve runs first, then bounded overload schedules its leftovers on the
  second set.

Each minimizer is a stage: a job subset, its sub-instance and its range,
with the machines outside the stage excluded from the range.  The first
three mechanisms are one stage; the combined one chains two, the second
built from the first's leftovers.  :func:`_stages` is the one place that
turns a :class:`MechanismConfig` into stages; the runner, the payments and
the audit all work on what it yields.  Payments are stage-local: a
machine's pivot removes it from its own stage only.

A machine's pivot is the stage's optimum with the machine excluded from
the range, not a fake infinite report.  It is not re-solved:
:func:`_stage_payments` starts from the stage optimum and re-routes only the
removed machine's jobs, along shortest paths through the other machines.
On an uncapacitated stage no path is needed, and each machine is paid the
runtimes its jobs would have on their next-best machine (or the reserve):
the minimum-work payment of Nisan and Ronen.  An infeasible pivot raises
:class:`PaymentInfeasibleError` with the schedule attached instead of
silently paying zero.

Also here: the last-entry diagnostic (schedule everyone else, then walk the
held-out job down its preference list to the first machine with a free
slot), the capped-geometric rank model it is compared against, and a
falsification-style incentive audit over a finite misreport grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .assignment import (
    UNSCHEDULED,
    InfeasibleError,
    RangeConstraint,
    Schedule,
    argmin_assignment,
    check_capacity,
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
    "stage_ranges",
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


@dataclass(eq=False)
class _Stage:
    """One exact total-work minimization inside a mechanism.

    ``inst`` holds the rows of ``jobs`` (indices into the full instance);
    machines outside the stage are in ``rc.excluded``.  ``label`` names the
    stage in the per-job labels of the combined mechanism and is None for
    the single-stage ones.  The schedule and the payments are computed on
    first access.
    """

    jobs: np.ndarray
    inst: Instance
    rc: RangeConstraint
    label: str | None = None

    @cached_property
    def schedule(self) -> Schedule:
        return solve_min_work(self.inst, self.rc)

    @cached_property
    def machines(self) -> np.ndarray:
        return np.array([i for i in range(self.inst.m) if i not in self.rc.excluded], dtype=int)

    @cached_property
    def payments(self) -> np.ndarray:
        return _stage_payments(self)


def stage_ranges(
    config: MechanismConfig, n: int, m: int
) -> tuple[RangeConstraint, Callable[[int], RangeConstraint] | None]:
    """The mechanism's ranges on n jobs and m machines; the one branch on
    ``config.kind``.

    Returns the first stage's range and, for the combined mechanism, the
    rule that gives the overload stage's range from the number of jobs the
    sieve leaves over (None for the single-stage mechanisms).
    """
    if config.uses_reserve and config.beta is None:
        raise ValueError(f"{config.kind} requires an explicit reserve beta")
    if config.kind == "minimum-work":
        return RangeConstraint(), None
    if config.kind == "bounded-overload":
        return RangeConstraint(cap=overload_cap(n, m, config.c)), None
    if config.kind == "sieve":
        return RangeConstraint(reserve=config.beta), None
    if config.delta is None:
        raise ValueError("sieve-bounded-overload requires a partition delta")
    m1, m2 = partition_sizes(m, config.delta)

    def overload(leftovers: int) -> RangeConstraint:
        # m2 * cap >= leftovers, so every leftover job is scheduled here.
        cap = max(1, _ceil_tol(config.c * leftovers / m2))
        return RangeConstraint(cap=cap, excluded=frozenset(range(m1)))

    return RangeConstraint(reserve=config.beta, excluded=frozenset(range(m1, m))), overload


def _stages(config: MechanismConfig, inst: Instance) -> Iterator[_Stage]:
    """The mechanism's stages in run order, with the ranges of
    :func:`stage_ranges`.

    A generator, so a caller that stops at the first stage never solves it;
    the combined mechanism's overload stage needs the sieve's schedule, and
    is skipped when the sieve leaves no job over.
    """
    first, then = stage_ranges(config, inst.n, inst.m)
    if then is None:
        yield _Stage(np.arange(inst.n), inst, first)
        return
    sieve = _Stage(np.arange(inst.n), inst, first, "sieve")
    yield sieve
    leftover = np.flatnonzero(sieve.schedule.assignment == UNSCHEDULED)
    if leftover.size:
        sub = Instance(inst.runtimes[leftover], tuple(inst.specs[j] for j in leftover))
        yield _Stage(leftover, sub, then(leftover.size), "overload")


@dataclass(frozen=True, eq=False)
class Outcome:
    """A mechanism run: schedule, payments, and placement diagnostics.

    ``ranks[j]`` is the 1-based rank of job j's machine in its preference
    order among the machines of the job's last stage, or -1 if unscheduled.
    ``stages`` labels each job "sieve" / "overload" / "unscheduled" for the
    combined mechanism and is None otherwise.  Campaigns read neither, so
    both are computed from ``parts`` (the stages, in run order) on first
    access.  ``payments`` is None when the caller skipped payment
    computation.
    """

    schedule: Schedule
    payments: np.ndarray | None
    parts: tuple[_Stage, ...] = field(repr=False)

    @cached_property
    def ranks(self) -> np.ndarray:
        ranks = np.full(self.schedule.assignment.size, UNSCHEDULED)
        for stage in self.parts:
            ranks[stage.jobs] = _ranks_within(stage.inst, stage.schedule.assignment, stage.machines)
        return ranks

    @cached_property
    def stages(self) -> tuple[str, ...] | None:
        if self.parts[0].label is None:
            return None
        labels = np.empty(self.schedule.assignment.size, dtype=object)
        for stage in self.parts:
            placed = stage.schedule.assignment != UNSCHEDULED
            labels[stage.jobs] = np.where(placed, stage.label, "unscheduled")
        return tuple(labels.tolist())


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


def _stage_payments(stage: _Stage) -> np.ndarray:
    """Each machine's Clarke payment within the stage, from the stage optimum.

    Machine i is paid ``OPT₋ᵢ − (OPT − wᵢ)``: the least extra cost of placing
    its jobs elsewhere once it is removed, every other job starting where the
    optimum put it (that part of the optimum stays optimal without i).  The
    work is on machine columns: the stage's machines, then the dummy at
    runtime ``reserve`` when the range has one; excluded machines have no
    column.  The freed jobs are placed one at a time by successive shortest
    paths (Ahuja, Magnanti and Orlin, *Network Flows*, ch. 9): a job goes to
    the column k with the cheapest ``r[j, k] + D[k]``, where ``D[k]`` is the
    cheapest way to make room on column k, 0 where it has slack.  ``D`` is
    never negative at an optimum, so a machine whose freed jobs all fit in
    slack at their best other column is paid the sum of those runtimes; one
    pass settles every such machine.  On an uncapacitated stage that is
    every machine, and it is the minimum-work payment of Nisan and Ronen.
    Idle machines and machines outside the stage are paid 0.

    Raises :class:`InfeasibleError` when removing a machine leaves no
    feasible schedule; every machine of such a stage is loaded.
    """
    own = stage.schedule
    machines = stage.machines
    runtimes = stage.inst.runtimes
    rc = stage.rc
    n, m = runtimes.shape
    check_capacity(n, machines.size - 1, rc)
    cost = runtimes[:, machines]
    if rc.reserve is not None:
        cost = np.hstack([cost, np.full((n, 1), rc.reserve)])
    width = cost.shape[1]
    jobs = np.arange(n)
    placed = own.assignment != UNSCHEDULED
    col = np.where(placed, np.searchsorted(machines, own.assignment), machines.size)
    room = np.full(width, np.inf)
    if rc.cap is not None:
        room[: machines.size] = rc.cap - own.loads[machines]
    # the first pass: every freed job at its best other column
    other = cost.copy()
    other[jobs, col] = np.inf
    best = other.argmin(axis=1)
    need = np.bincount(col * width + best, minlength=width * width).reshape(width, width)
    paid = np.bincount(col, weights=other[jobs, best], minlength=width)
    loaded = own.loads[machines] > 0
    walks = np.flatnonzero(loaded & ~(need[: machines.size] <= room).all(axis=1))
    if walks.size:
        # moves[k, k'] is the cheapest change of runtime from moving one job
        # of column k to column k'
        order = np.argsort(col, kind="stable")
        starts = np.flatnonzero(np.diff(col[order], prepend=-1))
        moves = np.full((width, width), np.inf)
        moves[col[order[starts]]] = np.minimum.reduceat(
            (cost - cost[jobs, col, None])[order], starts
        )
        tol = 1e-12 * max(1.0, float(cost.max()))
        for k in walks:
            paid[k] = _reroute(cost, col, room, moves, k, tol)
    payments = np.zeros(m)
    payments[machines[loaded]] = paid[: machines.size][loaded]
    return payments


def _reroute(
    cost: np.ndarray, col: np.ndarray, room: np.ndarray, moves: np.ndarray, k: int, tol: float
) -> float:
    """Extra cost of placing column k's jobs on the other columns.

    Column k becomes a full column with no job, which no path can reach.
    The freed jobs are placed in index order; any order gives the same
    total, because each placement is a shortest path from its job.  A job
    goes to the column c with the cheapest ``cost[j, c] + D[c]``; when c is
    full, the walk follows the predecessor chain from c to a column with
    slack, each hop moving the job that attains ``moves`` one column on.
    """
    col, room, moves = col.copy(), room.copy(), moves.copy()
    freed = np.flatnonzero(col == k)
    col[freed] = -1
    room[k] = 0
    moves[k] = np.inf
    # room costs only grow as jobs are placed, so the last ones computed
    # are a lower bound: a job whose cheapest column under them has slack
    # goes there without computing them again
    dist = np.zeros(room.size)
    dist[k] = np.inf
    fresh = False
    total = 0.0
    for job in freed:
        c = int((cost[job] + dist).argmin())
        if room[c] == 0 and not fresh:
            dist, pred = _room_costs(moves, room, tol)
            fresh = True
            c = int((cost[job] + dist).argmin())
        total += cost[job, c] + dist[c]
        path, moving = [c], job
        while room[c] == 0:
            on_c = np.flatnonzero(col == c)
            nxt = pred[c]
            col[moving], moving = c, on_c[np.argmin(cost[on_c, nxt] - cost[on_c, c])]
            c = nxt
            path.append(c)
        col[moving] = c
        room[c] -= 1
        for q in path:
            if room[q] == 0:
                on_q = np.flatnonzero(col == q)
                moves[q] = (cost[on_q] - cost[on_q, q, None]).min(axis=0)
        # a transfer, or a column that just filled up, changes the room costs
        fresh = fresh and len(path) == 1 and room[c] > 0
    return total


def _room_costs(moves: np.ndarray, room: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Bellman–Ford over the full columns: ``dist[c]`` is the cheapest cost
    of making room for one more job on column c, ``pred[c]`` the next column
    on that path.

    A predecessor is recorded only on a strict improvement, by more than the
    float noise ``tol``: with ties, a column can reach slack through another
    at the same cost and back, and taking the argmin after convergence could
    close that loop, so the walk from it would never end.
    """
    full = np.flatnonzero(room == 0)
    dist = np.zeros(room.size)
    dist[full] = np.inf
    pred = np.full(room.size, -1)
    rows = moves[full]
    at = np.arange(full.size)
    for _ in range(room.size):
        via = rows + dist
        nxt = via.argmin(axis=1)
        step = via[at, nxt]
        better = np.flatnonzero(step < dist[full] - tol)
        if not better.size:
            break
        dist[full[better]] = step[better]
        pred[full[better]] = nxt[better]
    return dist, pred


def _clarke_payments(
    stage: _Stage, schedule: Schedule | None = None, machine: int | None = None
) -> np.ndarray:
    """The stage's :func:`_stage_payments`, computed once per stage.

    An infeasible pivot raises :class:`PaymentInfeasibleError` carrying
    ``schedule``, for ``machine`` or else for the stage's first loaded
    machine.
    """
    try:
        return stage.payments
    except InfeasibleError as exc:
        if machine is None:
            own = stage.schedule
            machine = int(stage.machines[own.loads[stage.machines] > 0][0])
        raise PaymentInfeasibleError(
            f"pivot for machine {machine} is infeasible: {exc}", schedule=schedule
        ) from exc


def run_mechanism(config: MechanismConfig, inst: Instance, compute_payments: bool = True) -> Outcome:
    """Run the mechanism's stages; each job is placed by its last stage."""
    parts = tuple(_stages(config, inst))
    schedule = parts[0].schedule
    if len(parts) > 1:
        assignment = np.array(schedule.assignment)
        for stage in parts[1:]:
            assignment[stage.jobs] = stage.schedule.assignment
        schedule = schedule_from_assignment(inst.runtimes, assignment)
    payments = None
    if compute_payments:
        payments = np.zeros(inst.m)
        for stage in parts:
            payments += _clarke_payments(stage, schedule)
    return Outcome(schedule=schedule, payments=payments, parts=parts)


def run_minimum_work(inst: Instance, compute_payments: bool = True) -> Outcome:
    """Unconstrained total-work minimizer with externality payments."""
    return run_mechanism(MechanismConfig("minimum-work"), inst, compute_payments)


def run_bounded_overload(inst: Instance, c: float = 7.0, compute_payments: bool = True) -> Outcome:
    """Total-work minimizer holding every machine to ceil(c * n/m) jobs."""
    return run_mechanism(MechanismConfig("bounded-overload", c=c), inst, compute_payments)


def run_sieve(inst: Instance, beta: float, compute_payments: bool = True) -> Outcome:
    """Minimum work with a dummy machine priced at beta per job."""
    return run_mechanism(MechanismConfig("sieve", beta=beta), inst, compute_payments)


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
    return run_mechanism(
        MechanismConfig("sieve-bounded-overload", c=c, beta=beta, delta=delta), inst, compute_payments
    )


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
    free slot.  Pigeonhole keeps the answer at or below ceil(m / c).  When
    the other jobs' argmins fit the cap they are that schedule, so their
    loads are the full instance's argmin loads less job j; only otherwise
    is the capacitated problem solved.
    """
    n, m = inst.n, inst.m
    cap = overload_cap(n, m, c)
    argmins = argmin_assignment(inst.runtimes, np.arange(m))
    loads = np.bincount(argmins, minlength=m)
    loads[argmins[j]] -= 1
    if loads.max() > cap:
        others = np.delete(np.arange(n), j)
        sub = Instance(inst.runtimes[others], tuple(inst.specs[i] for i in others))
        loads = solve_min_work(sub, RangeConstraint(cap=cap)).loads
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


def ic_audit(
    config: MechanismConfig,
    inst: Instance,
    machines=None,
    gain_tol: float = GAIN_TOL,
) -> list[IcViolation]:
    """Search the misreport grid for profitable deviations.

    For each candidate report of each audited machine the outcome of the
    machine's stage is recomputed on the misreported rows and the machine's
    utility (payment minus the true runtime of the jobs it receives) is
    compared against the truthful run.  Any gain above ``gain_tol`` is
    reported.  A finite grid cannot prove truthfulness; an empty result is a
    failed falsification.  The stages, their truthful schedules and their
    pivots are computed once per audit: a machine's pivot excludes it, so
    it does not depend on the machine's report.
    """
    violations: list[IcViolation] = []
    parts = tuple(_stages(config, inst))
    for i in range(inst.m) if machines is None else machines:
        stage = next((s for s in parts if i not in s.rc.excluded), None)
        if stage is None:
            continue  # the sieve left no job for the overload stage
        rc, specs, stage_true = stage.rc, stage.inst.specs, stage.inst.runtimes
        own = stage.schedule
        pivot_objective = (
            schedule_objective(own, rc) - own.works[i] + _clarke_payments(stage, machine=i)[i]
        )

        def utility(sched: Schedule) -> float:
            payment = pivot_objective - (schedule_objective(sched, rc) - sched.works[i])
            mine = sched.assignment == i
            return float(payment - stage_true[mine, i].sum())

        truthful = utility(own)
        for label, column in misreport_columns(inst.runtimes[:, i].copy()):
            reported = stage_true.copy()
            reported[:, i] = column[stage.jobs]
            deviant = utility(solve_min_work(Instance(reported, specs), rc))
            if deviant - truthful > gain_tol:
                violations.append(IcViolation(i, label, truthful, deviant))
    return violations
