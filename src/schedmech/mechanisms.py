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

Each minimizer is a stage.  The first three mechanisms are one stage; the
combined one chains two, the second on the first's leftovers.  :func:`place`
is the one engine that runs the stages, on a stack of runtime matrices.  The
runner and the audit read one matrix's stages from :func:`_stages`, each as
three plain values ``(jobs, range, assignment)``: the job indices, the
``RangeConstraint`` (the machines outside the stage excluded from it) and the
stage's own assignment of those jobs, ``UNSCHEDULED`` where it passed a job
on.  Runtime rows are plain matrices; only the caller's ``Instance`` is
validated.  Payments are stage-local: a machine's pivot removes it from its
own stage only.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assignment import (
    UNSCHEDULED,
    InfeasibleError,
    RangeConstraint,
    Schedule,
    argmin_assignment,
    available_machines,
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
    "place",
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
        if not (1 < self.c < math.inf):
            raise ValueError("overload factor c must be finite and exceed 1")
        if self.beta is not None and not (0 <= self.beta < math.inf):
            raise ValueError("reserve beta must be finite and nonnegative")
        if self.delta is not None and not (0 < self.delta < 1):
            raise ValueError("partition delta must lie in (0, 1)")
        if self.k is not None and not (0 < self.k < math.inf):
            raise ValueError("sieve parameter k must be finite and positive")

    @property
    def uses_reserve(self) -> bool:
        return self.kind in ("sieve", "sieve-bounded-overload")


def _ceil_tol(x: float, tol: float = 1e-9) -> int:
    """Ceiling that forgives float noise just above an integer."""
    return int(math.ceil(x - tol))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def overload_cap(jobs: int, machines: int, c: float) -> int:
    """Per-machine job bound ceil(c * jobs / machines)."""
    return _ceil_tol(c * jobs / machines)


def partition_sizes(m: int, delta: float) -> tuple[int, int]:
    """(sieve set size, overload set size) for the combined mechanism."""
    m1 = _ceil_tol((1.0 - delta) * m)
    m1 = min(max(m1, 1), m)
    m2 = m - m1
    if m2 < 1:
        raise ValueError(f"overload machine set is empty for delta={delta}, m={m}")
    return m1, m2


def stage_ranges(config: MechanismConfig, m: int) -> list[Callable[[int], RangeConstraint]]:
    """The mechanism's stages on m machines in run order, each a rule from the
    number of jobs it receives (all of them for the first, the sieve's
    leftovers for the overload stage) to its range; the one branch on
    ``config.kind``.  Within a stage only the cap depends on that number."""
    if config.uses_reserve and config.beta is None:
        raise ValueError(f"{config.kind} requires an explicit reserve beta")
    if config.kind == "minimum-work":
        return [lambda jobs: RangeConstraint()]
    if config.kind == "bounded-overload":
        return [lambda jobs: RangeConstraint(cap=overload_cap(jobs, m, config.c))]
    if config.kind == "sieve":
        return [lambda jobs: RangeConstraint(reserve=config.beta)]
    if config.delta is None:
        raise ValueError("sieve-bounded-overload requires a partition delta")
    m1, m2 = partition_sizes(m, config.delta)
    sieve = RangeConstraint(reserve=config.beta, excluded=frozenset(range(m1, m)))

    def overload(jobs: int) -> RangeConstraint:
        # m2 * cap >= jobs, so every leftover job is scheduled here
        return RangeConstraint(cap=max(1, overload_cap(jobs, m2, config.c)), excluded=range(m1))

    return [lambda jobs: sieve, overload]


def place(config: MechanismConfig, runtimes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The mechanism on a ``(B, n, m)`` stack: the assignment ``(B, n)``, the
    stage that placed each job or last left it unscheduled ``(B, n)``, and
    which matrices had a capacitated stage whose argmin broke its cap ``(B,)``.
    The first stage takes every job, a later one those still unscheduled, as
    one argmin over its rows of the whole stack; a matrix whose argmin breaks
    the cap has the stage solved alone by :func:`solve_min_work`."""
    trials, n, m = runtimes.shape
    rows = runtimes.reshape(trials * n, m)
    assignment = np.full(trials * n, UNSCHEDULED)
    decided = np.zeros(trials * n, dtype=int)
    binding = np.zeros(trials, dtype=bool)
    take, sizes = slice(None), np.full(trials, n)  # every job, as a view
    for index, rule in enumerate(stage_ranges(config, m)):
        if index:
            take = np.flatnonzero(assignment == UNSCHEDULED)
            sizes = np.bincount(take // n, minlength=trials)
        decided[take] = index
        stage_rows = rows[take]
        counts = sizes.tolist()
        ranges = {count: rule(count) for count in set(counts)}
        rc = ranges[counts[0]]  # the ranges differ in their cap only
        placed = argmin_assignment(stage_rows, available_machines(m, rc), rc.reserve)
        if rc.cap is not None:
            on = placed != UNSCHEDULED
            trial = np.repeat(np.arange(trials), sizes)[on]
            loads = np.bincount(trial * m + placed[on], minlength=trials * m).reshape(trials, m)
            over = np.flatnonzero(loads.max(axis=1) > [ranges[count].cap for count in counts])
            binding[over] = True
            starts = np.cumsum(sizes) - sizes
            for b in over:
                mine = slice(starts[b], starts[b] + counts[b])
                placed[mine] = solve_min_work(stage_rows[mine], ranges[counts[b]]).assignment
        assignment[take] = placed
    return assignment.reshape(trials, n), decided.reshape(trials, n), binding


def _stages(
    config: MechanismConfig, runtimes: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, RangeConstraint, np.ndarray]]]:
    """One ``(n, m)`` matrix's assignment from :func:`place`, and the stages
    that received a job, each as ``(jobs, rc, mine)``: its job indices, its
    range and its own assignment of those jobs, ``UNSCHEDULED`` where it
    passed a job on."""
    (assignment,), (decided,), _ = place(config, runtimes[None])
    stages = []
    for index, rule in enumerate(stage_ranges(config, runtimes.shape[1])):
        jobs = np.flatnonzero(decided >= index)
        if not jobs.size:
            break
        mine = np.where(decided[jobs] == index, assignment[jobs], UNSCHEDULED)
        stages.append((jobs, rule(jobs.size), mine))
    return assignment, stages


@dataclass(frozen=True, eq=False)
class Outcome:
    """A mechanism run: the schedule, and each machine's payment (None when
    the caller skipped payment computation)."""

    schedule: Schedule
    payments: np.ndarray | None


def _stage_payments(
    runtimes: np.ndarray,
    rc: RangeConstraint,
    assignment: np.ndarray,
    schedule: Schedule | None = None,
) -> np.ndarray:
    """Each machine's Clarke payment within a stage, from the stage optimum
    ``assignment`` of the stage's runtime rows within its range ``rc``.

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

    Raises :class:`PaymentInfeasibleError` carrying ``schedule`` when
    removing a machine leaves no feasible schedule.  Then k − 1 of the
    stage's k machines cannot hold its n jobs, so all k are loaded, and the
    error names the first.
    """
    n, m = runtimes.shape
    machines = available_machines(m, rc)
    try:
        check_capacity(n, machines.size - 1, rc)
    except InfeasibleError as exc:
        raise PaymentInfeasibleError(
            f"pivot for machine {machines[0]} is infeasible: {exc}", schedule=schedule
        ) from exc
    placed = assignment != UNSCHEDULED
    loads = np.bincount(assignment[placed], minlength=m)
    cost = runtimes[:, machines]
    if rc.reserve is not None:
        cost = np.hstack([cost, np.full((n, 1), rc.reserve)])
    width = cost.shape[1]
    jobs = np.arange(n)
    col = np.where(placed, np.searchsorted(machines, assignment), machines.size)
    room = np.full(width, np.inf)
    if rc.cap is not None:
        room[: machines.size] = rc.cap - loads[machines]
    # the first pass: every freed job at its best other column
    other = cost.copy()
    other[jobs, col] = np.inf
    best = other.argmin(axis=1)
    need = np.bincount(col * width + best, minlength=width * width).reshape(width, width)
    paid = np.bincount(col, weights=other[jobs, best], minlength=width)
    loaded = loads[machines] > 0
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


def run_mechanism(config: MechanismConfig, inst: Instance, compute_payments: bool = True) -> Outcome:
    """Run the mechanism's stages; each job is placed by its last stage."""
    assignment, stages = _stages(config, inst.runtimes)
    schedule = schedule_from_assignment(inst.runtimes, assignment)
    payments = None
    if compute_payments:
        payments = np.zeros(inst.m)
        for jobs, rc, mine in stages:
            payments += _stage_payments(inst.runtimes[jobs], rc, mine, schedule)
    return Outcome(schedule=schedule, payments=payments)


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
    """Sieve on the first machine set, then bounded overload on its leftovers
    over the rest, with the overload cap of :func:`stage_ranges`."""
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
) -> float:
    """Reserve beta from the job-size distribution under a named tuning.

    Raises ``ValueError`` when the E[min of ...] it scales is infinite.
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
        tau = _finite_expected_min(spec, m)
        return n * tau / (k * m)
    if delta is None:
        raise ValueError(f"{rule} rule needs the partition delta")
    draws = max(1, _round_half_up(0.5 * delta * m))
    tau = _finite_expected_min(spec, draws)
    beta = n / (m * math.log(m)) * tau
    if rule == "log-log":
        if n < m * math.log(m):
            warnings.warn(
                f"log-log tuning expects n >= m ln m (n={n}, m ln m={m * math.log(m):.1f})",
                stacklevel=2,
            )
        beta *= 2.0
    return beta


def _finite_expected_min(spec: DistributionSpec, k: int) -> float:
    tau = expected_min(spec, k)
    if not math.isfinite(tau):
        raise ValueError(f"E[min of {k}] of {spec.spec_string} is infinite; no finite reserve")
    return tau


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
        others = np.delete(inst.runtimes, j, axis=0)
        loads = solve_min_work(others, RangeConstraint(cap=cap)).loads
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


def ic_audit(config: MechanismConfig, inst: Instance) -> list[IcViolation]:
    """Search the misreport grid for profitable deviations.

    For each candidate report of each audited machine the outcome of the
    machine's stage is recomputed on the misreported rows and the machine's
    utility (payment minus the true runtime of the jobs it receives) is
    compared against the truthful run.  Any gain above ``GAIN_TOL`` is
    reported.  A finite grid cannot prove truthfulness; an empty result is a
    failed falsification.  The stages, their truthful schedules and their
    pivots are computed once per audit: a machine's pivot excludes it, so
    it does not depend on the machine's report.
    """
    violations: list[IcViolation] = []
    _, stages = _stages(config, inst.runtimes)
    for jobs, rc, mine in stages:
        stage_true = inst.runtimes[jobs]
        own = schedule_from_assignment(stage_true, mine)
        objective = schedule_objective(own, rc)
        payments = _stage_payments(stage_true, rc, mine)
        for i in available_machines(inst.m, rc).tolist():
            pivot_objective = objective - own.works[i] + payments[i]

            def utility(sched: Schedule) -> float:
                payment = pivot_objective - (schedule_objective(sched, rc) - sched.works[i])
                held = sched.assignment == i
                return float(payment - stage_true[held, i].sum())

            truthful = utility(own)
            for label, column in misreport_columns(inst.runtimes[:, i].copy()):
                reported = stage_true.copy()
                reported[:, i] = column[jobs]
                deviant = utility(solve_min_work(reported, rc))
                if deviant - truthful > GAIN_TOL:
                    violations.append(IcViolation(i, label, truthful, deviant))
    return violations
