"""Exact minimum-total-work assignment under optional capacity and reserve.

The solver returns a schedule of globally minimum total work within the
constrained range:

* no constraints -- every job sits on its cheapest machine (ties to the
  lowest machine index);
* ``reserve`` -- a dummy machine with per-job cost ``reserve`` is available
  with unbounded capacity; a job lands on the dummy (i.e. is UNSCHEDULED)
  exactly when its best available runtime strictly exceeds the reserve;
* ``cap`` -- at most ``cap`` jobs per machine; solved as a transportation
  problem (jobs are unit supplies, each machine a sink of capacity ``cap``).

The capacitated path expands each machine into ``cap`` unit-capacity columns
and runs an exact rectangular assignment solver.  When the unconstrained
argmin solution already respects the cap it is returned directly, which also
pins the lexicographic (job index, machine index) tie-break on that path.

``brute_force_min_work`` enumerates every feasible assignment and is the
independent oracle for the solver; it never shares code with the fast path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .instances import Instance

__all__ = [
    "UNSCHEDULED",
    "InfeasibleError",
    "RangeConstraint",
    "Schedule",
    "argmin_assignment",
    "available_machines",
    "check_capacity",
    "schedule_from_assignment",
    "solve_min_work",
    "brute_force_min_work",
    "first_best_makespan_exact",
    "first_best_makespan_greedy",
    "greedy_makespans",
    "schedule_objective",
]

UNSCHEDULED = -1

# Exhaustive enumeration guard for the oracle and the exact makespan search.
ENUMERATION_LIMIT = 1_000_000

# Total-work comparisons (oracle equivalence, tie handling) use this slack.
WORK_TOL = 1e-9


class InfeasibleError(ValueError):
    """The constrained range admits no feasible schedule."""


@dataclass(frozen=True)
class RangeConstraint:
    """Optional restrictions on the schedule range.

    cap -- per-machine job-count bound (>= 1).
    reserve -- dummy-machine runtime (>= 0); dummy capacity is unbounded.
    excluded -- machines treated as unavailable.
    """

    cap: int | None = None
    reserve: float | None = None
    excluded: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.cap is not None and self.cap < 1:
            raise ValueError("cap must be >= 1 when present")
        if self.reserve is not None and self.reserve < 0:
            raise ValueError("reserve must be >= 0 when present")
        object.__setattr__(self, "excluded", frozenset(self.excluded))

    def excluding(self, machine: int) -> "RangeConstraint":
        return replace(self, excluded=self.excluded | {machine})


@dataclass(frozen=True, eq=False)
class Schedule:
    """A job-to-machine assignment with its load/work bookkeeping.

    ``assignment[j]`` is a machine index or UNSCHEDULED.  ``loads`` counts
    jobs per machine, ``works`` sums runtimes per machine, ``makespan`` is
    the largest work, and ``total_work`` the sum over machines (unscheduled
    jobs contribute nothing here; see :func:`schedule_objective`).
    """

    assignment: np.ndarray
    loads: np.ndarray
    works: np.ndarray
    total_work: float
    makespan: float

    @property
    def n_unscheduled(self) -> int:
        return int(np.sum(self.assignment == UNSCHEDULED))

    @property
    def scheduled_jobs(self) -> np.ndarray:
        return np.flatnonzero(self.assignment != UNSCHEDULED)


def schedule_from_assignment(runtimes: np.ndarray, assignment: np.ndarray) -> Schedule:
    """Build a Schedule (loads, works, makespan) from an assignment vector."""
    n, m = runtimes.shape
    assignment = np.asarray(assignment, dtype=int)
    jobs = np.flatnonzero(assignment != UNSCHEDULED)
    machines = assignment[jobs]
    loads = np.bincount(machines, minlength=m)
    works = np.bincount(machines, weights=runtimes[jobs, machines], minlength=m)
    for arr in (assignment, loads, works):
        arr.setflags(write=False)
    return Schedule(
        assignment=assignment,
        loads=loads,
        works=works,
        total_work=float(works.sum()),
        makespan=float(works.max()),
    )


def schedule_objective(schedule: Schedule, rc: RangeConstraint | None) -> float:
    """Total work plus the reserve cost of every unscheduled job.

    This is the quantity the solver actually minimizes, and the one Clarke
    pivots must compare.
    """
    reserve = rc.reserve if rc is not None else None
    if reserve is None:
        return schedule.total_work
    return schedule.total_work + reserve * schedule.n_unscheduled


def available_machines(m: int, rc: RangeConstraint) -> np.ndarray:
    """The range's machines: 0..m-1 without the excluded ones."""
    if rc.excluded:
        keep = np.ones(m, dtype=bool)
        # Indices outside 0..m-1 name no machine and are ignored.
        keep[[i for i in map(int, rc.excluded) if 0 <= i < m]] = False
        avail = np.flatnonzero(keep)
    else:
        avail = np.arange(m)
    if avail.size == 0 and rc.reserve is None:
        # With a reserve the dummy machine can absorb everything, so an
        # empty real-machine set stays feasible.
        raise InfeasibleError("no machines available")
    return avail


def check_capacity(n: int, machines: int, rc: RangeConstraint) -> None:
    """Raise :class:`InfeasibleError` when ``machines`` available machines
    cannot take ``n`` jobs within the range; the dummy takes any number."""
    if rc.reserve is not None:
        return
    if machines == 0:
        raise InfeasibleError("no machines available")
    if rc.cap is not None and rc.cap * machines < n:
        raise InfeasibleError(f"capacity {rc.cap} on {machines} machines cannot hold {n} jobs")


def argmin_assignment(
    runtimes: np.ndarray, avail: np.ndarray, reserve: float | None = None
) -> np.ndarray:
    """The range's optimum before its cap: each job on its cheapest machine
    in ``avail``, the lowest index winning a tie, and UNSCHEDULED when that
    runtime strictly exceeds ``reserve``.

    ``runtimes`` is one ``(n, m)`` matrix or a stack ``(..., n, m)``; the
    assignment has the shape of a runtime column, ``(..., n)``.
    """
    if avail.size == 0:
        return np.full(runtimes.shape[:-1], UNSCHEDULED)
    first = int(avail[0])
    if avail[-1] - first + 1 == avail.size:
        cols = runtimes[..., first : first + avail.size]  # a view, not a copy
    else:
        cols = runtimes[..., avail]
    assignment = avail[cols.argmin(axis=-1)]
    if reserve is not None:
        # the minimum compares with the reserve exactly as the argmin's entry
        assignment[cols.min(axis=-1) > reserve] = UNSCHEDULED
    return assignment


def solve_min_work(inst: Instance, rc: RangeConstraint | None = None) -> Schedule:
    """Minimum-total-work schedule within the constrained range."""
    rc = rc if rc is not None else RangeConstraint()
    runtimes = inst.runtimes
    n, m = runtimes.shape
    avail = available_machines(m, rc)
    check_capacity(n, avail.size, rc)

    assignment = argmin_assignment(runtimes, avail, rc.reserve)
    if rc.cap is None:
        return schedule_from_assignment(runtimes, assignment)

    loads = np.bincount(assignment[assignment != UNSCHEDULED], minlength=m)
    if loads.max(initial=0) <= rc.cap:
        # The unconstrained optimum already fits the cap, so it is optimal
        # for the capacitated range too.
        return schedule_from_assignment(runtimes, assignment)

    copies = min(rc.cap, n)
    cost = np.repeat(runtimes[:, avail], copies, axis=1)
    if rc.reserve is not None:
        cost = np.hstack([cost, np.full((n, n), rc.reserve)])
    rows, cols = linear_sum_assignment(cost)
    assignment = np.full(n, UNSCHEDULED)
    real = cols < avail.size * copies
    assignment[rows[real]] = avail[cols[real] // copies]
    if rc.reserve is not None:
        assignment = _prefer_machines_on_reserve_ties(runtimes, assignment, avail, rc)
    return schedule_from_assignment(runtimes, assignment)


def _prefer_machines_on_reserve_ties(runtimes, assignment, avail, rc):
    # A job whose runtime on some spare-capacity machine exactly equals the
    # reserve may sit on the dummy in an optimal solution; the contract says
    # ties go to a real machine (the dummy acts as the highest index).
    loads = np.bincount(
        assignment[assignment != UNSCHEDULED], minlength=runtimes.shape[1]
    )
    assignment = assignment.copy()
    for j in np.flatnonzero(assignment == UNSCHEDULED):
        for i in avail:
            if loads[i] < rc.cap and runtimes[j, i] <= rc.reserve + WORK_TOL:
                assignment[j] = i
                loads[i] += 1
                break
    return assignment


def brute_force_min_work(inst: Instance, rc: RangeConstraint | None = None) -> Schedule:
    """Exhaustive oracle: enumerate every feasible assignment.

    Enumeration is in lexicographic (job, machine) order with the dummy as
    the highest choice, so the first optimum found is the canonical one.
    """
    rc = rc if rc is not None else RangeConstraint()
    runtimes = inst.runtimes
    n, m = runtimes.shape
    avail = available_machines(m, rc)
    choices: list[int] = [int(i) for i in avail]
    if rc.reserve is not None:
        choices.append(UNSCHEDULED)
    if len(choices) ** n > ENUMERATION_LIMIT:
        raise InfeasibleError(f"{len(choices)}^{n} assignments exceed the enumeration guard")
    if rc.cap is not None and rc.reserve is None and rc.cap * avail.size < n:
        raise InfeasibleError("infeasible capacity")

    best_cost = math.inf
    best: tuple[int, ...] | None = None
    for combo in itertools.product(choices, repeat=n):
        if rc.cap is not None:
            counts: dict[int, int] = {}
            ok = True
            for i in combo:
                if i == UNSCHEDULED:
                    continue
                counts[i] = counts.get(i, 0) + 1
                if counts[i] > rc.cap:
                    ok = False
                    break
            if not ok:
                continue
        cost = 0.0
        for j, i in enumerate(combo):
            cost += rc.reserve if i == UNSCHEDULED else runtimes[j, i]
        if cost < best_cost:
            best_cost = cost
            best = combo
    if best is None:
        raise InfeasibleError("no feasible assignment")
    return schedule_from_assignment(runtimes, np.array(best))


def first_best_makespan_exact(inst: Instance) -> float:
    """Minimum makespan over all assignments, no incentive constraints."""
    n, m = inst.n, inst.m
    if m**n > ENUMERATION_LIMIT:
        raise InfeasibleError(f"{m}^{n} assignments exceed the enumeration guard")
    runtimes = inst.runtimes
    works = np.zeros(m)
    best = math.inf

    def descend(j: int, current_max: float) -> None:
        nonlocal best
        if current_max >= best:
            return
        if j == n:
            best = current_max
            return
        for i in range(m):
            works[i] += runtimes[j, i]
            descend(j + 1, max(current_max, works[i]))
            works[i] -= runtimes[j, i]

    descend(0, 0.0)
    return best


def first_best_makespan_greedy(inst: Instance) -> float:
    """Longest-best-runtime-first greedy placement; an upper bound reference.

    Jobs are placed in decreasing order of their best runtime, each on the
    machine that minimizes the resulting work.
    """
    return float(greedy_makespans(inst.runtimes[None])[0])


def greedy_makespans(runtimes: np.ndarray) -> np.ndarray:
    """:func:`first_best_makespan_greedy` for a ``(B, n, m)`` stack of
    runtime matrices, one numpy step per job position across all B.

    Each matrix gets the same placements, in the same order and with the
    same float arithmetic, as the one-instance greedy: jobs by decreasing
    best runtime, ties to the lower job index; each on the first machine
    minimizing ``works + runtime``.
    """
    blocks, n, m = runtimes.shape
    order = np.argsort(-runtimes.min(axis=2), axis=1, kind="stable")
    rows = np.arange(blocks)
    offsets = rows * m
    works = np.zeros((blocks, m))
    resulting = np.empty((blocks, m))
    works_flat, resulting_flat = works.reshape(-1), resulting.reshape(-1)
    for position in range(n):
        np.add(works, runtimes[rows, order[:, position]], out=resulting)
        chosen = resulting.argmin(axis=1) + offsets
        # the same sum that ``works[machine] += runtime`` would store
        works_flat[chosen] = resulting_flat[chosen]
    return works.max(axis=1)
