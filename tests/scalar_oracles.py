"""Scalar reference implementations shared by the tests.

They are the per-instance loops that the library's batched or shortcut
paths must match, written without the library's helpers for those paths.
"""

import numpy as np

from schedmech.assignment import UNSCHEDULED, RangeConstraint, solve_min_work
from schedmech.instances import preference_order
from schedmech.mechanisms import overload_cap, partition_sizes


def scalar_greedy(runtimes):
    """The one-instance greedy loop, kept as the reference for the batched
    greedy: longest best runtime first, each job on the first machine that
    minimizes the resulting work."""
    n, m = runtimes.shape
    best = runtimes.min(axis=1)
    order = sorted(range(n), key=lambda j: (-best[j], j))
    works = np.zeros(m)
    for j in order:
        i = int(np.argmin(works + runtimes[j]))
        works[i] += runtimes[j, i]
    return float(works.max())


def staged_assignment(config, runtimes):
    """A mechanism's assignment of one ``(n, m)`` matrix, a stage at a time
    with the one-matrix solver: every job on the first range; for the
    combined mechanism, then the sieve's u leftovers on the overload set,
    each of its m2 machines capped at ``max(1, overload_cap(u, m2, c))``."""
    n, m = runtimes.shape
    if config.kind == "minimum-work":
        first = RangeConstraint()
    elif config.kind == "bounded-overload":
        first = RangeConstraint(cap=overload_cap(n, m, config.c))
    elif config.kind == "sieve":
        first = RangeConstraint(reserve=config.beta)
    else:
        m1, m2 = partition_sizes(m, config.delta)
        first = RangeConstraint(reserve=config.beta, excluded=range(m1, m))
    assignment = solve_min_work(runtimes, first).assignment.copy()
    left = np.flatnonzero(assignment == UNSCHEDULED)
    if config.kind == "sieve-bounded-overload" and left.size:
        cap = max(1, overload_cap(left.size, m2, config.c))
        second = RangeConstraint(cap=cap, excluded=range(m1))
        assignment[left] = solve_min_work(runtimes[left], second).assignment
    return assignment


def last_entry_rank_by_solve(inst, c, j):
    """``last_entry_rank`` by solving bounded overload on every job but j,
    then walking j's preference list to the first machine with a free slot."""
    n, m = inst.n, inst.m
    cap = overload_cap(n, m, c)
    if n > 1:
        others = np.delete(inst.runtimes, j, axis=0)
        loads = solve_min_work(others, RangeConstraint(cap=cap)).loads
    else:
        loads = np.zeros(m, dtype=int)
    for rank, machine in enumerate(preference_order(inst, j), start=1):
        if loads[machine] < cap:
            return rank
    raise AssertionError("no free slot")


def literal_order_stat(spec, i, k, rng, size):
    """The i-th smallest of k literal draws, ``size`` times: the reference
    for the library's inverse-CDF order-statistic samplers."""
    draws = spec.sample(rng, (size, k))
    return np.partition(draws, i - 1, axis=1)[:, i - 1]
