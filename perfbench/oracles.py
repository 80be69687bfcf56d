"""Output checks that share no code with ``schedmech.assignment``.

Capacitated optima come from scipy's sparse bipartite matching (LAPJVsp),
a different algorithm from the dense ``linear_sum_assignment`` the library
uses.  Runtimes in the benchmark are continuous, so the optimal schedule is
unique with probability one and makespans and loads can be compared too.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def capped_optimum(runtimes: np.ndarray, machines: np.ndarray, cap: int) -> np.ndarray:
    """Minimum-total-work assignment of every row to ``machines``, at most
    ``cap`` rows per machine, as a vector of machine indices."""
    copies = min(cap, runtimes.shape[0])
    cost = np.repeat(runtimes[:, machines], copies, axis=1)
    # The sparse solver treats stored zeros as missing edges; a uniform
    # shift keeps every edge and moves every full matching by the same n.
    rows, cols = min_weight_full_bipartite_matching(csr_matrix(cost + 1.0))
    assignment = np.empty(runtimes.shape[0], dtype=int)
    assignment[rows] = machines[cols // copies]
    return assignment


def capped_schedule(runtimes: np.ndarray, machines: np.ndarray, cap: int) -> np.ndarray:
    """Argmin placement when it respects the cap, the matching otherwise."""
    pick = machines[np.argmin(runtimes[:, machines], axis=1)]
    if np.bincount(pick, minlength=runtimes.shape[1]).max() <= cap:
        return pick
    return capped_optimum(runtimes, machines, cap)


def loads_and_works(runtimes: np.ndarray, assignment: np.ndarray, m: int):
    jobs = np.arange(runtimes.shape[0])
    loads = np.bincount(assignment, minlength=m)
    works = np.bincount(assignment, weights=runtimes[jobs, assignment], minlength=m)
    return loads, works


def greedy_makespan(runtimes: np.ndarray) -> float:
    """Longest-best-runtime-first greedy, ties by job then machine index."""
    best = runtimes.min(axis=1)
    works = np.zeros(runtimes.shape[1])
    for j in np.lexsort((np.arange(best.size), -best)):
        i = int(np.argmin(works + runtimes[j]))
        works[i] += runtimes[j, i]
    return float(works.max())


def check_bounded_overload_trial(row, runtimes: np.ndarray, cap: int) -> list[str]:
    m = runtimes.shape[1]
    loads, works = loads_and_works(runtimes, capped_schedule(runtimes, np.arange(m), cap), m)
    problems = []
    if row.max_load > cap:
        problems.append(f"max_load {row.max_load} exceeds cap {cap}")
    if row.max_load != loads.max():
        problems.append(f"max_load {row.max_load} != oracle {loads.max()}")
    if not close(row.total_work, works.sum()):
        problems.append(f"total_work {row.total_work!r} != oracle {works.sum()!r}")
    if not close(row.makespan, works.max()):
        problems.append(f"makespan {row.makespan!r} != oracle {works.max()!r}")
    return problems


def check_sieve_overload_trial(row, runtimes: np.ndarray, beta: float, m1: int, c: float) -> list[str]:
    """Stage 1: sieve on machines [0, m1) with reserve beta (a tie stays
    scheduled).  Stage 2: the leftovers on the other machines, capped at
    max(1, ceil(c * leftovers / m2))."""
    m = runtimes.shape[1]
    first = np.arange(m1)
    second = np.arange(m1, m)
    best = runtimes[:, first].min(axis=1)
    leftover = np.flatnonzero(best > beta)
    kept = np.flatnonzero(best <= beta)
    loads1, works1 = loads_and_works(runtimes[kept], np.argmin(runtimes[kept][:, first], axis=1), m)
    loads2 = np.zeros(m, dtype=int)
    works2 = np.zeros(m)
    cap2 = max(1, math.ceil(c * leftover.size / second.size - 1e-9))
    if leftover.size:
        sub = runtimes[leftover]
        loads2, works2 = loads_and_works(sub, capped_schedule(sub, second, cap2), m)
    problems = []
    max_load = max(loads1.max(), loads2.max())
    if row.max_load != max_load:
        problems.append(f"max_load {row.max_load} != oracle {max_load}")
    total = works1.sum() + works2.sum()
    if not close(row.total_work, total):
        problems.append(f"total_work {row.total_work!r} != oracle {total!r}")
    if not close(row.stage1_makespan, works1.max()):
        problems.append(f"stage1_makespan {row.stage1_makespan!r} != oracle {works1.max()!r}")
    if not close(row.stage2_makespan, works2.max()):
        problems.append(f"stage2_makespan {row.stage2_makespan!r} != oracle {works2.max()!r}")
    if not close(row.makespan, max(works1.max(), works2.max())):
        problems.append(f"makespan {row.makespan!r} != oracle")
    return problems


def check_payments(outcome, runtimes: np.ndarray, cap: int, machine: int) -> list[str]:
    """Feasible, optimal schedule; nonnegative truthful utilities; and the
    Clarke pivot of ``machine`` recomputed by matching."""
    m = runtimes.shape[1]
    sched = outcome.schedule
    machines = np.arange(m)
    optimum = capped_optimum(runtimes, machines, cap)
    _, works = loads_and_works(runtimes, optimum, m)
    problems = []
    assignment = np.asarray(sched.assignment)
    if assignment.min() < 0 or assignment.max() >= m:
        return ["schedule leaves jobs unassigned or on unknown machines"]
    loads, own_works = loads_and_works(runtimes, assignment, m)
    if loads.max() > cap:
        problems.append(f"load {loads.max()} exceeds cap {cap}")
    if not close(sched.total_work, works.sum()):
        problems.append(f"total_work {sched.total_work!r} != oracle {works.sum()!r}")
    utility = np.asarray(outcome.payments) - own_works
    if utility.min() < -1e-9:
        problems.append(f"machine {int(utility.argmin())} has truthful utility {utility.min()!r}")
    pivot = capped_optimum(runtimes, machines[machines != machine], cap)
    _, pivot_works = loads_and_works(runtimes, pivot, m)
    expected = pivot_works.sum() - (works.sum() - own_works[machine])
    if not close(float(outcome.payments[machine]), expected):
        problems.append(
            f"payment of machine {machine} is {outcome.payments[machine]!r}, pivot gives {expected!r}"
        )
    return problems
