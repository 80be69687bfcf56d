import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedmech.assignment import (
    UNSCHEDULED,
    InfeasibleError,
    RangeConstraint,
    argmin_assignment,
    available_machines,
    brute_force_min_work,
    first_best_makespan_exact,
    first_best_makespan_greedy,
    greedy_makespans,
    schedule_objective,
    solve_min_work,
)
from schedmech.distributions import Exponential, TwoPoint, Uniform
from schedmech.instances import Instance, sample_instance

from scalar_oracles import scalar_greedy

SPEC = Uniform(0.0, 1000.0)


def make_instance(rows):
    rows = np.asarray(rows, dtype=float)
    return Instance(rows, (SPEC,) * rows.shape[0])


def test_unconstrained_argmin_with_tie_to_lowest_index():
    inst = make_instance([[1.0, 3.0], [2.0, 2.0]])
    sched = solve_min_work(inst.runtimes)
    assert sched.assignment.tolist() == [0, 0]
    assert sched.total_work == 3.0
    assert sched.loads.tolist() == [2, 0]
    assert sched.works.tolist() == [3.0, 0.0]
    assert sched.makespan == 3.0


def test_capacity_one_forces_split():
    # oracle: the two feasible assignments cost 1+100=101 and 10+2=12
    inst = make_instance([[1.0, 10.0], [2.0, 100.0]])
    sched = solve_min_work(inst.runtimes, RangeConstraint(cap=1))
    assert sched.assignment.tolist() == [1, 0]
    assert sched.total_work == pytest.approx(12.0)
    oracle = brute_force_min_work(inst.runtimes, RangeConstraint(cap=1))
    assert oracle.total_work == pytest.approx(12.0)
    assert oracle.assignment.tolist() == [1, 0]


def test_reserve_threshold_semantics():
    inst = make_instance([[3.0, 4.0], [7.0, 9.0]])
    sched = solve_min_work(inst.runtimes, RangeConstraint(reserve=5.0))
    assert sched.assignment.tolist() == [0, UNSCHEDULED]
    assert sched.n_unscheduled == 1


def test_reserve_tie_is_scheduled():
    inst = make_instance([[5.0, 6.0]])
    sched = solve_min_work(inst.runtimes, RangeConstraint(reserve=5.0))
    assert sched.assignment.tolist() == [0]


def test_reserve_zero_unschedules_positive_jobs():
    inst = make_instance([[0.5, 0.2], [0.0, 1.0]])
    sched = solve_min_work(inst.runtimes, RangeConstraint(reserve=0.0))
    assert sched.assignment.tolist() == [UNSCHEDULED, 0]


def test_objective_counts_reserve_cost():
    inst = make_instance([[3.0], [9.0]])
    rc = RangeConstraint(reserve=5.0)
    sched = solve_min_work(inst.runtimes, rc)
    assert sched.total_work == 3.0
    assert schedule_objective(sched, rc) == pytest.approx(8.0)


def test_excluded_machines_are_untouched():
    inst = make_instance([[1.0, 50.0], [1.0, 60.0]])
    sched = solve_min_work(inst.runtimes, RangeConstraint(excluded=frozenset({0})))
    assert sched.assignment.tolist() == [1, 1]
    assert sched.loads.tolist() == [0, 2]


def test_infeasible_configurations_raise():
    inst = make_instance([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(InfeasibleError):
        solve_min_work(inst.runtimes, RangeConstraint(cap=1))
    with pytest.raises(InfeasibleError):
        solve_min_work(inst.runtimes, RangeConstraint(excluded=frozenset({0, 1})))
    with pytest.raises(ValueError):
        RangeConstraint(cap=0)
    with pytest.raises(ValueError):
        RangeConstraint(reserve=-1.0)


def test_all_machines_excluded_with_reserve_unschedules_everything():
    inst = make_instance([[1.0], [2.0]])
    rc = RangeConstraint(reserve=0.5, excluded=frozenset({0}))
    sched = solve_min_work(inst.runtimes, rc)
    assert sched.n_unscheduled == 2
    assert schedule_objective(sched, rc) == pytest.approx(1.0)


def test_brute_force_guard():
    rng = np.random.default_rng(0)
    inst = sample_instance([Exponential(1.0)] * 30, 4, rng)
    with pytest.raises(InfeasibleError):
        brute_force_min_work(inst.runtimes)


def test_brute_force_balanced_symmetric_case():
    inst = make_instance(np.full((4, 2), 3.0))
    sched = brute_force_min_work(inst.runtimes, RangeConstraint(cap=2))
    assert sched.total_work == pytest.approx(12.0)
    assert sched.loads.tolist() == [2, 2]


def _random_rc(rng, inst):
    choice = rng.integers(0, 5)
    if choice == 0:
        return RangeConstraint()
    if choice in (1, 2, 3):
        cap = int(choice)
        if cap * inst.m < inst.n:
            return RangeConstraint()
        return RangeConstraint(cap=cap)
    return RangeConstraint(reserve=float(np.median(inst.runtimes)))


@pytest.mark.parametrize("family", [Exponential(1.0), TwoPoint(1.0, 10.0, 0.5)])
def test_solver_matches_brute_force_on_random_instances(family):
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        inst = sample_instance([family] * n, m, rng)
        rc = _random_rc(rng, inst)
        fast = solve_min_work(inst.runtimes, rc)
        oracle = brute_force_min_work(inst.runtimes, rc)
        assert abs(schedule_objective(fast, rc) - schedule_objective(oracle, rc)) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.lists(st.floats(0.0, 100.0), min_size=2, max_size=3),
        min_size=1,
        max_size=4,
    ),
    cap=st.sampled_from([None, 1, 2, 3]),
)
def test_solver_matches_brute_force_property(data, cap):
    width = min(len(row) for row in data)
    inst = make_instance([row[:width] for row in data])
    if cap is not None and cap * inst.m < inst.n:
        cap = None
    rc = RangeConstraint(cap=cap)
    fast = solve_min_work(inst.runtimes, rc)
    oracle = brute_force_min_work(inst.runtimes, rc)
    assert abs(fast.total_work - oracle.total_work) <= 1e-9


def test_total_work_nonincreasing_in_cap():
    rng = np.random.default_rng(12)
    inst = sample_instance([Exponential(1.0)] * 6, 2, rng)
    previous = np.inf
    for cap in (3, 4, 5, 6):
        work = solve_min_work(inst.runtimes, RangeConstraint(cap=cap)).total_work
        assert work <= previous + 1e-12
        previous = work


def test_scheduled_set_nondecreasing_in_reserve():
    rng = np.random.default_rng(13)
    inst = sample_instance([Exponential(1.0)] * 6, 3, rng)
    previous: set[int] = set()
    for beta in np.linspace(0.0, 2.0, 9):
        sched = solve_min_work(inst.runtimes, RangeConstraint(reserve=float(beta)))
        scheduled = set(np.flatnonzero(sched.assignment != UNSCHEDULED).tolist())
        assert previous <= scheduled
        previous = scheduled


def test_exchange_optimality_unconstrained():
    rng = np.random.default_rng(14)
    inst = sample_instance([Exponential(1.0)] * 5, 3, rng)
    sched = solve_min_work(inst.runtimes)
    for j in range(inst.n):
        current = inst.runtimes[j, sched.assignment[j]]
        assert current <= inst.runtimes[j].min() + 1e-12


# ------------------------------------------------------------- first best


def test_first_best_exact_small_example():
    inst = make_instance([[1.0, 3.0], [2.0, 2.0]])
    assert first_best_makespan_exact(inst.runtimes) == pytest.approx(2.0)


def test_first_best_single_machine_is_column_sum():
    inst = make_instance([[1.5], [2.5], [3.0]])
    assert first_best_makespan_exact(inst.runtimes) == pytest.approx(7.0)
    assert first_best_makespan_greedy(inst.runtimes) == pytest.approx(7.0)


def test_first_best_single_job_is_min_entry():
    inst = make_instance([[4.0, 2.0, 3.0]])
    assert first_best_makespan_exact(inst.runtimes) == pytest.approx(2.0)
    assert first_best_makespan_greedy(inst.runtimes) == pytest.approx(2.0)


def test_greedy_traces_hand_example():
    # hand trace: job 1 (best runtime 2) goes first, tie [2,2] -> machine 0;
    # job 0 then sees resulting works [3,3], tie -> machine 0, makespan 3.
    inst = make_instance([[1.0, 3.0], [2.0, 2.0]])
    assert first_best_makespan_greedy(inst.runtimes) == pytest.approx(3.0)
    assert first_best_makespan_exact(inst.runtimes) == pytest.approx(2.0)


def test_greedy_upper_bounds_exact():
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        inst = sample_instance([Exponential(1.0)] * n, m, rng)
        assert (
            first_best_makespan_greedy(inst.runtimes)
            >= first_best_makespan_exact(inst.runtimes) - 1e-12
        )


@settings(max_examples=80, deadline=None)
@given(
    blocks=st.integers(1, 5),
    n=st.integers(1, 9),
    m=st.integers(1, 9),
    family=st.sampled_from([TwoPoint(1.0, 10.0, 0.5), Exponential(1.0), Uniform(0.0, 1.0)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_greedy_equals_scalar_loop(blocks, n, m, family, seed):
    # twopoint rows are tie-heavy in both the job order and the argmin
    rng = np.random.default_rng(seed)
    stack = np.stack([sample_instance([family] * n, m, rng).runtimes for _ in range(blocks)])
    expected = [scalar_greedy(runtimes) for runtimes in stack]
    assert greedy_makespans(stack).tolist() == expected
    assert first_best_makespan_greedy(stack[0]) == expected[0]


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    excluded=st.frozensets(st.integers(-2, 8), max_size=8),
    reserve=st.sampled_from([None, 1.0]),
)
def test_available_machines_match_set_difference(m, excluded, reserve):
    rc = RangeConstraint(reserve=reserve, excluded=excluded)
    expected = np.setdiff1d(np.arange(m), np.fromiter(excluded, dtype=int, count=len(excluded)))
    if expected.size == 0 and reserve is None:
        with pytest.raises(InfeasibleError, match="no machines available"):
            available_machines(m, rc)
        return
    avail = available_machines(m, rc)
    assert avail.dtype == expected.dtype
    assert avail.tolist() == expected.tolist()


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.integers(1, 4),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    excluded=st.frozensets(st.integers(0, 5), max_size=5),
    reserve=st.sampled_from([None, 0.0, 1.0, 10.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_argmin_equals_each_matrix_alone(blocks, n, m, excluded, reserve, seed):
    # twopoint rows tie often, on the argmin and on the reserve; an excluded
    # machine in the middle makes the available set non-contiguous
    rc = RangeConstraint(reserve=reserve, excluded=excluded)
    if len(excluded & set(range(m))) == m and reserve is None:
        return
    avail = available_machines(m, rc)
    rng = np.random.default_rng(seed)
    stack = np.where(rng.random((blocks, n, m)) < 0.5, 1.0, 10.0)
    stacked = argmin_assignment(stack, avail, reserve)
    assert stacked.shape == (blocks, n)
    for runtimes, row in zip(stack, stacked):
        expected = []
        for job in runtimes:
            best = min(avail, key=lambda i: (job[i], i)) if avail.size else None
            on_dummy = best is None or (reserve is not None and job[best] > reserve)
            expected.append(UNSCHEDULED if on_dummy else int(best))
        assert row.tolist() == expected
        assert solve_min_work(runtimes, rc).assignment.tolist() == expected
