import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schedmech.mechanisms as mechanisms
from schedmech.assignment import (
    UNSCHEDULED,
    InfeasibleError,
    RangeConstraint,
    brute_force_min_work,
    schedule_from_assignment,
    schedule_objective,
    solve_min_work,
)
from schedmech.distributions import Exponential, TwoPoint, Uniform
from schedmech.instances import Instance, rank_runtime, sample_instance
from schedmech.mechanisms import (
    MechanismConfig,
    PaymentInfeasibleError,
    _stage_payments,
    default_partition,
    derive_reserve,
    geometric_rank_pmf,
    ic_audit,
    last_entry_rank,
    overload_cap,
    partition_sizes,
    run_bounded_overload,
    run_mechanism,
    run_minimum_work,
    run_sieve,
    run_sieve_bounded_overload,
    sample_geometric_rank,
)

from scalar_oracles import last_entry_rank_by_solve, staged_assignment

SPEC = Uniform(0.0, 1000.0)


def make_instance(rows):
    rows = np.asarray(rows, dtype=float)
    return Instance(rows, (SPEC,) * rows.shape[0])


def pivot_oracle(inst, rc, schedule, solve=brute_force_min_work):
    """Externality payments from solving every pivot from scratch, by
    exhaustive enumeration or, with ``solve=solve_min_work``, by the full
    re-solve."""
    payments = np.zeros(inst.m)
    base = schedule_objective(schedule, rc)
    for i in range(inst.m):
        if schedule.loads[i] == 0:
            continue
        pivot = solve(inst.runtimes, rc.excluding(i))
        payments[i] = schedule_objective(pivot, rc) - (base - schedule.works[i])
    return payments


# ------------------------------------------------------------- minimum work


def test_minimum_work_payment_example():
    inst = make_instance([[1.0, 3.0], [2.0, 2.0]])
    outcome = run_minimum_work(inst)
    assert outcome.schedule.assignment.tolist() == [0, 0]
    # pivot of machine 0: both jobs move to machine 1 at 3+2=5, others idle
    assert outcome.payments.tolist() == pytest.approx([5.0, 0.0])


def test_minimum_work_single_machine_signals_payment_infeasibility():
    inst = make_instance([[2.0], [3.0]])
    with pytest.raises(PaymentInfeasibleError) as err:
        run_minimum_work(inst)
    # the schedule itself is still delivered on the error
    assert err.value.schedule is not None
    assert err.value.schedule.assignment.tolist() == [0, 0]
    outcome = run_minimum_work(inst, compute_payments=False)
    assert outcome.payments is None
    assert outcome.schedule.makespan == pytest.approx(5.0)


def test_minimum_work_zero_matrix_pays_zero():
    inst = make_instance(np.zeros((3, 2)))
    outcome = run_minimum_work(inst)
    assert outcome.payments.tolist() == [0.0, 0.0]


def test_minimum_work_payments_match_enumeration_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        inst = sample_instance([Exponential(1.0)] * n, m, rng)
        outcome = run_minimum_work(inst)
        oracle = pivot_oracle(inst, RangeConstraint(), outcome.schedule)
        assert np.allclose(outcome.payments, oracle, atol=1e-9)
        assert np.all(outcome.payments >= -1e-12)


# --------------------------------------------------------- bounded overload


def test_bounded_overload_vacuous_cap_equals_minimum_work():
    rng = np.random.default_rng(22)
    inst = sample_instance([Exponential(1.0)] * 4, 4, rng)
    assert overload_cap(4, 4, 7.0) == 7
    bo = run_bounded_overload(inst, c=7.0)
    mw = run_minimum_work(inst)
    assert bo.schedule.assignment.tolist() == mw.schedule.assignment.tolist()


def test_bounded_overload_caps_adversarial_matrix():
    # all jobs prefer machine 0 by a wide margin
    rows = np.ones((4, 4)) * 100.0
    rows[:, 0] = 1.0
    inst = make_instance(rows)
    outcome = run_bounded_overload(inst, c=2.0, compute_payments=False)
    assert overload_cap(4, 4, 2.0) == 2
    assert outcome.schedule.loads.max() == 2


def test_bounded_overload_payments_hand_example():
    # cap = ceil(1.9 * 2/4) = 1 forces the split {j0->m1, j1->m0};
    # pivots enumerated by hand: W(-0)=120 via j0->m2,j1->m1; W(-1)=22.
    inst = make_instance([[1.0, 10.0, 20.0, 30.0], [2.0, 100.0, 200.0, 300.0]])
    outcome = run_bounded_overload(inst, c=1.9)
    assert overload_cap(2, 4, 1.9) == 1
    assert outcome.schedule.assignment.tolist() == [1, 0]
    assert outcome.schedule.total_work == pytest.approx(12.0)
    assert outcome.payments.tolist() == pytest.approx([110.0, 20.0, 0.0, 0.0])


def test_bounded_overload_payments_match_enumeration_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        inst = sample_instance([TwoPoint(1.0, 10.0, 0.5)] * n, m, rng)
        c = float(rng.choice([1.5, 2.0, 3.0]))
        if overload_cap(n, m, c) * (m - 1) < n:
            continue  # pivot infeasible by construction; covered elsewhere
        outcome = run_bounded_overload(inst, c=c)
        rc = RangeConstraint(cap=overload_cap(n, m, c))
        oracle = pivot_oracle(inst, rc, outcome.schedule)
        assert np.allclose(outcome.payments, oracle, atol=1e-9)


def test_bounded_overload_pivot_infeasibility_raises():
    # c < m/(m-1): removing one of two machines leaves cap*1 < n
    inst = make_instance([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    assert overload_cap(4, 2, 1.5) == 3
    with pytest.raises(PaymentInfeasibleError):
        run_bounded_overload(inst, c=1.5)


# ----------------------------------------------------- incremental pivots


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.integers(1, 4),
    dist=st.sampled_from([Exponential(1.0), TwoPoint(1.0, 10.0, 0.5)]),
    cap=st.integers(1, 3),
    reserve=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
    excluded=st.sets(st.integers(0, 3), max_size=2),
    seed=st.integers(0, 2**31),
)
@pytest.mark.parametrize("kind", ["cap", "reserve", "cap+reserve"])
@pytest.mark.parametrize("excluding", [False, True])
def test_stage_payments_equal_resolved_and_enumerated_pivots(
    kind, excluding, n, m, dist, cap, reserve, excluded, seed
):
    inst = sample_instance([dist] * n, m, np.random.default_rng(seed))
    rc = RangeConstraint(
        cap=cap if "cap" in kind else None,
        reserve=reserve if "reserve" in kind else None,
        excluded=frozenset(i for i in excluded if i < m) if excluding else frozenset(),
    )
    try:
        schedule = solve_min_work(inst.runtimes, rc)
    except InfeasibleError:
        return  # no stage to pay
    try:
        resolved = pivot_oracle(inst, rc, schedule, solve=solve_min_work)
    except InfeasibleError as exc:
        first = next(i for i in range(m) if schedule.loads[i])
        with pytest.raises(PaymentInfeasibleError) as err:
            _stage_payments(inst.runtimes, rc, schedule.assignment, schedule)
        assert str(err.value) == f"pivot for machine {first} is infeasible: {exc}"
        assert err.value.schedule is schedule
        return
    payments = _stage_payments(inst.runtimes, rc, schedule.assignment, schedule)
    assert np.allclose(payments, resolved, rtol=0, atol=1e-9)
    assert np.allclose(payments, pivot_oracle(inst, rc, schedule), rtol=0, atol=1e-9)


def test_stage_payments_survive_zero_cost_cycles():
    # Machines 0 and 1 are full and each can pass its job to the other at
    # cost 0, or to slack at cost 0: a predecessor taken after convergence
    # can point 0 -> 1 -> 0, and machine 2's pivot then never finds slack.
    inst = make_instance([[1, 1, 10], [10, 10, 10], [1, 1, 1], [1, 10, 1]])
    rc = RangeConstraint(cap=1, reserve=1.0)
    schedule = schedule_from_assignment(inst.runtimes, np.array([0, -1, 1, 2]))
    assert schedule_objective(schedule, rc) == schedule_objective(
        brute_force_min_work(inst.runtimes, rc), rc
    )
    expected = pivot_oracle(inst, rc, schedule)
    # a looping walk never returns: fail after a while instead of hanging
    result = []
    worker = threading.Thread(
        target=lambda: result.append(_stage_payments(inst.runtimes, rc, schedule.assignment)),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=10)
    assert result, "the pivots did not finish"
    assert result[0].tolist() == pytest.approx(expected.tolist(), abs=1e-12)


def test_stage_payments_recompute_room_costs_after_a_machine_fills():
    # Machine 2's pivot computes room costs for job 1, whose placement
    # fills a machine without a transfer; job 5 then needs the room costs
    # again, with that machine full.
    inst = make_instance(
        [[28, 9, 27, 13], [13, 7, 2, 23], [11, 20, 16, 14],
         [12, 4, 22, 26], [22, 14, 27, 29], [14, 4, 7, 20]]
    )
    outcome = run_bounded_overload(inst, c=1.3)
    rc = RangeConstraint(cap=overload_cap(6, 4, 1.3))
    assert rc.cap == 2
    expected = pivot_oracle(inst, rc, outcome.schedule)
    assert outcome.payments.tolist() == pytest.approx(expected.tolist(), abs=1e-12)


def test_bounded_overload_payments_equal_resolved_pivots_at_benchmark_scale():
    # small instances rarely re-route a job over more than one machine
    n, m, c = 256, 64, 1.5
    inst = sample_instance([Exponential(1.0)] * n, m, np.random.default_rng(56))
    outcome = run_bounded_overload(inst, c=c)
    rc = RangeConstraint(cap=overload_cap(n, m, c))
    resolved = pivot_oracle(inst, rc, outcome.schedule, solve=solve_min_work)
    assert np.count_nonzero(outcome.schedule.loads == rc.cap) > 0
    assert np.allclose(outcome.payments, resolved, rtol=0, atol=1e-9)


# --------------------------------------------------------------------- sieve


def test_sieve_zero_reserve_unschedules_positive_jobs():
    rng = np.random.default_rng(24)
    inst = sample_instance([Exponential(1.0)] * 5, 3, rng)
    outcome = run_sieve(inst, beta=0.0, compute_payments=False)
    assert outcome.schedule.n_unscheduled == 5


def test_sieve_huge_reserve_matches_minimum_work():
    rng = np.random.default_rng(25)
    inst = sample_instance([Exponential(1.0)] * 5, 3, rng)
    sieve = run_sieve(inst, beta=1e12, compute_payments=False)
    mw = run_minimum_work(inst, compute_payments=False)
    assert sieve.schedule.assignment.tolist() == mw.schedule.assignment.tolist()


def test_sieve_threshold_example():
    inst = make_instance([[3.0, 8.0], [7.0, 9.0]])
    outcome = run_sieve(inst, beta=5.0)
    assert outcome.schedule.assignment.tolist() == [0, UNSCHEDULED]
    assert outcome.schedule.n_unscheduled == 1


def test_sieve_payments_well_defined_on_single_machine():
    inst = make_instance([[2.0], [9.0]])
    outcome = run_sieve(inst, beta=5.0)
    # pivot of the only machine: both jobs fall to the dummy at 5 each;
    # payment = 10 - (objective 7 - own work 2) = 5
    assert outcome.payments.tolist() == pytest.approx([5.0])


def test_sieve_payments_match_enumeration_oracle():
    rng = np.random.default_rng(26)
    for _ in range(25):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        inst = sample_instance([Exponential(1.0)] * n, m, rng)
        beta = float(np.median(inst.runtimes))
        outcome = run_sieve(inst, beta=beta)
        oracle = pivot_oracle(inst, RangeConstraint(reserve=beta), outcome.schedule)
        assert np.allclose(outcome.payments, oracle, atol=1e-9)


# ------------------------------------------------------ sieve + bounded overload


def test_partition_sizes_rounding():
    assert partition_sizes(3, 2.0 / 3.0) == (1, 2)
    assert partition_sizes(12, 2.0 / 3.0) == (4, 8)
    assert partition_sizes(2, 0.5) == (1, 1)
    with pytest.raises(ValueError):
        partition_sizes(1, 0.5)


def test_combined_huge_reserve_runs_sieve_only():
    rng = np.random.default_rng(27)
    inst = sample_instance([Exponential(1.0)] * 6, 3, rng)
    outcome = run_sieve_bounded_overload(inst, c=7.0, beta=1e12, delta=2.0 / 3.0)
    # all jobs sit on the single sieve machine (machine 0): the sieve
    # schedules every job, and the overload stage none
    assert partition_sizes(3, 2.0 / 3.0)[0] == 1
    assert set(outcome.schedule.assignment.tolist()) == {0}


def test_combined_completeness_and_stage_split():
    rng = np.random.default_rng(28)
    spec = Exponential(1.0)
    inst = sample_instance([spec] * 30, 6, rng)
    beta = derive_reserve(spec, 30, 6, rule="count-target", k=1.0)
    outcome = run_sieve_bounded_overload(inst, c=7.0, beta=beta, delta=0.5)
    assert outcome.schedule.n_unscheduled == 0
    m1, m2 = partition_sizes(6, 0.5)
    # a job was scheduled by the sieve exactly when its machine is < m1;
    # the overload stage respects its own cap
    leftover = int((outcome.schedule.assignment >= m1).sum())
    if leftover:
        cap2 = max(1, math.ceil(7.0 * leftover / m2 - 1e-9))
        assert outcome.schedule.loads[m1:].max() <= cap2


def test_combined_reserve_tuning_example():
    # delta/2 * m = 4 draws; E[min of 4 Exp(1)] = 1/4; beta = 0.25 / ln 12
    beta = derive_reserve(Exponential(1.0), 12, 12, delta=2.0 / 3.0, rule="sqrt-log")
    assert beta == pytest.approx(0.25 / math.log(12.0), abs=1e-12)
    assert beta == pytest.approx(0.1006, abs=2e-4)


def test_combined_rejects_empty_overload_set():
    inst = make_instance([[1.0]])
    with pytest.raises(ValueError):
        run_sieve_bounded_overload(inst, c=7.0, beta=1.0, delta=0.5)


def test_combined_overload_pivot_infeasibility_carries_the_full_schedule():
    # m1 = m2 = 1: the sieve keeps job 1 on machine 0, jobs 0 and 2 go to
    # the overload stage's only machine, whose pivot leaves them no machine
    inst = make_instance([[5.0, 1.0], [0.5, 2.0], [6.0, 3.0]])
    with pytest.raises(PaymentInfeasibleError) as err:
        run_sieve_bounded_overload(inst, c=2.0, beta=1.0, delta=0.5)
    outcome = run_sieve_bounded_overload(inst, c=2.0, beta=1.0, delta=0.5, compute_payments=False)
    assert outcome.schedule.assignment.tolist() == [1, 0, 1]
    assert err.value.schedule.assignment.tolist() == [1, 0, 1]
    assert err.value.schedule.works.tolist() == outcome.schedule.works.tolist()


def test_combined_stage_local_payments_match_oracle():
    rng = np.random.default_rng(29)
    spec = TwoPoint(1.0, 10.0, 0.5)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        inst = sample_instance([spec] * n, 3, rng)
        beta = 1.0  # low atoms pass the sieve, high atoms overflow
        outcome = run_sieve_bounded_overload(inst, c=2.0, beta=beta, delta=2.0 / 3.0)
        m1, m2 = partition_sizes(3, 2.0 / 3.0)
        set1, set2 = frozenset(range(m1)), frozenset(range(m1, 3))
        rc1 = RangeConstraint(reserve=beta, excluded=set2)
        stage1 = brute_force_min_work(inst.runtimes, rc1)
        base1 = schedule_objective(stage1, rc1)
        for i in range(m1):
            if stage1.loads[i] == 0:
                assert outcome.payments[i] == 0.0
                continue
            pivot = brute_force_min_work(inst.runtimes, rc1.excluding(i))
            expected = schedule_objective(pivot, rc1) - (base1 - stage1.works[i])
            assert outcome.payments[i] == pytest.approx(expected, abs=1e-9)
        leftover = np.flatnonzero(stage1.assignment == UNSCHEDULED)
        if leftover.size == 0:
            assert np.all(outcome.payments[m1:] == 0.0)
            continue
        cap2 = max(1, math.ceil(2.0 * leftover.size / m2 - 1e-9))
        sub = inst.runtimes[leftover]
        rc2 = RangeConstraint(cap=cap2, excluded=set1)
        stage2 = brute_force_min_work(sub, rc2)
        base2 = schedule_objective(stage2, rc2)
        for i in range(m1, 3):
            if stage2.loads[i] == 0:
                assert outcome.payments[i] == 0.0
                continue
            pivot = brute_force_min_work(sub, rc2.excluding(i))
            expected = schedule_objective(pivot, rc2) - (base2 - stage2.works[i])
            assert outcome.payments[i] == pytest.approx(expected, abs=1e-9)


# ------------------------------------------------------------ derive_reserve


def test_derive_reserve_count_target_closed_form():
    beta = derive_reserve(Exponential(1.0), 100, 10, rule="count-target", k=2.0)
    assert beta == pytest.approx(0.5, abs=1e-12)


def test_derive_reserve_log_log_doubles_sqrt_log():
    spec = Exponential(1.0)
    with pytest.warns(UserWarning):
        doubled = derive_reserve(spec, 12, 12, delta=0.5, rule="log-log")
    single = derive_reserve(spec, 12, 12, delta=0.5, rule="sqrt-log")
    assert doubled == pytest.approx(2.0 * single)


def test_derive_reserve_count_target_warns_on_large_k():
    with pytest.warns(UserWarning):
        derive_reserve(Exponential(1.0), 10, 4, rule="count-target", k=3.0)


def test_default_partition_values():
    assert default_partition("sqrt-log", 32) == pytest.approx(2.0 / 3.0)
    assert default_partition("log-log", 64) == pytest.approx(1.0 / math.log(math.log(64.0)))
    with pytest.raises(ValueError):
        default_partition("log-log", 8)


# ---------------------------------------------------------------- last entry


def test_last_entry_rank_non_binding_cap():
    rng = np.random.default_rng(30)
    inst = sample_instance([Exponential(1.0)] * 3, 4, rng)
    for j in range(3):
        assert last_entry_rank(inst, 7.0, j) == 1


def test_last_entry_rank_hand_trace():
    # cap = ceil(1.9 * 2/4) = 1; without job 1, job 0 takes machine 0;
    # job 1 prefers machine 0 but it is full, so its rank is 2.
    inst = make_instance([[1.0, 10.0, 20.0, 30.0], [2.0, 100.0, 200.0, 300.0]])
    assert last_entry_rank(inst, 1.9, 1) == 2


def test_last_entry_rank_upper_bound_and_dominates_mechanism_runtime():
    rng = np.random.default_rng(31)
    c = 2.0
    bound = math.ceil(8 / c)
    for _ in range(60):
        inst = sample_instance([Exponential(1.0)] * 8, 8, rng)
        outcome = run_bounded_overload(inst, c=c, compute_payments=False)
        j = int(rng.integers(0, 8))
        rank = last_entry_rank(inst, c, j)
        assert 1 <= rank <= bound
        mech_runtime = inst.runtimes[j, outcome.schedule.assignment[j]]
        assert mech_runtime <= rank_runtime(inst, j, rank) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9),
    m=st.integers(1, 6),
    c=st.sampled_from([1.05, 1.5, 2.0, 7.0]),
    family=st.sampled_from([TwoPoint(1.0, 10.0, 0.5), TwoPoint(1.0, 10.0, 0.1), Exponential(1.0)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_last_entry_rank_equals_the_solve_without_the_job(n, m, c, family, seed):
    # small c on twopoint rows makes the cap bind, so both the shortcut and
    # the solve run; the ties exercise the lowest-index rule on both
    inst = sample_instance([family] * n, m, np.random.default_rng(seed))
    for j in range(n):
        assert last_entry_rank(inst, c, j) == last_entry_rank_by_solve(inst, c, j)


# ------------------------------------------------------------ geometric rank


def test_geometric_rank_pmf_values():
    pmf = geometric_rank_pmf(7.0, 64)
    assert pmf.size == math.ceil(64 / 7)
    assert pmf[0] == pytest.approx(6.0 / 7.0)
    assert pmf[1] == pytest.approx(6.0 / 49.0)
    assert pmf.sum() == pytest.approx(1.0)


def test_geometric_rank_cap_collapses_to_one():
    rng = np.random.default_rng(32)
    assert sample_geometric_rank(7.0, 5, rng) == 1
    draws = sample_geometric_rank(7.0, 5, rng, size=100)
    assert np.all(draws == 1)


def test_geometric_rank_frequencies_match_pmf():
    rng = np.random.default_rng(33)
    n = 10**6
    draws = sample_geometric_rank(7.0, 64, rng, size=n)
    pmf = geometric_rank_pmf(7.0, 64)
    counts = np.bincount(draws, minlength=pmf.size + 1)[1:]
    freqs = counts / n
    se = np.sqrt(pmf * (1 - pmf) / n)
    assert np.all(np.abs(freqs - pmf) <= 3 * se + 1e-9)


# -------------------------------------------------------------------- audits


def test_audit_truthful_report_never_flagged():
    rng = np.random.default_rng(34)
    inst = sample_instance([Exponential(1.0)] * 3, 2, rng)
    violations = ic_audit(MechanismConfig("minimum-work"), inst)
    assert violations == []


def test_audit_minimum_work_two_by_two_grid():
    rng = np.random.default_rng(35)
    for _ in range(20):
        inst = sample_instance([Exponential(1.0)] * 2, 2, rng)
        assert ic_audit(MechanismConfig("minimum-work"), inst) == []


def test_audit_bounded_overload_on_random_instances():
    rng = np.random.default_rng(36)
    for _ in range(10):
        inst = sample_instance([Exponential(1.0)] * 4, 3, rng)
        assert ic_audit(MechanismConfig("bounded-overload", c=2.0), inst) == []


def test_audit_detects_a_rigged_mechanism():
    # negative control: pay a flat bonus for reporting the sentinel by
    # auditing with a *wrong* pivot baseline; emulate by auditing a sieve
    # whose beta depends on machine 0's own report (not incentive compatible)
    rng = np.random.default_rng(37)
    inst = sample_instance([Exponential(1.0)] * 3, 2, rng)

    # utility model identical to the audit's, but the mechanism re-derives
    # beta from the reported matrix, so machine reports move the reserve
    from schedmech.assignment import solve_min_work

    class SelfServingSieve:
        def outcome(self, runtimes):
            beta = float(runtimes.mean())
            return solve_min_work(runtimes, RangeConstraint(reserve=beta)), beta

    mech = SelfServingSieve()
    base_sched, base_beta = mech.outcome(inst.runtimes)
    rc = RangeConstraint(reserve=base_beta)
    pivot = brute_force_min_work(inst.runtimes, rc.excluding(0))
    base_pay = schedule_objective(pivot, rc) - (
        schedule_objective(base_sched, rc) - base_sched.works[0]
    )
    base_utility = base_pay - inst.runtimes[base_sched.assignment == 0, 0].sum()
    best_gain = -np.inf
    for factor in (0.0, 0.25, 0.5, 2.0, 4.0):
        reported = inst.runtimes.copy()
        reported[:, 0] *= factor
        sched, beta = mech.outcome(reported)
        rc_dev = RangeConstraint(reserve=beta)
        pivot = brute_force_min_work(reported, rc_dev.excluding(0))
        pay = schedule_objective(pivot, rc_dev) - (
            schedule_objective(sched, rc_dev) - sched.works[0]
        )
        utility = pay - inst.runtimes[sched.assignment == 0, 0].sum()
        best_gain = max(best_gain, utility - base_utility)
    assert best_gain > 1e-9  # the audit machinery can detect broken rules


def test_misreport_grid_contents():
    from schedmech.mechanisms import BIG_RUNTIME, misreport_columns

    column = np.array([1.0, 2.0, 3.0])
    grid = dict(misreport_columns(column))
    # truthful baseline, five scalings, the sentinel, and all pair swaps
    assert len(grid) == 6 + 1 + 3
    assert grid["scale:1.0"].tolist() == [1.0, 2.0, 3.0]
    assert grid["scale:0.0"].tolist() == [0.0, 0.0, 0.0]
    assert np.all(grid["sentinel"] == BIG_RUNTIME)
    assert grid["swap:0,2"].tolist() == [3.0, 2.0, 1.0]


def test_audit_refuses_configs_with_undefined_payments():
    # when n > cap * (m - 1) the cap could force jobs onto an arbitrarily
    # slow machine, and exactly then the machine-excluded pivot has no
    # feasible schedule: the audit must raise instead of paying garbage
    rng = np.random.default_rng(39)
    inst = sample_instance([Uniform(1.0, 10.0)] * 7, 3, rng)
    assert overload_cap(7, 3, 1.2) * 2 < 7
    with pytest.raises(PaymentInfeasibleError):
        ic_audit(MechanismConfig("bounded-overload", c=1.2), inst)


# m1 = 2, m2 = 1: the sieve (beta 2) keeps jobs 0 and 3 on machine 0 and
# passes jobs 1 and 2 to machine 2, the overload stage's only machine, whose
# pivot then leaves them no machine
PASSED_ON = [[1.0, 5.0, 5.0], [9.0, 3.0, 1.0], [9.0, 9.0, 4.0], [1.0, 2.0, 2.0]]
COMBINED = MechanismConfig("sieve-bounded-overload", c=2.0, beta=2.0, delta=0.5)


@pytest.mark.parametrize("config, stages", [(MechanismConfig("minimum-work"), 1), (COMBINED, 2)])
@pytest.mark.parametrize("run", [run_mechanism, ic_audit])
def test_payments_are_computed_once_per_stage(run, config, stages, monkeypatch):
    calls = []
    pay = mechanisms._stage_payments
    monkeypatch.setattr(
        mechanisms, "_stage_payments", lambda *args: calls.append(args) or pay(*args)
    )
    inst = make_instance(PASSED_ON)
    if config is COMBINED:
        with pytest.raises(PaymentInfeasibleError):
            run(config, inst)
    else:
        run(config, inst)
    assert len(calls) == stages


def test_audit_and_run_name_the_same_infeasible_pivot():
    inst = make_instance(PASSED_ON)
    message = "pivot for machine 2 is infeasible: no machines available"
    with pytest.raises(PaymentInfeasibleError) as audited:
        ic_audit(COMBINED, inst)
    with pytest.raises(PaymentInfeasibleError) as ran:
        run_mechanism(COMBINED, inst)
    assert str(audited.value) == str(ran.value) == message
    assert audited.value.schedule is None
    assert ran.value.schedule.assignment.tolist() == [0, 2, 2, 0]
    assert ran.value.schedule.loads.tolist() == [2, 0, 2]


def test_mechanisms_build_no_instance_beyond_the_callers(monkeypatch):
    # The caller's Instance validated the rows once: the stages, the audit's
    # candidate reports and the last-entry probe solve plain matrices.  On
    # ``combined`` the sieve (machine 0, beta 2) leaves jobs 1 and 2 over.
    combined = make_instance([[1.0, 5.0, 5.0], [9.0, 3.0, 1.0], [9.0, 1.0, 4.0], [1.0, 2.0, 2.0]])
    crowded = make_instance([[1.0, 2.0, 3.0]] * 6)
    configs = [
        MechanismConfig("minimum-work"),
        MechanismConfig("bounded-overload", c=2.0),
        MechanismConfig("sieve", beta=2.0),
        MechanismConfig("sieve-bounded-overload", c=2.0, beta=2.0, delta=2.0 / 3.0),
    ]
    built = []
    post_init = Instance.__post_init__
    monkeypatch.setattr(Instance, "__post_init__", lambda self: built.append(self) or post_init(self))
    solves = []
    monkeypatch.setattr(
        mechanisms, "solve_min_work", lambda *args: solves.append(args) or solve_min_work(*args)
    )
    for config in configs:
        outcome = run_mechanism(config, combined)
        assert outcome.schedule.n_unscheduled == 0
        assert ic_audit(config, combined) == []
    # m1 = 1: jobs 0 and 3 on the sieve's machine 0, 1 and 2 on the overload set
    assert outcome.schedule.assignment.tolist() == [0, 2, 1, 0]
    solves.clear()
    # cap 3 on 3 machines: the other five jobs' argmins all sit on machine 0
    assert last_entry_rank(crowded, 1.1, 0) == 2
    assert len(solves) == 1
    assert built == []


# c = 1.1 binds the bounded-overload cap in most draws, c = 1.5 in some;
# beta = 0 leaves every job to the overload stage, 1e9 none.
@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("minimum-work", "bounded-overload", "sieve", "sieve-bounded-overload")),
    c=st.sampled_from([1.1, 1.5]),
    beta=st.sampled_from([0.0, 0.5, 1e9]),
    n=st.integers(1, 7),
    m=st.integers(2, 5),
    dist=st.sampled_from([Exponential(1.0), TwoPoint(0.2, 1.0, 0.5)]),
    seed=st.integers(0, 2**31),
)
def test_run_mechanism_places_jobs_as_the_stage_by_stage_oracle(kind, c, beta, n, m, dist, seed):
    config = MechanismConfig(
        kind,
        c=c,
        beta=beta if kind in ("sieve", "sieve-bounded-overload") else None,
        delta=0.5 if kind == "sieve-bounded-overload" else None,
    )
    inst = sample_instance([dist] * n, m, np.random.default_rng(seed))
    outcome = run_mechanism(config, inst, compute_payments=False)
    assert outcome.schedule.assignment.tolist() == staged_assignment(config, inst.runtimes).tolist()


def test_run_mechanism_dispatch_and_validation():
    rng = np.random.default_rng(38)
    inst = sample_instance([Exponential(1.0)] * 4, 2, rng)
    with pytest.raises(ValueError):
        run_mechanism(MechanismConfig("sieve"), inst)
    out = run_mechanism(MechanismConfig("sieve", beta=0.5), inst, compute_payments=False)
    assert out.payments is None
    with pytest.raises(ValueError):
        MechanismConfig("does-not-exist")
    with pytest.raises(ValueError):
        MechanismConfig("bounded-overload", c=1.0)
    with pytest.raises(ValueError):
        MechanismConfig("sieve", beta=-1.0)
    with pytest.raises(ValueError):
        MechanismConfig("sieve-bounded-overload", delta=1.5)
    # NaN and infinite parameters fail the checks rather than slip past them
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            MechanismConfig("bounded-overload", c=bad)
        with pytest.raises(ValueError, match="finite"):
            MechanismConfig("sieve", beta=bad)
        with pytest.raises(ValueError, match="finite"):
            MechanismConfig("sieve", k=bad)
        with pytest.raises(ValueError, match="finite"):
            RangeConstraint(reserve=bad)
    # each wrapper validates through MechanismConfig
    with pytest.raises(ValueError):
        run_bounded_overload(inst, c=1.0)
    with pytest.raises(ValueError):
        run_sieve(inst, beta=-1.0)
    with pytest.raises(ValueError):
        run_sieve_bounded_overload(inst, c=1.0, beta=0.5, delta=0.5)
