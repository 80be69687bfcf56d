import numpy as np
import pytest

from schedmech.distributions import Exponential, TwoPoint, Uniform
from schedmech.instances import (
    Instance,
    preference_order,
    rank_runtime,
    sample_instance,
)


def test_degenerate_single_cell():
    inst = sample_instance([TwoPoint(1.0, 10.0, 0.0)], 1, np.random.default_rng(0))
    assert inst.runtimes.tolist() == [[1.0]]
    assert inst.n == 1 and inst.m == 1


def test_continuous_entries_distinct():
    inst = sample_instance([Exponential(1.0)] * 2, 3, np.random.default_rng(1))
    assert len(set(inst.runtimes.ravel().tolist())) == 6


def test_machine_symmetry_by_construction():
    # column means agree within Monte Carlo noise: machines are exchangeable
    rng = np.random.default_rng(2)
    spec = Exponential(1.0)
    samples = np.vstack([sample_instance([spec] * 4, 4, rng).runtimes for _ in range(2000)])
    means = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    assert np.all(np.abs(means - 1.0) <= 4 * se)


def test_validation_rejects_bad_matrices():
    spec = Exponential(1.0)
    with pytest.raises(ValueError):
        Instance(np.array([[1.0, -2.0]]), (spec,))
    with pytest.raises(ValueError):
        Instance(np.array([[np.inf, 1.0]]), (spec,))
    with pytest.raises(ValueError):
        Instance(np.array([[1.0, 2.0]]), (spec, spec))  # spec count mismatch
    with pytest.raises(ValueError):
        sample_instance([], 3, np.random.default_rng(0))


def _row_instance(row):
    return Instance(np.array([row]), (Uniform(0.0, 100.0),))


def test_rank_runtime_examples():
    inst = _row_instance([3.0, 1.0, 2.0])
    assert rank_runtime(inst, 0, 1) == 1.0
    assert rank_runtime(inst, 0, 3) == 3.0
    values = [rank_runtime(inst, 0, r) for r in (1, 2, 3)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        rank_runtime(inst, 0, 0)
    with pytest.raises(ValueError):
        rank_runtime(inst, 0, 4)


def test_rank_one_equals_best_and_multiset_preserved():
    rng = np.random.default_rng(3)
    inst = sample_instance([Exponential(1.0)] * 5, 4, rng)
    for j in range(inst.n):
        assert rank_runtime(inst, j, 1) == inst.runtimes[j].min()
        ranked = [rank_runtime(inst, j, r) for r in range(1, inst.m + 1)]
        assert sorted(ranked) == sorted(inst.runtimes[j].tolist())


def test_preference_order_breaks_ties_by_index():
    inst = _row_instance([2.0, 1.0, 1.0])
    assert preference_order(inst, 0).tolist() == [1, 2, 0]


def test_instances_are_immutable():
    inst = sample_instance([Exponential(1.0)], 2, np.random.default_rng(5))
    with pytest.raises(ValueError):
        inst.runtimes[0, 0] = 7.0
