import contextlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schedmech import campaign
from schedmech.campaign import (
    REPORT_COLUMNS,
    CampaignResult,
    ExperimentConfig,
    ReportRow,
    derive_trial_seed,
    emit_report,
    parse_report,
    run_campaign,
    version_string,
)
from schedmech.cli import entrypoint, main
from schedmech.distributions import Exponential, TwoPoint, Uniform, parse_distribution
from schedmech.instances import sample_instance
from schedmech.mechanisms import MechanismConfig, partition_sizes, run_mechanism
from schedmech.optbounds import reduced_machine_count

from scalar_oracles import scalar_greedy


def config(**overrides):
    base = dict(
        mechanism=MechanismConfig("bounded-overload", c=7.0),
        dist=Exponential(1.0),
        n=8,
        m=8,
        trials=20,
        master_seed=123,
        reference="opt-half",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_trial_seeds_are_stable_and_distinct():
    a = derive_trial_seed(5, 0, 7)
    assert a == derive_trial_seed(5, 0, 7)
    assert a != derive_trial_seed(5, 0, 8)
    assert a != derive_trial_seed(5, 1, 7)
    assert a != derive_trial_seed(6, 0, 7)


def test_campaign_deterministic_across_thread_counts():
    serial = run_campaign(config(threads=1))
    parallel = run_campaign(config(threads=4))
    assert [r.as_tuple() for r in serial.rows] == [r.as_tuple() for r in parallel.rows]
    assert serial.aggregate == parallel.aggregate


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    for fmt in ("csv", "json"):
        paths = []
        for threads, tag in ((1, "a"), (3, "b")):
            out = tmp_path / f"report_{tag}.{fmt}"
            emit_report(run_campaign(config(threads=threads)), out, fmt)
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]


def recomputed(cfg):
    """Each trial on its own, through the scalar path: seed, sample, run.

    Returns the rows, and each trial's worst-best and average-best runtime
    on the paired reference's machines (empty without a paired reference).
    """
    mech = cfg.mechanism
    rows, worst, average = [], [], []
    for t in range(cfg.trials):
        seed = derive_trial_seed(cfg.master_seed, 0, t)
        inst = sample_instance(cfg.job_specs, cfg.m, np.random.default_rng(seed))
        sched = run_mechanism(mech, inst, compute_payments=False).schedule
        stages = (None, None)
        if mech.kind == "sieve-bounded-overload":
            m1, _ = partition_sizes(cfg.m, mech.delta)
            stages = (float(sched.works[:m1].max()), float(sched.works[m1:].max()))
        greedy = scalar_greedy(inst.runtimes)
        rows.append(
            (t, sched.makespan, sched.total_work, int(sched.loads.max()), *stages, greedy, seed)
        )
        if cfg.paired:
            machines = reduced_machine_count(cfg.m, cfg.reference_delta)
            best = inst.runtimes[:, :machines].min(axis=1)
            worst.append(float(best.max()))
            average.append(float(best.sum() / machines))
    return rows, worst, average


def assert_paired_aggregate(aggregate, worst, average):
    """The paired reference's mean, SE and chosen bound, and the ratio."""
    def mean_se(values):
        values = np.array(values)
        se = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
        return float(values.mean()), float(se)

    (wb, wb_se), (ab, ab_se) = mean_se(worst), mean_se(average)
    kind, mean, se = ("worst-best", wb, wb_se) if wb >= ab else ("average-best", ab, ab_se)
    assert aggregate["reference_chosen_bound"] == kind
    assert aggregate["reference_mean"] == mean
    assert aggregate["reference_se"] == se
    assert aggregate["ratio"] == aggregate["mean_makespan"] / mean


PER_JOB = (Exponential(1.0), TwoPoint(0.2, 1.0, 0.5), Uniform(0.0, 1.0), Exponential(2.5))


def campaign_mechanism(kind, c, beta):
    if kind == "minimum-work":
        return MechanismConfig(kind)
    if kind == "bounded-overload":
        return MechanismConfig(kind, c=c)
    if kind == "sieve":
        return MechanismConfig(kind, beta=beta)
    return MechanismConfig(kind, c=c, beta=beta, delta=0.5)


# c = 1.1 keeps the overload cap tight, so the LSA path runs in most trials;
# at c = 1.5 a block mixes trials whose argmin fits the cap with trials where
# it binds.  beta = 0 leaves every job over for the overload stage, 1e9 none.
@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("minimum-work", "bounded-overload", "sieve", "sieve-bounded-overload")),
    c=st.sampled_from([1.1, 1.5]),
    beta=st.sampled_from([0.0, 0.5, 1e9]),
    block=st.integers(1, 4),
    offset=st.sampled_from([-1, 0, 1]),
    n=st.integers(1, 7),
    m=st.integers(2, 5),
    dist=st.sampled_from(["exp", "twopoint", "per-job"]),
    paired=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_campaign_rows_equal_per_trial_recomputation(
    kind, c, beta, block, offset, n, m, dist, paired, seed
):
    mech = campaign_mechanism(kind, c, beta)
    assume(dist != "per-job" or not mech.uses_reserve)
    specs = {
        "exp": Exponential(1.0),
        "twopoint": TwoPoint(0.2, 1.0, 0.5),
        "per-job": tuple(PER_JOB[j % len(PER_JOB)] for j in range(n)),
    }[dist]
    # trials = B - 1, B and B + 1 around a block of B trials; B - 1 = 0 becomes 1
    trials = max(1, block + offset)
    cfg = config(mechanism=mech, dist=specs, n=n, m=m, trials=trials, master_seed=seed,
                 reference="opt-half" if paired else "none", paired=paired)
    with mock.patch.object(campaign, "_BLOCK_CELLS", block * n * m):
        result = run_campaign(cfg)
    rows, worst, average = recomputed(cfg)
    # repr tells 0 from 0.0, as the report does
    assert [repr(row.as_tuple()) for row in result.rows] == [repr(row) for row in rows]
    if paired:
        assert_paired_aggregate(result.aggregate, worst, average)


def test_campaign_rows_equal_per_trial_recomputation_at_default_block():
    # n = m = 64 makes the default block 32 trials; 33 spans two blocks.  At
    # c = 1.5 some trials of a block bind and others do not.
    block = campaign._BLOCK_CELLS // (64 * 64)
    for c in (1.1, 1.5):
        cfg = config(mechanism=MechanismConfig("bounded-overload", c=c), n=64, m=64,
                     trials=block + 1, paired=True)
        result = run_campaign(cfg)
        rows, worst, average = recomputed(cfg)
        assert [row.as_tuple() for row in result.rows] == rows
        assert_paired_aggregate(result.aggregate, worst, average)


@pytest.mark.parametrize("n, m, c", [(1, 4, 1.5), (8, 8, 1.5)])
def test_block_path_checks_the_cap_it_did_not_set(n, m, c):
    # the invariant re-derives the cap; one below the mechanism's must fail.
    # With one job no trial can bind, so the check is on the block's own
    # schedules: the scalar fallback must not even run.
    cfg = config(mechanism=MechanismConfig("bounded-overload", c=c), n=n, m=m, trials=40,
                 reference="none")
    true_cap = campaign.overload_cap(n, m, c)
    assert max(row.max_load for row in run_campaign(cfg).rows) == true_cap
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(campaign, "overload_cap", lambda n, m, c: true_cap - 1)
        )
        if n == 1:
            stack.enter_context(
                mock.patch.object(campaign, "run_mechanism", side_effect=AssertionError)
            )
        with pytest.raises(campaign.InvariantViolation, match="overload cap"):
            run_campaign(cfg)


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("kind", ["bounded-overload", "sieve-bounded-overload"])
def test_bad_sampled_runtime_raises_value_error(bad, kind):
    # one bad cell, in the second block's last trial
    original = Exponential.sample
    calls = []

    def sample(self, rng, size=None):
        values = original(self, rng, size)
        calls.append(None)
        if len(calls) == 6:
            values[-1, -1] = bad
        return values

    mech = MechanismConfig(kind, c=7.0, beta=0.5, delta=0.5)
    cfg = config(mechanism=mech, n=4, m=4, trials=8, reference="none")
    with mock.patch.object(campaign, "_BLOCK_CELLS", 3 * 4 * 4), \
            mock.patch.object(Exponential, "sample", sample):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            run_campaign(cfg)
    assert len(calls) == 6


def test_paired_reference_with_every_makespan_zero():
    # a sieve at beta = 0 schedules no job, so every makespan is 0
    result = run_campaign(config(mechanism=MechanismConfig("sieve", beta=0.0), paired=True))
    assert {row.makespan for row in result.rows} == {0.0}
    assert result.aggregate["ratio"] == 0.0
    assert result.aggregate["ratio_se"] == 0.0


def recounted_cap_bound_trials(cfg):
    """Trials whose capacitated stage's argmin breaks its cap, recounted
    from each trial's freshly sampled instance."""
    mech, n, m = cfg.mechanism, cfg.n, cfg.m
    count = 0
    for t in range(cfg.trials):
        rng = np.random.default_rng(derive_trial_seed(cfg.master_seed, 0, t))
        runtimes = sample_instance(cfg.job_specs, m, rng).runtimes
        if mech.kind == "bounded-overload":
            rows, first, cap = runtimes, 0, math.ceil(mech.c * n / m - 1e-9)
        else:
            m1 = m - partition_sizes(m, mech.delta)[1]
            rows, first = runtimes[runtimes[:, :m1].min(axis=1) > mech.beta], m1
            cap = max(1, math.ceil(mech.c * len(rows) / (m - m1) - 1e-9))
        loads = np.bincount(rows[:, first:].argmin(axis=1), minlength=m - first)
        count += bool(loads.max(initial=0) > cap)
    return count


@pytest.mark.parametrize(
    "mech, n, m",
    [
        (MechanismConfig("bounded-overload", c=1.5), 8, 8),
        (MechanismConfig("sieve-bounded-overload", c=1.5, beta=0.3, delta=0.5), 16, 8),
    ],
)
def test_cap_bound_trials_equal_a_per_trial_recount(mech, n, m):
    # c = 1.5 makes blocks of 7 trials mix binding and non-binding ones
    cfg = config(mechanism=mech, n=n, m=m, trials=120, master_seed=5, reference="none")
    with mock.patch.object(campaign, "_BLOCK_CELLS", 7 * n * m):
        aggregate = run_campaign(cfg).aggregate
    expected = recounted_cap_bound_trials(cfg)
    assert 10 < expected < 110
    assert aggregate["cap_bound_trials"] == expected


def test_rows_carry_expected_fields():
    result = run_campaign(config(trials=5))
    assert len(result.rows) == 5
    for t, row in enumerate(result.rows):
        assert row.trial == t
        assert row.makespan > 0
        assert row.max_load <= 7  # cap at eta = 1, c = 7
        assert row.stage1_makespan is None and row.stage2_makespan is None
        assert row.greedy_first_best > 0
        assert row.seed == derive_trial_seed(123, 0, t)
    assert result.aggregate["reference_machines"] == 4
    assert result.aggregate["ratio"] > 0


def test_combined_campaign_records_stage_makespans():
    mech = MechanismConfig("sieve-bounded-overload", c=7.0, beta=0.3, delta=0.5)
    result = run_campaign(config(mechanism=mech, n=12, m=4, trials=5, reference="none"))
    for row in result.rows:
        assert row.stage1_makespan is not None
        assert row.stage2_makespan is not None
        assert max(row.stage1_makespan, row.stage2_makespan) == pytest.approx(row.makespan)


def test_sieve_campaign_derives_reserve_from_k():
    mech = MechanismConfig("sieve", k=1.0)
    result = run_campaign(config(mechanism=mech, n=10, m=5, trials=3, reference="none"))
    assert len(result.rows) == 3


def test_paired_reference_uses_shared_instances():
    paired = run_campaign(config(paired=True, trials=50))
    fresh = run_campaign(config(paired=False, trials=50))
    assert paired.aggregate["ratio"] > 0
    assert fresh.aggregate["ratio"] > 0
    assert paired.aggregate["reference_chosen_bound"] in ("worst-best", "average-best")
    # same mechanism rows either way
    assert [r.makespan for r in paired.rows] == [r.makespan for r in fresh.rows]


def test_paired_one_trial_report_is_strict_json():
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    result = run_campaign(config(paired=True, trials=1))
    assert result.aggregate["ratio_se"] == 0.0
    payload = json.loads(emit_report(result, None, fmt="json"), parse_constant=reject)
    assert payload["aggregate"]["ratio_se"] == 0.0


def test_paired_mode_reduces_ratio_variance():
    # makespan and the same-instance reference move together, so the delta
    # method's covariance term must shrink the ratio SE vs fresh draws
    paired = run_campaign(config(paired=True, trials=400))
    fresh = run_campaign(config(paired=False, trials=400))
    assert paired.aggregate["ratio_se"] < fresh.aggregate["ratio_se"]


def test_reference_error_on_degenerate_machine_count():
    with pytest.raises(ValueError, match="at least one machine"):
        config(n=1, m=1, trials=1)
    # without a reference the degenerate single-cell campaign is fine:
    # the makespan of each trial is just the single draw
    result = run_campaign(
        config(mechanism=MechanismConfig("minimum-work"), n=1, m=1, trials=2,
               reference="none")
    )
    for row in result.rows:
        assert row.makespan == row.total_work > 0


def test_heterogeneous_specs_rejected_for_sieve_kinds():
    specs = (Exponential(1.0), Uniform(0.0, 1.0))
    mech = MechanismConfig("sieve", beta=0.5)
    with pytest.raises(ValueError, match="identically distributed"):
        ExperimentConfig(
            mechanism=mech, dist=specs, n=2, m=2, trials=1, master_seed=0, reference="none"
        )
    # heterogeneous jobs are fine for the range-restricted kinds
    ExperimentConfig(
        mechanism=MechanismConfig("bounded-overload"),
        dist=specs,
        n=2,
        m=2,
        trials=1,
        master_seed=0,
        reference="none",
    )


def test_invalid_config_values_rejected():
    with pytest.raises(ValueError):
        config(trials=0)
    with pytest.raises(ValueError):
        config(master_seed=-1)
    with pytest.raises(ValueError):
        config(reference="opt-quarter")


# ------------------------------------------------------------------- reports


def test_csv_round_trip(tmp_path):
    result = run_campaign(config(trials=4))
    path = tmp_path / "r.csv"
    emit_report(result, path, "csv")
    parsed = parse_report(path.read_text())
    assert parsed["config"]["mechanism"] == "bounded-overload"
    assert parsed["aggregate"] == result.aggregate
    assert [r.as_tuple() for r in parsed["rows"]] == [r.as_tuple() for r in result.rows]


def test_json_round_trip(tmp_path):
    result = run_campaign(config(trials=4))
    path = tmp_path / "r.json"
    emit_report(result, path, "json")
    parsed = parse_report(path.read_text())
    assert parsed["aggregate"] == result.aggregate
    assert [r.as_tuple() for r in parsed["rows"]] == [r.as_tuple() for r in result.rows]


def test_zero_rows_header_only():
    result = CampaignResult(config(trials=1), [], {"trials": 0}, None)
    text = emit_report(result, None, "csv")
    lines = text.strip().splitlines()
    assert lines[-1] == ",".join(REPORT_COLUMNS)
    parsed = parse_report(text)
    assert parsed["rows"] == []


def test_version_string_present_in_reports():
    text = emit_report(run_campaign(config(trials=1)), None, "csv")
    assert "# version=schedmech" in text
    assert version_string().startswith("schedmech ")


# ----------------------------------------------------------------------- CLI


def test_cli_simulate_stdout(capsys):
    rc = main(
        [
            "simulate",
            "--mechanism",
            "minimum-work",
            "--dist",
            "exp:1.0",
            "--n",
            "4",
            "--m",
            "4",
            "--trials",
            "3",
            "--seed",
            "9",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    parsed = parse_report(out)
    assert len(parsed["rows"]) == 3


def test_cli_simulate_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "simulate",
            "--mechanism",
            "sieve",
            "--beta",
            "0.4",
            "--dist",
            "uniform:0,1",
            "--n",
            "6",
            "--m",
            "3",
            "--trials",
            "2",
            "--seed",
            "1",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert rc == 0
    parsed = parse_report(out.read_text())
    assert parsed["config"]["mechanism"] == "sieve"
    assert len(parsed["rows"]) == 2


def test_cli_verify_single_check(capsys):
    rc = main(["verify", "--lemma", "min-hazard-identity", "--seed", "3"])
    assert rc == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert all(rec["pass"] for rec in lines)
    assert {rec["lemma_id"] for rec in lines} == {"min-hazard-identity"}


def test_cli_verify_writes_records(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    rc = main(
        ["verify", "--lemma", "sieve-unscheduled", "--trials", "300", "--seed", "2",
         "--out", str(out)]
    )
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert records and records[0]["lemma_id"] == "sieve-unscheduled"


def test_cli_ic_audit(capsys):
    rc = main(
        [
            "ic-audit",
            "--mechanism",
            "bounded-overload",
            "--c",
            "2.0",
            "--dist",
            "exp:1.0",
            "--n",
            "3",
            "--m",
            "2",
            "--trials",
            "3",
            "--seed",
            "4",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == []


def test_cli_ic_audit_derives_the_reserve_like_simulate(capsys):
    # the count-target reserve at --k, as simulate derives it; the sieve is truthful
    rc = main(["ic-audit", "--mechanism", "sieve", "--k", "0.5", "--n", "4", "--m", "3",
               "--trials", "2", "--seed", "5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


def test_cli_bounds(capsys):
    rc = main(["bounds", "--dist", "exp:1.0", "--n", "4", "--m", "4",
               "--delta", "0.5", "--trials", "2000", "--seed", "6"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"worst-best", "average-best", "max-of-both"}
    assert out["max-of-both"]["machines"] == 2


def test_cli_dist_parsing_matches_api():
    spec = parse_distribution("twopoint:1,10,0.5")
    assert spec.low == 1.0 and spec.high == 10.0 and spec.p_high == 0.5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--n", "0"], "need n >= 1"),
        (["simulate", "--mechanism", "sieve", "--trials", "2"], "needs --beta or"),
        (
            ["ic-audit", "--mechanism", "bounded-overload", "--c", "1.1", "--n", "4", "--m", "2",
             "--trials", "2"],
            "is infeasible",
        ),
        (
            ["simulate", "--mechanism", "sieve", "--k", "1", "--dist", "pareto:0.3,2", "--n", "4",
             "--m", "3", "--trials", "2"],
            "is infinite",
        ),
        (["simulate", "--dist", "empirical:/nonexistent/sizes.txt"], "cannot read empirical"),
        (["verify", "--lemma", "mhr-scaling", "--trials", "0"], "--trials >= 2"),
        (["verify", "--lemma", "random-copies", "--trials", "1"], "--trials >= 2"),
        (["ic-audit", "--mechanism", "sieve", "--trials", "2"], "needs --beta or"),
        (["ic-audit", "--trials", "0"], "need trials >= 1"),
        (["bounds", "--trials", "1"], "--trials >= 2"),
        (
            ["simulate", "--dist", "twopoint:0,1,0.0", "--n", "3", "--m", "2",
             "--reference", "opt-half", "--trials", "4"],
            "mean is zero",
        ),
        (
            ["simulate", "--dist", "twopoint:0,1,0.0", "--n", "3", "--m", "2",
             "--reference", "opt-half", "--trials", "4", "--paired"],
            "mean is zero",
        ),
        (["ic-audit", "--mechanism", "sieve", "--beta", "nan", "--trials", "2"], "finite"),
        (["simulate", "--mechanism", "bounded-overload", "--c", "inf", "--trials", "2"], "finite"),
        (["simulate", "--dist", "uniform:0,inf", "--trials", "2"], "uniform requires"),
        (["bounds", "--delta", "2", "--m", "16", "--trials", "2"], "(0, 1]"),
        (["bounds", "--delta", "nan", "--trials", "2"], "(0, 1]"),
    ],
)
def test_cli_bad_input_exits_with_one_line_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1
