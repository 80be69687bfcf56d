import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedmech import campaign
from schedmech.assignment import first_best_makespan_greedy
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


def recomputed_rows(cfg):
    """Each trial on its own, through the scalar path: seed, sample, run."""
    mech = cfg.mechanism
    rows = []
    for t in range(cfg.trials):
        seed = derive_trial_seed(cfg.master_seed, 0, t)
        inst = sample_instance(cfg.job_specs, cfg.m, np.random.default_rng(seed))
        sched = run_mechanism(mech, inst, compute_payments=False).schedule
        stages = (None, None)
        if mech.kind == "sieve-bounded-overload":
            m1, _ = partition_sizes(cfg.m, mech.delta)
            stages = (float(sched.works[:m1].max()), float(sched.works[m1:].max()))
        greedy = first_best_makespan_greedy(inst)
        rows.append(
            (t, sched.makespan, sched.total_work, int(sched.loads.max()), *stages, greedy, seed)
        )
    return rows


# c = 1.1 keeps the overload cap tight, so the LSA path runs in most trials.
MECHANISMS = (
    MechanismConfig("minimum-work"),
    MechanismConfig("bounded-overload", c=1.1),
    MechanismConfig("sieve", beta=0.5),
    MechanismConfig("sieve-bounded-overload", c=1.1, beta=0.5, delta=0.5),
)


@settings(max_examples=40, deadline=None)
@given(
    mech=st.sampled_from(MECHANISMS),
    block=st.integers(1, 4),
    offset=st.sampled_from([-1, 0, 1]),
    n=st.integers(1, 7),
    m=st.integers(2, 5),
    dist=st.sampled_from([Exponential(1.0), TwoPoint(0.2, 1.0, 0.5)]),
    seed=st.integers(0, 2**31),
)
def test_campaign_rows_equal_per_trial_recomputation(mech, block, offset, n, m, dist, seed):
    # trials = B - 1, B and B + 1 around a block of B trials; B - 1 = 0 becomes 1
    trials = max(1, block + offset)
    cfg = config(mechanism=mech, dist=dist, n=n, m=m, trials=trials, master_seed=seed,
                 reference="none")
    with mock.patch.object(campaign, "_BLOCK_CELLS", block * n * m):
        rows = run_campaign(cfg).rows
    assert [row.as_tuple() for row in rows] == recomputed_rows(cfg)


def test_campaign_rows_equal_per_trial_recomputation_at_default_block():
    # n = m = 64 makes the default block 32 trials; 33 spans two blocks
    block = campaign._BLOCK_CELLS // (64 * 64)
    cfg = config(mechanism=MECHANISMS[1], n=64, m=64, trials=block + 1)
    assert [row.as_tuple() for row in run_campaign(cfg).rows] == recomputed_rows(cfg)


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
