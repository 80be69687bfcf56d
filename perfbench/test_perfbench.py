"""Tests of the benchmark itself: tracing coverage, span counts derived
independently of the spans, output checks, digests and the result line.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import schedmech  # noqa: E402
import schedmech.assignment  # noqa: E402
import schedmech.campaign  # noqa: E402
import schedmech.mechanisms  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_step(wl, step=0):
    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs, outputs, _ = run.run_step(wl, step, tracer)
    finally:
        tracer.uninstall()
    metrics, _ = spans.summarize(tracer.spans, 1.0, 1.0)
    return inputs, outputs, metrics


def test_tracer_wraps_every_binding_site_and_restores_them():
    originals = {
        "solve_min_work": schedmech.assignment.solve_min_work,
        "linear_sum_assignment": schedmech.assignment.linear_sum_assignment,
        "first_best_makespan_greedy": schedmech.assignment.first_best_makespan_greedy,
        "run_mechanism": schedmech.mechanisms.run_mechanism,
        "sample_instance": schedmech.instances.sample_instance,
        "opt_reference": schedmech.optbounds.opt_reference,
        "run_campaign": schedmech.campaign.run_campaign,
        "version_string": schedmech.campaign.version_string,
    }
    sites = [
        (schedmech.mechanisms, "solve_min_work"),
        (schedmech.assignment, "linear_sum_assignment"),
        (schedmech.campaign, "first_best_makespan_greedy"),
        (schedmech.campaign, "run_mechanism"),
        (schedmech.campaign, "sample_instance"),
        (schedmech.campaign, "opt_reference"),
        (schedmech, "solve_min_work"),
        (schedmech, "run_campaign"),
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr in sites:
            assert getattr(module, attr) is not originals[attr], f"{module.__name__}.{attr}"
        leftovers = [
            f"{name}.{attr}"
            for name, module in sys.modules.items()
            if name == "schedmech" or name.startswith("schedmech.")
            for attr, value in vars(module).items()
            if any(value is fn for fn in originals.values())
        ]
        assert leftovers == []
    finally:
        tracer.uninstall()
    for module, attr in sites:
        assert getattr(module, attr) is originals[attr]


def test_campaign_bo64_counts_one_solve_greedy_and_sample_per_trial():
    wl = workloads.campaign_bo64(seed=3)
    wl.config = dataclasses.replace(wl.config, trials=30)
    master_seed, outputs, metrics = traced_step(wl)
    result, text = outputs[0]
    n = m = 64
    trials = 30
    binding = 0
    for t in range(trials):
        seed = schedmech.campaign.derive_trial_seed(master_seed, workloads.TRIAL_STREAM, t)
        runtimes = np.random.default_rng(seed).exponential(1.0, (n, m))
        binding += np.bincount(runtimes.argmin(axis=1), minlength=m).max() > 7
    reference_machines = 32  # opt-half of 64
    assert metrics["assignment.solve_calls"] == trials
    assert metrics["assignment.greedy_calls"] == trials
    assert metrics["instances.sample_calls"] == trials
    assert metrics["mechanisms.run_calls"] == trials
    assert metrics["assignment.lsa_calls"] == binding
    # one draw per trial instance, plus one per job for the reference bound
    assert metrics["distributions.sample_calls"] == trials + n
    assert metrics["distributions.values_drawn"] == trials * n * m + n * trials * reference_machines
    assert metrics["optbounds.reference_calls"] == 1
    assert metrics["campaign.report_bytes"] == len(text.encode())
    assert metrics["mechanisms.pivot_solves"] == 0
    assert wl.check(0, master_seed, outputs) == []


def test_payments_count_one_pivot_solve_per_loaded_machine():
    wl = workloads.PaymentsWorkload(seed=4)
    inst, outputs, metrics = traced_step(wl)
    runtimes = inst.runtimes
    n, m, cap = 256, 64, 6
    loaded = np.flatnonzero(np.bincount(outputs[0].schedule.assignment, minlength=m))
    expected_cells = 0
    for excluded in [None, *loaded]:
        machines = [i for i in range(m) if i != excluded]
        pick = np.asarray(machines)[runtimes[:, machines].argmin(axis=1)]
        if np.bincount(pick, minlength=m).max() > cap:
            expected_cells += n * len(machines) * cap
    assert metrics["mechanisms.pivot_solves"] == loaded.size
    assert metrics["assignment.solve_calls"] == 1 + loaded.size
    assert metrics["assignment.lsa_cells"] == expected_cells
    assert metrics["mechanisms.run_calls"] == 1
    assert metrics["assignment.greedy_calls"] == 0
    assert metrics["distributions.sample_calls"] == 0
    assert wl.check(0, inst, outputs) == []


def test_audit_counts_solves_per_audited_machine():
    wl = workloads.AuditWorkload(seed=5)
    inst, outputs, metrics = traced_step(wl)
    n, m = 8, 6
    per_machine = 2 + 7 + n * (n - 1) // 2  # pivot, truthful, 7 scalings/sentinel, swaps
    m1 = 2  # ceil((1 - 2/3) * 6)
    beta = wl.configs[2].beta
    leftovers = bool((inst.runtimes[:, :m1].min(axis=1) > beta).any())
    combined = m1 * per_machine + (m - m1) * (1 + (per_machine if leftovers else 0))
    assert metrics["mechanisms.audit_calls"] == 4
    assert metrics["mechanisms.audit_solves"] == 3 * m * per_machine + combined
    assert metrics["assignment.solve_calls"] == metrics["mechanisms.audit_solves"]
    assert metrics["mechanisms.pivot_solves"] == 3 * m + m1 + ((m - m1) if leftovers else 0)
    assert wl.check(0, inst, outputs) == []


def test_checks_fail_on_altered_outputs():
    wl = workloads.campaign_bo64(seed=6)
    wl.config = dataclasses.replace(wl.config, trials=5)
    master_seed = wl.inputs(0)
    _, outputs, _ = run.run_step(wl, 0)
    result, text = outputs[0]
    result.rows[2] = dataclasses.replace(result.rows[2], total_work=result.rows[2].total_work * 1.001)
    assert len(wl.check(0, master_seed, outputs)) == 1

    sieve = workloads.campaign_sieve512(seed=6)
    sieve.config = dataclasses.replace(sieve.config, trials=3)
    master_seed = sieve.inputs(0)
    _, outputs, _ = run.run_step(sieve, 0)
    rows = outputs[0][0].rows
    rows[0] = dataclasses.replace(rows[0], stage1_makespan=rows[0].stage1_makespan + 0.5)
    assert len(sieve.check(0, master_seed, outputs)) == 1

    pay = workloads.PaymentsWorkload(seed=6)
    inst, outputs, _ = run.run_step(pay, 0)
    outcome = outputs[0]
    bad = dataclasses.replace(outcome, payments=outcome.payments - 1.0)
    assert pay.check(0, inst, [bad]) != []
    assert pay.check(0, inst, [RuntimeError("boom")]) != []


def test_report_digest_ignores_only_the_version_line():
    wl = workloads.campaign_bo64(seed=7)
    wl.config = dataclasses.replace(wl.config, trials=4)
    _, first, _ = run.run_step(wl, 0)
    _, again, _ = run.run_step(wl, 0)
    _, other, _ = run.run_step(wl, 1)
    assert wl.digest(first) == wl.digest(again) != wl.digest(other)
    text = first[0][1]
    relabelled = text.replace("# version=", "# version=other-")
    assert workloads.report_digest(relabelled) == workloads.report_digest(text)
    assert workloads.report_digest(text.replace("\n1,", "\n9,", 1)) != workloads.report_digest(text)


def test_benchmark_json_lists_the_printed_metrics():
    per_layer = {item["name"]: item["unit"] for item in BENCHMARK["per_layer"]}
    assert per_layer == dict(spans.METRICS)
    end_to_end = {item["name"]: item["unit"] for item in BENCHMARK["end_to_end"]}
    assert end_to_end == run.UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "audit-n8", "--seed", "2",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        item["name"]: item["unit"] for item in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        wall = result["metrics"]["trace.wall_s"]["value"]
        assert 0 <= result["metrics"]["trace.untraced_s"]["value"] < 0.05 * wall


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-bo64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sieve_stage_sizes_match_the_library():
    assert schedmech.mechanisms.partition_sizes(32, 2.0 / 3.0)[0] == math.ceil(32 / 3)
    assert schedmech.mechanisms.partition_sizes(6, 2.0 / 3.0)[0] == 2
