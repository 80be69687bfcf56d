"""The benchmark's four workloads.

Each workload is a closed loop with one client in one thread.  Step ``k``
builds its inputs from ``(seed, k)``, then makes its public schedmech calls
one after another; the next call starts when the previous one returns.
``check`` verifies a step's outputs after its calls, outside the timed
section, and returns one message per failed operation.

An operation is one campaign trial, one instance with all its Clarke
payments, or one instance audited under all four mechanisms.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

import schedmech as sm
from schedmech.campaign import derive_trial_seed

import oracles

EXP1 = sm.parse_distribution("exp:1.0")
TWOPOINT = sm.parse_distribution("twopoint:1,10,0.5")

# Trials per campaign call.  A call also pays a cost that does not grow with
# its trials, version_string's ``git describe`` child among it.  Measured as
# a 1-trial call minus one trial, it is about 6 ms at n = m = 64 and 10 ms at
# n = 512, m = 32, against 0.73 and 3.9 ms per trial, so about 1% of a call
# at these counts.  The acceptance criteria run 10,000 and 2,000 trials,
# where it is about 0.1%; calls that long would leave too few in a run for a
# median, and make every setup probe's warm-up call take seconds.
BO64_TRIALS = 1000
SIEVE512_TRIALS = 250

# derive_trial_seed's stream for trial instances (the reference bound uses 1).
TRIAL_STREAM = 0


def step_rng(seed: int, step: int, purpose: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, step, purpose])


def report_digest(text: str) -> str:
    """SHA-256 of a report without its ``# version=`` line, which embeds
    ``git describe --dirty`` and so changes with every commit."""
    body = "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("# version=")
    )
    return hashlib.sha256(body.encode()).hexdigest()


class CampaignWorkload:
    """One call is ``run_campaign`` plus ``emit_report``, at ``threads=1``."""

    reports = True

    def __init__(self, seed, mechanism, n, m, reference, trials, greedy_checks, check_trial):
        self.seed = seed
        self.config = sm.ExperimentConfig(
            mechanism=mechanism, dist=EXP1, n=n, m=m, trials=trials,
            master_seed=0, reference=reference, threads=1,
        )
        self.ops_per_step = trials
        self.greedy_checks = greedy_checks
        self.check_trial = check_trial

    def inputs(self, step: int) -> int:
        return int(step_rng(self.seed, step).integers(2**63))

    def calls(self, master_seed: int):
        return [lambda: self._campaign(master_seed)]

    def _campaign(self, master_seed: int):
        result = sm.run_campaign(dataclasses.replace(self.config, master_seed=master_seed))
        return result, sm.emit_report(result, None)

    def digest(self, outputs) -> str | None:
        out = outputs[0]
        return None if isinstance(out, BaseException) else report_digest(out[1])

    def check(self, step: int, master_seed: int, outputs) -> list[str]:
        out = outputs[0]
        trials = self.config.trials
        if isinstance(out, BaseException):
            return [f"campaign raised {out!r}"] * trials
        rows = out[0].rows
        if [row.trial for row in rows] != list(range(trials)):
            return ["report rows are not trials 0..trials-1"] * trials
        n, m = self.config.n, self.config.m
        sampled = min(self.greedy_checks, trials)
        greedy = set(step_rng(self.seed, step, 1).choice(trials, sampled, replace=False))
        failures = []
        for row in rows:
            seed = derive_trial_seed(master_seed, TRIAL_STREAM, row.trial)
            runtimes = np.random.default_rng(seed).exponential(1.0, (n, m))
            problems = [] if row.seed == seed else [f"seed {row.seed} != {seed}"]
            problems += self.check_trial(row, runtimes)
            if row.trial in greedy:
                expected = oracles.greedy_makespan(runtimes)
                if not oracles.close(row.greedy_first_best, expected):
                    problems.append(f"greedy {row.greedy_first_best!r} != oracle {expected!r}")
            if problems:
                failures.append(f"trial {row.trial}: " + "; ".join(problems))
        return failures


def campaign_bo64(seed: int) -> CampaignWorkload:
    n = m = 64
    c = 7.0
    cap = math.ceil(c * n / m)
    return CampaignWorkload(
        seed, sm.MechanismConfig("bounded-overload", c=c), n, m, "opt-half",
        trials=BO64_TRIALS, greedy_checks=5,
        check_trial=lambda row, runtimes: oracles.check_bounded_overload_trial(row, runtimes, cap),
    )


def campaign_sieve512(seed: int) -> CampaignWorkload:
    n, m, c, delta = 512, 32, 7.0, 2.0 / 3.0
    beta = sm.derive_reserve(EXP1, n, m, delta=delta, rule="sqrt-log")
    m1 = math.ceil((1.0 - delta) * m - 1e-9)
    return CampaignWorkload(
        seed, sm.MechanismConfig("sieve-bounded-overload", c=c, beta=beta, delta=delta),
        n, m, "opt-third", trials=SIEVE512_TRIALS, greedy_checks=2,
        check_trial=lambda row, runtimes: oracles.check_sieve_overload_trial(row, runtimes, beta, m1, c),
    )


class PaymentsWorkload:
    """One call is ``run_bounded_overload`` with payments on a fresh instance."""

    n, m, c = 256, 64, 1.5
    ops_per_step = 1
    reports = False

    def __init__(self, seed: int):
        self.seed = seed
        self.cap = math.ceil(self.c * self.n / self.m)

    def inputs(self, step: int):
        runtimes = step_rng(self.seed, step).exponential(1.0, (self.n, self.m))
        return sm.Instance(runtimes, (EXP1,) * self.n)

    def calls(self, inst):
        return [lambda: sm.run_bounded_overload(inst, c=self.c)]

    def digest(self, outputs) -> str | None:
        out = outputs[0]
        if isinstance(out, BaseException):
            return None
        data = np.asarray(out.schedule.assignment).tobytes() + np.asarray(out.payments).tobytes()
        return hashlib.sha256(data).hexdigest()

    def check(self, step: int, inst, outputs) -> list[str]:
        outcome = outputs[0]
        if isinstance(outcome, BaseException):
            return [f"payments raised {outcome!r}"]
        loaded = np.flatnonzero(np.asarray(outcome.schedule.loads) > 0)
        machine = int(step_rng(self.seed, step, 1).choice(loaded))
        problems = oracles.check_payments(outcome, inst.runtimes, self.cap, machine)
        return ["; ".join(problems)] if problems else []


class AuditWorkload:
    """One call is one ``ic_audit`` sweep; a step audits one instance under
    all four mechanisms."""

    n, m = 8, 6
    ops_per_step = 1
    reports = False

    def __init__(self, seed: int):
        self.seed = seed
        beta = sm.derive_reserve(TWOPOINT, self.n, self.m, rule="count-target", k=1.0)
        self.configs = [
            sm.MechanismConfig("minimum-work"),
            sm.MechanismConfig("bounded-overload", c=2.0),
            sm.MechanismConfig("sieve", beta=beta),
            sm.MechanismConfig("sieve-bounded-overload", c=2.0, beta=beta, delta=2.0 / 3.0),
        ]

    def inputs(self, step: int):
        draws = step_rng(self.seed, step).random((self.n, self.m))
        return sm.Instance(np.where(draws < 0.5, 10.0, 1.0), (TWOPOINT,) * self.n)

    def calls(self, inst):
        return [lambda config=config: sm.ic_audit(config, inst) for config in self.configs]

    def digest(self, outputs) -> None:
        """No digest: an audit that passes returns four empty violation lists
        on every instance, so a digest would compare equal whatever the
        library did.  ``check`` covers these outputs."""
        return None

    def check(self, step: int, inst, outputs) -> list[str]:
        problems = [
            f"{config.kind}: {out!r}"
            for config, out in zip(self.configs, outputs)
            if isinstance(out, BaseException) or out
        ]
        return ["; ".join(problems)] if problems else []


WORKLOADS = {
    "campaign-bo64": campaign_bo64,
    "campaign-sieve512": campaign_sieve512,
    "payments-bo256": PaymentsWorkload,
    "audit-n8": AuditWorkload,
}
