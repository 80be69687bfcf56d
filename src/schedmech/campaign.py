"""Seeded simulation campaigns with CSV/JSON report emission.

A campaign samples ``trials`` fresh instances, runs the configured
mechanism on each (payments skipped; they do not affect the schedule), and
aggregates makespans together with an optional ratio against a first-best
reference bound.  Determinism is absolute: every trial derives its own seed
from ``(master_seed, stream, trial_index)``, so results are byte-identical
for a given configuration.

Trials run serially in fixed blocks of about ``_BLOCK_CELLS`` runtime
entries.  Each trial still draws from its own seeded generator, straight
into the block's ``(B, n, m)`` buffer; the rest is array operations over
the block.  Each stage of the mechanism is one argmin over the block (with
the sieve's reserve as a mask), and loads and works are one ``bincount``.
A trial in which a capacitated stage's argmin breaks the cap is run alone
through :func:`schedmech.mechanisms.run_mechanism`, so its schedule is the
scalar one.  The greedy first-best column is computed for the whole block
by :func:`schedmech.assignment.greedy_makespans`.  The block size changes
no number in a report.  ``threads`` is accepted but has no effect.

Report layout (CSV): `#`-prefixed header lines carry the configuration
echo, a version string and the aggregate statistics (among them the
deterministic counter ``cap_bound_trials``: the trials in which a
capacitated stage's argmin broke its cap, so that the scalar path ran);
then one row per trial
with columns ``trial,makespan,total_work,max_load,stage1_makespan,
stage2_makespan,greedy_first_best,seed`` (empty fields where a column does
not apply).  The JSON format mirrors the same fields.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__

# first_best_makespan_greedy and sample_instance are no longer called here;
# the names stay importable from this module because perfbench's tracer
# tests look them up.
from .assignment import (  # noqa: F401
    UNSCHEDULED,
    argmin_assignment,
    available_machines,
    first_best_makespan_greedy,
    greedy_makespans,
)
from .distributions import DistributionSpec
from .instances import Instance, runtime_sampler, sample_instance  # noqa: F401
from .mechanisms import MechanismConfig, derive_reserve, overload_cap, run_mechanism, stage_ranges
from .optbounds import (
    OptEstimate,
    larger_bound,
    mean_se,
    opt_reference,
    ratio_se,
    reduced_machine_count,
)

__all__ = [
    "REFERENCES",
    "REPORT_COLUMNS",
    "ExperimentConfig",
    "ReportRow",
    "CampaignResult",
    "InvariantViolation",
    "run_campaign",
    "emit_report",
    "parse_report",
    "version_string",
    "derive_trial_seed",
    "resolve_reserve",
]

REFERENCES = ("none", "opt-half", "opt-third", "opt-delta-half")
REPORT_COLUMNS = (
    "trial",
    "makespan",
    "total_work",
    "max_load",
    "stage1_makespan",
    "stage2_makespan",
    "greedy_first_best",
    "seed",
)

_TRIAL_STREAM = 0
_REFERENCE_STREAM = 1

# Structural slack when asserting makespan >= the largest scheduled runtime.
_INVARIANT_TOL = 1e-9

# Runtime entries per trial block: 2**17 float64 values, 1 MiB.  A larger
# block spreads the greedy's per-job-position numpy calls over more trials,
# but its buffer adds to peak memory.
_BLOCK_CELLS = 2**17


class InvariantViolation(AssertionError):
    """A per-trial structural invariant failed (load cap, makespan floor)."""


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: MechanismConfig
    dist: DistributionSpec | tuple[DistributionSpec, ...]
    n: int
    m: int
    trials: int
    master_seed: int
    reference: str = "none"
    paired: bool = False
    threads: int = 0  # accepted for compatibility; has no effect (trials run serially)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if self.master_seed < 0:
            raise ValueError("master seed must be a nonnegative integer")
        if self.reference not in REFERENCES:
            raise ValueError(f"unknown reference {self.reference!r}")
        if isinstance(self.dist, tuple) and len(self.dist) != self.n:
            raise ValueError("per-job spec list must have length n")
        if self.mechanism.uses_reserve and isinstance(self.dist, tuple):
            if any(s is not self.dist[0] for s in self.dist):
                raise ValueError(
                    "sieve-based mechanisms require identically distributed jobs"
                )
        if self.reference_delta is not None:
            reduced_machine_count(self.m, self.reference_delta)

    @property
    def reference_delta(self) -> float | None:
        if self.reference == "none":
            return None
        if self.reference == "opt-half":
            return 0.5
        if self.reference == "opt-third":
            return 1.0 / 3.0
        if self.mechanism.delta is None:
            raise ValueError("opt-delta-half needs a mechanism partition delta")
        return 0.5 * self.mechanism.delta

    @property
    def job_specs(self) -> tuple[DistributionSpec, ...]:
        if isinstance(self.dist, tuple):
            return self.dist
        return (self.dist,) * self.n

    def echo(self) -> dict:
        """Configuration summary embedded in reports (thread count omitted:
        it never affects the numbers)."""
        mech = self.mechanism
        if isinstance(self.dist, tuple):
            dist = [s.spec_string for s in self.dist]
        else:
            dist = self.dist.spec_string
        return {
            "mechanism": mech.kind,
            "c": mech.c,
            "beta": mech.beta,
            "delta": mech.delta,
            "k": mech.k,
            "dist": dist,
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "reference": self.reference,
            "paired": self.paired,
        }


@dataclass(frozen=True)
class ReportRow:
    trial: int
    makespan: float
    total_work: float
    max_load: int
    stage1_makespan: float | None
    stage2_makespan: float | None
    greedy_first_best: float
    seed: int

    def as_tuple(self) -> tuple:
        return (
            self.trial,
            self.makespan,
            self.total_work,
            self.max_load,
            self.stage1_makespan,
            self.stage2_makespan,
            self.greedy_first_best,
            self.seed,
        )


@dataclass
class CampaignResult:
    config: ExperimentConfig
    rows: list[ReportRow]
    aggregate: dict
    reference: OptEstimate | None


def derive_trial_seed(master_seed: int, stream: int, index: int) -> int:
    """Stable 64-bit seed for (master, stream, trial); order-independent."""
    state = np.random.SeedSequence((master_seed, stream, index)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def resolve_reserve(
    mech: MechanismConfig, spec: DistributionSpec, n: int, m: int
) -> MechanismConfig:
    """``mech`` with a missing reserve filled in by the count-target rule at
    its tuning parameter ``k``."""
    if not mech.uses_reserve or mech.beta is not None:
        return mech
    if mech.k is None:
        raise ValueError(f"{mech.kind} needs --beta or the tuning parameter --k")
    return replace(mech, beta=derive_reserve(spec, n, m, rule="count-target", k=mech.k))


def _check_invariants(cfg: ExperimentConfig, mech: MechanismConfig, assignment, loads, works, top):
    """Every trial of a block: makespan at least its largest scheduled
    runtime ``top``, and the cap and completeness re-derived from the config."""
    if (works.max(axis=1) < top - _INVARIANT_TOL).any():
        raise InvariantViolation("makespan fell below the largest scheduled runtime")
    if mech.kind == "bounded-overload":
        if loads.max() > overload_cap(cfg.n, cfg.m, mech.c):
            raise InvariantViolation("a machine exceeded the overload cap")
    if mech.kind == "sieve-bounded-overload" and (assignment == UNSCHEDULED).any():
        raise InvariantViolation("combined mechanism left a job unscheduled")


def _per_machine(trial: np.ndarray, machine: np.ndarray, shape: tuple[int, int], weights=None):
    """``(B, m)`` job counts, or sums of ``weights``, of the jobs placed on
    ``machine`` in ``trial``; each bin adds in the order of the jobs given."""
    trials, m = shape
    return np.bincount(trial * m + machine, weights, minlength=trials * m).reshape(trials, m)


def _schedule_block(cfg: ExperimentConfig, mech: MechanismConfig, ranges, runtimes: np.ndarray):
    """The mechanism on every trial of ``runtimes`` (``(B, n, m)``), whose
    ranges are ``ranges`` (from :func:`stage_ranges`): each trial's loads
    and works, ``(B, m)``, and which trials had a capacitated stage whose
    argmin broke its cap.

    Each stage is its argmin rule over the whole block.  A trial in which
    the cap binds is run through :func:`run_mechanism` on its own instead,
    so its schedule is exactly the scalar one.  Loads and works are one
    ``bincount`` over the block in (trial, job) order, so each sum adds in
    the order of ``schedule_from_assignment``.
    """
    trials, n, m = runtimes.shape
    first, then = ranges
    assignment = argmin_assignment(runtimes, available_machines(m, first), first.reserve)
    bound = np.zeros(trials, dtype=bool)
    if first.cap is not None:
        trial, job = np.nonzero(assignment != UNSCHEDULED)
        bound |= (_per_machine(trial, assignment[trial, job], (trials, m)) > first.cap).any(axis=1)
    if then is not None:
        trial, job = np.nonzero(assignment == UNSCHEDULED)
        second = then(1)  # only its cap depends on the number of leftovers
        placed = argmin_assignment(
            runtimes[trial, job], available_machines(m, second), second.reserve
        )
        caps = [[then(int(u)).cap if u else 1] for u in np.bincount(trial, minlength=trials)]
        bound |= (_per_machine(trial, placed, (trials, m)) > np.array(caps)).any(axis=1)
        assignment[trial, job] = placed
    for b in np.flatnonzero(bound):
        outcome = run_mechanism(mech, Instance(runtimes[b], cfg.job_specs), compute_payments=False)
        assignment[b] = outcome.schedule.assignment

    placed = assignment != UNSCHEDULED
    chosen = np.take_along_axis(runtimes, np.maximum(assignment, 0)[..., None], axis=2)[..., 0]
    trial, job = np.nonzero(placed)
    machine = assignment[trial, job]
    loads = _per_machine(trial, machine, (trials, m))
    # float even when no job is placed, where bincount gives ints
    works = _per_machine(trial, machine, (trials, m), chosen[trial, job]).astype(float, copy=False)
    top = np.where(placed, chosen, -np.inf).max(axis=1)
    _check_invariants(cfg, mech, assignment, loads, works, top)
    return loads, works, bound


def _run_trials(cfg: ExperimentConfig, mech: MechanismConfig):
    """Rows, paired-reference statistics and the number of trials in which
    a cap bound, one block of trials at a time."""
    n, m = cfg.n, cfg.m
    sample = runtime_sampler(cfg.job_specs)
    block = max(1, _BLOCK_CELLS // (n * m))
    buffer = np.empty((min(block, cfg.trials), n, m))
    first, then = stage_ranges(mech, n, m)
    in_first = np.zeros(m, dtype=bool)
    in_first[available_machines(m, first)] = True
    delta = cfg.reference_delta
    reduced = reduced_machine_count(m, delta) if cfg.paired and delta is not None else None
    rows, paired = [], []
    bound_trials = 0
    for start in range(0, cfg.trials, block):
        count = min(block, cfg.trials - start)
        runtimes = buffer[:count]
        seeds = [derive_trial_seed(cfg.master_seed, _TRIAL_STREAM, start + b) for b in range(count)]
        for out, seed in zip(runtimes, seeds):
            sample(np.random.default_rng(seed), out)
        # min and max catch a NaN too, without a temporary the block's size
        if not (runtimes.min() >= 0 and np.isfinite(runtimes.max())):
            raise ValueError("runtimes must be finite and nonnegative")

        loads, works, bound = _schedule_block(cfg, mech, (first, then), runtimes)
        bound_trials += int(bound.sum())
        stage1 = stage2 = [None] * count
        if then is not None:
            stage1 = works[:, in_first].max(axis=1).tolist()
            stage2 = works[:, ~in_first].max(axis=1).tolist()
        columns = zip(
            range(start, start + count),
            works.max(axis=1).tolist(),
            works.sum(axis=1).tolist(),
            loads.max(axis=1).tolist(),
            stage1,
            stage2,
            greedy_makespans(runtimes).tolist(),
            seeds,
        )
        rows.extend(ReportRow(*values) for values in columns)
        if reduced is not None:
            best = runtimes[:, :, :reduced].min(axis=2)
            paired.extend(zip(best.max(axis=1).tolist(), (best.sum(axis=1) / reduced).tolist()))
    return rows, paired, bound_trials


def run_campaign(cfg: ExperimentConfig) -> CampaignResult:
    mech = resolve_reserve(cfg.mechanism, cfg.job_specs[0], cfg.n, cfg.m)
    rows, paired, cap_bound_trials = _run_trials(cfg, mech)

    makespans = np.array([r.makespan for r in rows])
    msp_mean, msp_se = mean_se(makespans)
    aggregate = {
        "trials": cfg.trials,
        "mean_makespan": msp_mean,
        "se_makespan": msp_se,
        "mean_total_work": float(np.mean([r.total_work for r in rows])),
        "mean_max_load": float(np.mean([r.max_load for r in rows])),
        # trials in which a capacitated stage's argmin broke its cap
        "cap_bound_trials": cap_bound_trials,
    }

    reference = None
    delta = cfg.reference_delta
    if delta is not None:
        if cfg.paired:
            reference, kind, ref_samples = larger_bound(
                reduced_machine_count(cfg.m, delta),
                np.array([s[0] for s in paired]),
                np.array([s[1] for s in paired]),
            )
            ref_mean, ref_se = reference.mean, reference.standard_error
            # the unpaired rule's ratio, which refuses a zero reference mean
            ratio, _ = ratio_se(msp_mean, msp_se, ref_mean, ref_se)
            # One trial has no sample covariance; its SEs are 0 too (mean_se).
            cov = 0.0
            if cfg.trials > 1:
                cov = float(np.cov(makespans, ref_samples, ddof=1)[0, 1]) / cfg.trials
            var = 0.0  # a zero mean makespan is every makespan 0: no spread
            if msp_mean:
                var = ratio**2 * (
                    (msp_se / msp_mean) ** 2
                    + (ref_se / ref_mean) ** 2
                    - 2.0 * cov / (msp_mean * ref_mean)
                )
            ratio_error = math.sqrt(max(var, 0.0))
            aggregate["reference_chosen_bound"] = kind
        else:
            rng = np.random.default_rng(
                derive_trial_seed(cfg.master_seed, _REFERENCE_STREAM, 0)
            )
            reference = opt_reference(cfg.job_specs, cfg.n, cfg.m, delta, cfg.trials, rng)
            ref_mean, ref_se = reference.mean, reference.standard_error
            ratio, ratio_error = ratio_se(msp_mean, msp_se, ref_mean, ref_se)
        aggregate.update(
            {
                "reference_kind": cfg.reference,
                "reference_machines": reference.machines_used,
                "reference_mean": reference.mean,
                "reference_se": reference.standard_error,
                "ratio": ratio,
                "ratio_se": ratio_error,
            }
        )
    return CampaignResult(config=cfg, rows=rows, aggregate=aggregate, reference=reference)


@functools.cache
def version_string() -> str:
    """Package version plus ``git describe`` of the source tree, computed
    once per process: the code a process imported cannot change under it."""
    describe = ""
    try:
        proc = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            describe = f"+g{proc.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"schedmech {__version__}{describe}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_report(result: CampaignResult, path: str | Path | None, fmt: str = "csv") -> str:
    """Write the report; returns the rendered text.

    ``path=None`` renders without touching the filesystem (the CLI then
    prints to stdout).  Output is byte-deterministic for a fixed config and
    seed.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    if fmt == "csv":
        lines = ["# schedmech-report"]
        lines.append(f"# version={version_string()}")
        lines.append(f"# config={json.dumps(result.config.echo(), sort_keys=True)}")
        lines.append(f"# aggregate={json.dumps(result.aggregate, sort_keys=True)}")
        lines.append(",".join(REPORT_COLUMNS))
        for row in result.rows:
            lines.append(",".join(_fmt(v) for v in row.as_tuple()))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "kind": "schedmech-report",
            "version": version_string(),
            "config": result.config.echo(),
            "aggregate": result.aggregate,
            "columns": list(REPORT_COLUMNS),
            "rows": [list(row.as_tuple()) for row in result.rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _parse_cell(column: str, cell: str):
    if cell == "":
        return None
    if column in ("trial", "max_load", "seed"):
        return int(cell)
    return float(cell)


def parse_report(text: str) -> dict:
    """Parse an emitted report (either format) back to metadata plus rows."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
        rows = [
            ReportRow(**dict(zip(payload["columns"], row))) for row in payload["rows"]
        ]
        return {
            "version": payload["version"],
            "config": payload["config"],
            "aggregate": payload["aggregate"],
            "rows": rows,
        }
    meta: dict = {}
    rows = []
    header_seen = False
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                if key in ("config", "aggregate"):
                    meta[key] = json.loads(value)
                else:
                    meta[key] = value
            continue
        if not header_seen:
            if tuple(line.split(",")) != REPORT_COLUMNS:
                raise ValueError("unexpected CSV column header")
            header_seen = True
            continue
        cells = line.split(",")
        values = {col: _parse_cell(col, cell) for col, cell in zip(REPORT_COLUMNS, cells)}
        rows.append(ReportRow(**values))
    meta["rows"] = rows
    return meta
