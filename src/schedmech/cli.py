"""Command-line harness: simulation campaigns, statistical checks, audits.

Subcommands:

* ``simulate`` -- run a mechanism campaign and emit a CSV/JSON report.
* ``verify``   -- run the statistical check suite (``--lemma all`` or one id)
  and emit one JSON record per check; exits nonzero when any check fails.
* ``ic-audit`` -- misreport-grid audits over random instances; exits
  nonzero when a profitable deviation is found.
* ``bounds``   -- standalone first-best bound estimates.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .campaign import (
    REFERENCES,
    ExperimentConfig,
    InvariantViolation,
    derive_trial_seed,
    emit_report,
    resolve_reserve,
    run_campaign,
)
from .checks import (
    CopiesQuery,
    FiniteJoint,
    check_correlation_gap,
    check_min_hazard_identity,
    check_mhr_scaling,
    check_opt_ratio_mhr,
    check_order_stat_dominance,
    check_random_copies,
    check_sieve_unscheduled,
)
from .distributions import Exponential, Pareto, TwoPoint, Uniform, parse_distribution
from .instances import sample_instance
from .mechanisms import (
    MECHANISM_KINDS,
    MechanismConfig,
    PaymentInfeasibleError,
    ic_audit,
)
from .optbounds import expected_average_best, expected_worst_best, opt_reference

__all__ = ["main", "entrypoint"]

LEMMA_IDS = (
    "order-stat-dominance",
    "mhr-scaling",
    "random-copies",
    "correlation-gap",
    "opt-ratio-mhr",
    "min-hazard-identity",
    "sieve-unscheduled",
)


def _add_mechanism_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mechanism", choices=MECHANISM_KINDS, default="minimum-work")
    parser.add_argument("--c", type=float, default=7.0, help="overload factor (> 1)")
    parser.add_argument("--beta", type=float, default=None, help="sieve reserve")
    parser.add_argument("--delta", type=float, default=None, help="machine partition share")
    parser.add_argument("--k", type=float, default=None, help="count-target reserve parameter")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dist", default="exp:1.0", help="job-size distribution spec")
    parser.add_argument("--n", type=int, default=16, help="job count")
    parser.add_argument("--m", type=int, default=16, help="machine count")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedmech",
        description="Truthful scheduling mechanisms: simulation and verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a mechanism campaign")
    _add_mechanism_flags(sim)
    _add_common_flags(sim)
    sim.add_argument("--reference", choices=REFERENCES, default="none")
    sim.add_argument("--paired", action="store_true", help="reuse trial instances for the reference")
    sim.add_argument(
        "--threads", type=int, default=0,
        help="accepted for compatibility; has no effect (trials run serially in fixed blocks)",
    )
    sim.add_argument("--out", default=None, help="report path (default: stdout)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")

    ver = sub.add_parser("verify", help="run the statistical check suite")
    ver.add_argument("--lemma", default="all", choices=("all",) + LEMMA_IDS)
    ver.add_argument("--trials", type=int, default=30_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None, help="JSON-lines output path (default: stdout)")

    aud = sub.add_parser("ic-audit", help="misreport-grid audit on random instances")
    _add_mechanism_flags(aud)
    _add_common_flags(aud)
    aud.set_defaults(n=4, m=3, trials=20)

    bnd = sub.add_parser("bounds", help="first-best bound estimators")
    bnd.add_argument("--dist", default="exp:1.0")
    bnd.add_argument("--n", type=int, default=16)
    bnd.add_argument("--m", type=int, default=16)
    bnd.add_argument("--delta", type=float, default=1.0)
    bnd.add_argument("--trials", type=int, default=10_000)
    bnd.add_argument("--seed", type=int, default=0)
    return parser


def _mechanism_config(args: argparse.Namespace) -> MechanismConfig:
    return MechanismConfig(
        kind=args.mechanism, c=args.c, beta=args.beta, delta=args.delta, k=args.k
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        mechanism=_mechanism_config(args),
        dist=parse_distribution(args.dist),
        n=args.n,
        m=args.m,
        trials=args.trials,
        master_seed=args.seed,
        reference=args.reference,
        paired=args.paired,
        threads=args.threads,
    )
    result = run_campaign(cfg)
    text = emit_report(result, args.out, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(json.dumps({"written": args.out, **result.aggregate}, sort_keys=True))
    return 0


def _verify_records(lemma: str, trials: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 99)))
    exp1 = Exponential(1.0)
    unit = Uniform(0.0, 1.0)
    twopoint = TwoPoint(1.0, 10.0, 0.5)
    records: list[dict] = []

    def want(lemma_id: str) -> bool:
        return lemma in ("all", lemma_id)

    if want("order-stat-dominance"):
        for spec in (exp1, twopoint):
            for i in (1, 2):
                records.append(check_order_stat_dominance(spec, 16, i, trials, rng).json_record())
    if want("mhr-scaling"):
        records.append(check_mhr_scaling(exp1, 3, trials, rng).json_record())
        records.append(check_mhr_scaling(unit, 2, trials, rng).json_record())
    if want("random-copies"):
        queries = (
            CopiesQuery((2,), (1.0,), exp1, 2.0, 1),
            CopiesQuery((3,), (1.0,), TwoPoint(1.0, 2.0, 0.0), 3.0, 2),
            CopiesQuery((2, 3), (0.5, 0.5), unit, 2.0, 4),
        )
        for query in queries:
            records.append(check_random_copies(query, trials, rng).json_record())
    if want("correlation-gap"):
        joint = _one_hot_joint(5)
        records.append(check_correlation_gap(joint, mode="exact").json_record())
        records.append(
            check_correlation_gap(joint, mode="mc", trials=trials, rng=rng).json_record()
        )
    if want("opt-ratio-mhr"):
        records.append(check_opt_ratio_mhr(exp1, 8, 8, 0.5, trials, rng).json_record())
    if want("min-hazard-identity"):
        records.append(
            check_min_hazard_identity(exp1, 3, np.linspace(0.05, 1.0, 50)).json_record()
        )
        records.append(
            check_min_hazard_identity(unit, 3, np.linspace(0.05, 0.8, 50)).json_record()
        )
        records.append(
            check_min_hazard_identity(Pareto(2.0, 1.0), 2, np.linspace(1.1, 2.5, 50)).json_record()
        )
    if want("sieve-unscheduled"):
        records.append(
            check_sieve_unscheduled(exp1, 100, 10, 2.0, min(trials, 2000), rng).json_record()
        )
    return records


def _one_hot_joint(n: int) -> FiniteJoint:
    # one uniformly chosen coordinate set to 1: maximally correlated indicators
    return FiniteJoint(np.eye(n), np.full(n, 1.0 / n))


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 2:
        raise ValueError("verify needs --trials >= 2 for its standard errors")
    records = _verify_records(args.lemma, args.trials, args.seed)
    lines = "\n".join(json.dumps(rec, sort_keys=True) for rec in records) + "\n"
    if args.out is None:
        sys.stdout.write(lines)
    else:
        with open(args.out, "w") as fh:
            fh.write(lines)
    failed = [rec["lemma_id"] for rec in records if not rec["pass"]]
    if failed:
        print(f"FAILED: {', '.join(sorted(set(failed)))}", file=sys.stderr)
        return 1
    return 0


def _cmd_ic_audit(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("need trials >= 1")
    spec = parse_distribution(args.dist)
    mech = resolve_reserve(_mechanism_config(args), spec, args.n, args.m)
    violations = []
    for t in range(args.trials):
        rng = np.random.default_rng(derive_trial_seed(args.seed, 2, t))
        inst = sample_instance([spec] * args.n, args.m, rng)
        violations.extend(ic_audit(mech, inst))
    print(
        json.dumps(
            {
                "mechanism": mech.kind,
                "instances": args.trials,
                "violations": [
                    {"machine": v.machine, "misreport": v.misreport, "gain": v.gain}
                    for v in violations
                ],
            },
            sort_keys=True,
        )
    )
    return 1 if violations else 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.trials < 2:
        raise ValueError("bounds needs --trials >= 2 for its standard errors")
    spec = parse_distribution(args.dist)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1)))
    wb = expected_worst_best(spec, args.n, args.m, args.trials, rng)
    ab = expected_average_best(spec, args.n, args.m, args.trials, rng)
    ref = opt_reference(spec, args.n, args.m, args.delta, args.trials, rng)
    out = {
        est.kind: {
            "machines": est.machines_used,
            "mean": est.mean,
            "se": est.standard_error,
            "trials": est.trials,
        }
        for est in (wb, ab, ref)
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "ic-audit":
        return _cmd_ic_audit(args)
    return _cmd_bounds(args)


def entrypoint(argv=None) -> None:
    """Console-script entry: bad input exits 2 and a failed invariant exits
    3, each with a one-line message on stderr instead of a traceback."""
    try:
        sys.exit(main(argv))
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        sys.exit(3)
    except (ValueError, PaymentInfeasibleError) as exc:  # InfeasibleError included
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    entrypoint()
