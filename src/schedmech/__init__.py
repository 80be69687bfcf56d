"""Truthful scheduling mechanisms on unrelated machines.

Simulation laboratory for total-work-minimizing mechanisms (minimum work,
bounded overload, sieve, and their combination), their Clarke payments,
first-best makespan bounds, and the statistical checks behind them.
"""

__version__ = "0.1.0"  # the single source; pyproject.toml reads it

from .assignment import (
    UNSCHEDULED,
    InfeasibleError,
    RangeConstraint,
    Schedule,
    brute_force_min_work,
    first_best_makespan_exact,
    first_best_makespan_greedy,
    schedule_objective,
    solve_min_work,
)
from .campaign import (
    CampaignResult,
    ExperimentConfig,
    ReportRow,
    emit_report,
    parse_report,
    run_campaign,
)
from .distributions import (
    DistributionSpec,
    Empirical,
    Exponential,
    OrderStatQuery,
    Pareto,
    TwoPoint,
    Uniform,
    alpha_quantile,
    expected_min,
    min_of_k_cdf,
    parse_distribution,
    sample_min_of_k,
    sample_order_stat,
)
from .instances import (
    Instance,
    preference_order,
    rank_runtime,
    sample_instance,
)
from .mechanisms import (
    MechanismConfig,
    Outcome,
    PaymentInfeasibleError,
    derive_reserve,
    ic_audit,
    last_entry_rank,
    run_bounded_overload,
    run_mechanism,
    run_minimum_work,
    run_sieve,
    run_sieve_bounded_overload,
    sample_geometric_rank,
)
from .optbounds import (
    OptEstimate,
    expected_average_best,
    expected_worst_best,
    opt_reference,
)
