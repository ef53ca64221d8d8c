"""Equilibrium laboratory for two-trader cross-chain arbitrage races.

Computes, compares, and empirically verifies symmetric pure-strategy
equilibria of the signal-investment race under shared versus separate
transaction sequencing: latency competition, capped bidding, boost-fee
ordering, the n-chain generalization, and the partial-refund extension.
"""

from .analysis import (
    REVENUE_THRESHOLD_CONSTANT,
    ComparisonReport,
    OptimalBoostFee,
    RevenueThreshold,
    ValueDistribution,
    capped_revenue_comparison,
    compare_expenditure,
    ex_ante_revenue,
    optimal_c,
    parse_value_dist,
    sweep,
    timeboost_revenue_threshold,
)
from .cost import CostModel, parse_cost
from .equilibrium import (
    EquilibriumResult,
    MarketConfig,
    Regime,
    latency_closed_form,
    solve_equilibrium,
    timeboost_closed_form,
)
from .errors import ConfigError, DomainError, ParameterError, SolverError
from .montecarlo import (
    BestResponseCheck,
    SimulationSpec,
    SimulationStats,
    analytic_expected_payoff,
    default_deviation_grid,
    simulate,
    verify_best_response,
)
from .noise import NoiseModel, parse_noise

__version__ = "0.1.0"

__all__ = [
    "BestResponseCheck",
    "ComparisonReport",
    "ConfigError",
    "CostModel",
    "DomainError",
    "EquilibriumResult",
    "MarketConfig",
    "NoiseModel",
    "OptimalBoostFee",
    "ParameterError",
    "REVENUE_THRESHOLD_CONSTANT",
    "Regime",
    "RevenueThreshold",
    "SimulationSpec",
    "SimulationStats",
    "SolverError",
    "ValueDistribution",
    "analytic_expected_payoff",
    "capped_revenue_comparison",
    "compare_expenditure",
    "default_deviation_grid",
    "ex_ante_revenue",
    "latency_closed_form",
    "optimal_c",
    "parse_cost",
    "parse_noise",
    "parse_value_dist",
    "simulate",
    "solve_equilibrium",
    "sweep",
    "timeboost_closed_form",
    "timeboost_revenue_threshold",
    "verify_best_response",
]
