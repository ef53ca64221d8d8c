"""Equilibrium laboratory for two-trader cross-chain arbitrage races.

Computes, compares, and empirically verifies symmetric pure-strategy
equilibria of the signal-investment race under shared versus separate
transaction sequencing: latency competition, capped bidding, boost-fee
ordering, the n-chain generalization, and the partial-refund extension.

``import seqlab`` loads no submodule. Each public name is looked up in its
defining module on first access (PEP 562) and then kept here, so a command
or script compiles and runs only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

#: each public name, by the module that defines it
_EXPORTS = {
    "analysis": (
        "REVENUE_THRESHOLD_CONSTANT", "ComparisonReport", "OptimalBoostFee", "RevenueThreshold",
        "ValueDistribution", "compare_expenditure", "ex_ante_revenue", "optimal_c", "parse_value_dist",
        "sweep", "timeboost_revenue_threshold",
    ),
    "cost": ("CostModel", "parse_cost"),
    "equilibrium": ("EquilibriumResult", "MarketConfig", "Regime", "solve_equilibrium"),
    "errors": ("ConfigError", "DomainError", "ParameterError", "SolverError"),
    "montecarlo": (
        "BestResponseCheck", "SimulationSpec", "SimulationStats", "analytic_expected_payoff",
        "default_deviation_grid", "simulate", "verify_best_response",
    ),
    "noise": ("NoiseModel", "parse_noise"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
