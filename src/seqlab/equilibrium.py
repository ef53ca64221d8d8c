"""Symmetric pure-strategy equilibria of the two-trader arbitrage race.

Two traders compete to capture an arbitrage worth ``v`` by landing their
transactions ahead of the rival on every one of ``n`` chains. On each chain a
trader's arrival score is signal plus noise, and the higher score wins, so
with a symmetric noise-difference law the per-chain win probability at equal
signals is 1/2 and a capture happens with probability ``2**-n`` per trader.
One chain models a shared sequencer (a single race decides everything), two
chains model separate sequencers, and larger ``n`` generalizes.

A trader's payoff is ``v * prod F_i - sum C(s_i) * (F_i + alpha*(1 - F_i))``,
where ``F_i`` is the chance of winning chain ``i`` and losers pay only an
``alpha`` fraction of their cost (``alpha = 1`` is the full-cost baseline,
smaller ``alpha`` the refund extension). Interior equilibrium candidates come
from its one symmetric stationarity condition, for every ``n`` and ``alpha``:

    M - (1+alpha)/2 * C'(s) - (1-alpha) * f(0) * C(s) = 0,  M = f(0) * v / 2**(n-1)

where ``f(0)`` is the peak density of the per-chain noise difference. Since
``C >= 0`` the root lies at or below ``upper``, the signal where
``C'(upper) = 2M/(1+alpha)``, found by one marginal-cost inversion. At
``alpha = 1`` ``upper`` is the root; otherwise bisection on ``[0, upper]``
runs to float resolution, for a whole grid of markets in lockstep. Three
regimes are distinguished:

* ``interior``        the candidate satisfies the stationarity condition and
                      earns a non-negative expected profit;
* ``cap_binding``     the candidate exceeds a hard cap on the signal, so both
                      traders sit at the cap;
* ``zero_investment`` the candidate is unattainable (boost fees make even the
                      first unit of signal too expensive) or would earn a
                      negative profit, so nobody invests.

The participation test is evaluated directly as "expected equilibrium payoff
is non-negative" rather than through any pre-derived threshold on ``v``; the
analysis module also reports the closed-form thresholds so the two views can
be compared side by side.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cost import CostModel
from .errors import ParameterError, SolverError
from .noise import NoiseModel
from .numerics import bisect_root


class Regime(enum.Enum):
    INTERIOR = "interior"
    CAP_BINDING = "cap_binding"
    ZERO_INVESTMENT = "zero_investment"


@dataclass(frozen=True)
class MarketConfig:
    """Game parameters: arbitrage value, chain count, refund fraction."""

    v: float
    n_chains: int = 1
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.v, (int, float)) and math.isfinite(self.v) and self.v > 0):
            raise ParameterError(f"trade value must be positive and finite, got {self.v!r}")
        if not (isinstance(self.n_chains, int) and self.n_chains >= 1):
            raise ParameterError(f"chain count must be an integer >= 1, got {self.n_chains!r}")
        if not (isinstance(self.alpha, (int, float)) and 0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"refund fraction alpha must lie in [0, 1], got {self.alpha!r}")
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True)
class EquilibriumResult:
    """A symmetric equilibrium point and its bookkeeping."""

    signal: float
    per_chain_cost: float
    total_cost_per_trader: float
    capture_probability: float
    expected_profit: float
    regime: Regime
    participation_satisfied: bool


#: Regimes by the integer code :class:`Equilibria` carries.
REGIMES = tuple(Regime)
_INTERIOR, _CAP_BINDING, _ZERO = range(3)


class Equilibria(NamedTuple):
    """Symmetric equilibria of many markets, one array per result field."""

    signal: np.ndarray
    per_chain_cost: np.ndarray
    total_cost_per_trader: np.ndarray
    capture_probability: np.ndarray
    expected_profit: np.ndarray
    regime: np.ndarray  # indices into REGIMES

    def result(self, i: int) -> EquilibriumResult:
        values = [float(field[i]) for field in self[:5]]
        return EquilibriumResult(*values, REGIMES[self.regime[i]], values[4] >= 0.0)


def _settle(v, n, alpha, signal, per_chain, regime, invest) -> Equilibria:
    """Candidates that invest and earn a non-negative profit stand; the rest invest nothing."""
    v, n, alpha, signal, per_chain, regime, invest = np.broadcast_arrays(
        *map(np.atleast_1d, (v, n, alpha, signal, per_chain, regime, invest)))
    # at the symmetric point every race is a coin flip; a lost race still
    # costs an alpha fraction of that chain's bid
    capture, weight = np.ldexp(1.0, -n), n * 0.5 * (1.0 + alpha)
    invest = invest & (v * capture - weight * per_chain >= 0.0)
    per_chain = np.where(invest, per_chain, 0.0)
    return Equilibria(np.where(invest, signal, 0.0), per_chain, n * per_chain, capture,
                      v * capture - weight * per_chain, np.where(invest, regime, _ZERO))


def _refund_roots(cost: CostModel, f0, marginal, alpha, upper):
    """Stationarity roots on ``[0, upper]``, bisected in lockstep."""

    def residual_of(i):  # [0, upper] lies in the cost's domain, so C and C' go unchecked
        m, half, weight = marginal[i], 0.5 * (1.0 + alpha[i]), (1.0 - alpha[i]) * f0[i]
        return lambda s: m - half * cost._marginal(s) - weight * cost._cost(s)

    # exactly, residual(upper) = -(1-alpha) f0 C(upper) <= 0, so a non-negative value means
    # the cost term is below rounding. When 2M/(1+alpha) is within rounding of a boost
    # fee's slope C'(0), the residual can round negative at 0 as well: nobody invests.
    below = residual_of(slice(None))(upper) < 0.0
    inside = below & (residual_of(slice(None))(np.zeros_like(upper)) > 0.0)
    root = np.where(below, 0.0, upper)
    if inside.any():
        root[inside] = bisect_root(residual_of(inside), 0.0, upper[inside])
    return root


def solve_equilibria(cost: CostModel, f0, v, n, alpha) -> Equilibria:
    """Symmetric equilibria of many markets under one cost model, in lockstep.

    ``f0`` (the noise's peak density), ``v``, ``n`` (chains) and ``alpha``
    are floats or arrays that broadcast, each market valid as
    :class:`MarketConfig` checks it. Each refund point stops bisecting on
    its own, so every point comes out as it would alone.
    """
    f0, v, n, alpha = np.broadcast_arrays(*map(np.atleast_1d, (f0, v, n, alpha)))
    if ((alpha != 1.0) & (n > 2)).any():
        raise ParameterError("refund equilibria are available for 1 or 2 chains only")
    marginal = f0 * v / np.ldexp(1.0, n - 1)
    upper, corner = cost.inverse_marginal_cost(2.0 * marginal / (1.0 + alpha))
    refund = (alpha != 1.0) & ~corner
    # the refund residual is evaluated at upper, and so is an uncapped signal's cost
    rounded = ~corner & (upper >= (cost.g or np.inf)) & (refund | (cost.cap is None))
    if rounded.any():
        raise SolverError(f"the signal rounds to the boost bound g={cost.g} at v={float(v[rounded].max()):.6g}")
    root = np.where(corner, 0.0, upper)
    if refund.any():
        root[refund] = _refund_roots(cost, f0[refund], marginal[refund], alpha[refund], upper[refund])
    cap = np.inf if cost.cap is None else cost.cap
    signal, regime = np.minimum(root, cap), np.where(root > cap, _CAP_BINDING, _INTERIOR)
    return _settle(v, n, alpha, signal, cost.cost(signal), regime, signal > 0.0)


def solve_equilibrium(market: MarketConfig, cost: CostModel, noise: NoiseModel) -> EquilibriumResult:
    """Symmetric equilibrium of one market: the one-point case of :func:`solve_equilibria`."""
    return solve_equilibria(cost, noise.density_at_zero(), market.v, market.n_chains, market.alpha).result(0)


def latency_closed_form(market: MarketConfig, beta: float, f0: float) -> EquilibriumResult:
    """Power-cost equilibrium via the closed forms, as a cross-check path.

    Signal ``(f0*v / (2**(n-1)*beta)) ** (1/(beta-1))`` with per-chain cost
    given by the matching ``beta/(beta-1)`` power; independent of the generic
    marginal-cost inversion used by :func:`solve_equilibrium`.
    """
    if market.alpha != 1.0:
        raise ParameterError("closed forms cover the full-cost baseline only (alpha=1)")
    if not (math.isfinite(beta) and beta > 1.0):
        raise ParameterError(f"power cost needs beta > 1, got {beta!r}")
    if not (math.isfinite(f0) and f0 > 0.0):
        raise ParameterError(f"peak noise density must be positive, got {f0!r}")
    base = f0 * market.v / (2.0 ** (market.n_chains - 1) * beta)
    signal = base ** (1.0 / (beta - 1.0))
    per_chain_cost = base ** (beta / (beta - 1.0))
    return _settle(market.v, market.n_chains, 1.0, signal, per_chain_cost, _INTERIOR, True).result(0)


def timeboost_closed_form(market: MarketConfig, c: float, g: float, f0: float) -> EquilibriumResult:
    """Boost-fee equilibrium via the closed forms, as a cross-check path.

    Shared (n=1): signal ``g - sqrt(c*g/(f0*v))`` when ``v > c/(g*f0)``, with
    total cost ``max(sqrt(c*g*f0*v) - c, 0)``. Separate (n=2): signal
    ``g - sqrt(2*c*g/(f0*v))`` when ``v > 2*c/(g*f0)``, with total cost
    ``max(sqrt(2*c*g*f0*v) - 2*c, 0)``.
    """
    if market.alpha != 1.0:
        raise ParameterError("closed forms cover the full-cost baseline only (alpha=1)")
    if market.n_chains not in (1, 2):
        raise ParameterError("boost-fee closed forms are stated for 1 or 2 chains")
    for name, value in (("c", c), ("g", g), ("f0", f0)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    n, v = market.n_chains, market.v
    k = float(n)
    signal = g - math.sqrt(k * c * g / (f0 * v))
    total_cost = max(math.sqrt(k * c * g * f0 * v) - k * c, 0.0)
    return _settle(v, n, 1.0, signal, total_cost / n, _INTERIOR, v > k * c / (g * f0)).result(0)
