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
``alpha = 1`` ``upper`` is the root. Otherwise the root is the float that
bisection on ``[0, upper]`` ends on: a closed-form or Newton estimate, then
a short search over neighbouring floats, for a whole grid of markets in
lockstep. Three regimes are distinguished:

* ``interior``        the candidate satisfies the stationarity condition and
                      earns a non-negative expected profit;
* ``cap_binding``     the candidate exceeds a hard cap on the signal, so both
                      traders sit at the cap;
* ``zero_investment`` the candidate is unattainable (boost fees make even the
                      first unit of signal too expensive) or would earn a
                      negative profit, so nobody invests.

The participation test is evaluated directly, as "the expected equilibrium
payoff is non-negative", not through a pre-derived threshold on ``v``. The
paper's closed-form existence conditions are not part of the package: they
are test oracles in ``tests/closed_forms.py``, checked against the regime.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from ._np import np
from .cost import CostModel
from .errors import ParameterError, SolverError, _real
from .noise import NoiseModel
from .numerics import settle_root


class Regime(enum.StrEnum):
    INTERIOR = "interior"
    CAP_BINDING = "cap_binding"
    ZERO_INVESTMENT = "zero_investment"


@dataclass(frozen=True)
class MarketConfig:
    """Game parameters, each checked by ``errors._real``: arbitrage value, chain count (an int), refund fraction."""

    MAX_CHAINS = 2**63 - 1  # int64's maximum, as NumPy holds a count; unannotated, so a class constant, not a field
    v: float
    n_chains: int = 1
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (_real(self.v) and self.v > 0):
            raise ParameterError(f"trade value must be positive and finite, got {self.v!r}")
        if not (_real(self.n_chains, int) and self.n_chains >= 1):
            raise ParameterError(f"chain count must be an integer >= 1, got {self.n_chains!r}")
        if self.n_chains > self.MAX_CHAINS:
            raise ParameterError(f"chain count must be at most 2**63 - 1, got {self.n_chains}")
        if not (_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ParameterError(f"refund fraction alpha must lie in [0, 1], got {self.alpha!r}")
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True)
class EquilibriumResult:
    """A symmetric equilibrium point and its bookkeeping.

    ``regime`` is the solver's verdict: a candidate that fails the participation test shows as
    ``zero_investment``, the profile that invests nothing.
    """

    signal: float
    per_chain_cost: float
    total_cost: float
    capture_probability: float
    expected_profit: float
    regime: Regime


#: Regimes by the integer code :class:`Equilibria` carries.
REGIMES = tuple(Regime)
_INTERIOR, _CAP_BINDING, _ZERO = range(3)


class Equilibria(NamedTuple):
    """Symmetric equilibria of many markets, one array per result field."""

    signal: np.ndarray
    per_chain_cost: np.ndarray
    total_cost: np.ndarray
    capture_probability: np.ndarray
    expected_profit: np.ndarray
    regime: np.ndarray  # indices into REGIMES

    def result(self, i: int) -> EquilibriumResult:
        return EquilibriumResult(*(float(field[i]) for field in self[:5]), REGIMES[self.regime[i]])


def _stake(f0, v, n):
    """Each market's stake ``M = f0*v/2**(n-1)``, where it is a positive float.

    Neither ``2**(n-1)`` nor an ``f0*v`` past the float range is formed: such
    a product is scaled from the frexp mantissas of its factors, and every
    finite product keeps its bits. A stake that still overflows, or that
    underflows to 0, is a ParameterError naming the chain count and ``v``.
    """
    with np.errstate(over="ignore"):
        product = f0 * v
    stake = np.ldexp(product, 1 - n)
    if product.max() == math.inf:
        beyond = np.isinf(product)
        (m0, e0), (m1, e1) = np.frexp(f0[beyond]), np.frexp(v[beyond])
        with np.errstate(over="ignore"):
            stake[beyond] = np.ldexp(m0 * m1, e0 + e1 + 1 - n[beyond])
        _name_first(np.isinf(stake), "the stake f0*v/2**(n-1) overflows", n, v)
    if stake.min() == 0.0:
        _name_first(stake == 0.0, "the stake f0*v/2**(n-1) underflows to 0", n, v)
    return stake


def _name_first(bad, what: str, n, v) -> None:
    """Raise a ParameterError naming the first market where ``bad`` holds, if any."""
    if np.count_nonzero(bad):
        raise ParameterError(f"{what} at chains={n[bad][0]}, v={v[bad][0]:.6g}")


def _refund_roots(cost: CostModel, f0, marginal, alpha, upper):
    """Stationarity roots on ``[0, upper]``: the floats bisection ends on, settled from an estimate."""
    half, weight = 0.5 * (1.0 + alpha), (1.0 - alpha) * f0

    def residual(s):  # [0, upper] lies in the cost's domain, so C and C' go unchecked
        return marginal - half * cost._marginal(s) - weight * cost._cost(s)

    # exactly, residual(upper) = -(1-alpha) f0 C(upper) <= 0, so a non-negative value means
    # the cost term is below rounding; -inf means C(upper) overflows, where the root may not.
    # When 2M/(1+alpha) is within rounding of a boost fee's slope C'(0), the residual can
    # round negative at 0 as well: nobody invests.
    zero = np.zeros_like(upper)
    with np.errstate(over="ignore"):
        at_upper, at_zero = residual(np.stack([upper, zero]))
    below = at_upper < 0.0
    inside = below & (at_zero > 0.0)
    root = np.where(below, 0.0, upper)
    if np.count_nonzero(inside):
        # the residual reads these names, so from here on it evaluates the inside points only
        half, weight, marginal, upper = half[inside], weight[inside], marginal[inside], upper[inside]
        guess = cost.stationary_signal(marginal, half, weight, upper)
        with np.errstate(over="ignore"):
            root[inside] = settle_root(residual, guess, zero[inside], upper)
    return root


def solve_equilibria(cost: CostModel, f0, v, n, alpha) -> Equilibria:
    """Symmetric equilibria of many markets under one cost model, in lockstep.

    ``f0`` (the noise's peak density), ``v``, ``n`` (chains) and ``alpha``
    are floats or arrays that broadcast, each market valid as
    :class:`MarketConfig` checks it. Each refund point stops searching on
    its own at the float bisection of ``[0, upper]`` ends on, so every point
    comes out as it would alone.
    """
    refused = (alpha != 1.0) & (n > 2)  # a bool for one market, which needs no NumPy to refuse
    if refused if isinstance(refused, bool) else refused.any():
        raise ParameterError("refund equilibria are available for 1 or 2 chains only")
    f0, v, n, alpha = np.broadcast_arrays(*map(np.atleast_1d, (f0, v, n, alpha)))
    marginal = _stake(f0, v, n)
    upper, corner = cost.inverse_marginal_cost(2.0 * marginal / (1.0 + alpha))
    refund = (alpha != 1.0) & ~corner
    # the refund residual is evaluated at upper, and so is an uncapped signal's cost
    rounded = ~corner & (upper >= (cost.g or np.inf)) & (refund | (cost.cap is None))
    if np.count_nonzero(rounded):
        raise SolverError(f"the signal rounds to the boost bound g={cost.g} at v={float(v[rounded].max()):.6g}")
    root = np.where(corner, 0.0, upper)
    if np.count_nonzero(refund):
        root[refund] = _refund_roots(cost, f0[refund], marginal[refund], alpha[refund], upper[refund])
    cap = np.inf if cost.cap is None else cost.cap
    signal, regime = np.minimum(root, cap), np.where(root > cap, _CAP_BINDING, _INTERIOR)
    with np.errstate(over="ignore"):  # the signal lies in [0, min(upper, cap)], inside the cost's domain
        per_chain = cost._cost(signal)
    if per_chain.max() == math.inf:
        beyond = np.isinf(per_chain)
        raise SolverError(f"the {cost.spec} cost of the signal {signal[beyond][0]:.6g} lies beyond float range "
                          f"at chains={n[beyond][0]}, v={v[beyond][0]:.6g}")
    # Candidates that invest and earn a non-negative profit stand; the rest invest nothing. At
    # the symmetric point every race is a coin flip, and a lost race still costs an alpha
    # fraction of that chain's bid, so the profit is v*2**-n - n*(1+alpha)/2*C(s). With a
    # refund, both terms carry (1-alpha)/2*C(s) more than the profit needs: at an interior root
    # v*2**-n = (1+alpha)/(4*f0)*C'(s) + (1-alpha)/2*C(s), so the profit is also
    # (1+alpha)/(4*f0)*C'(s) - kappa*C(s) with kappa = (n*(1+alpha) - (1-alpha))/2. This
    # form's terms cancel only near the participation threshold, and at n = 1, alpha = 0 not
    # at all, where the direct form cancels to nothing once v is large. It is taken where the
    # direct form loses a bit or more (a profit below half of v*2**-n); elsewhere the direct
    # form is the better one, as C' amplifies the root's rounding more than C (a boost fee
    # near its bound), and at alpha = 1 the two forms have the same terms. A capped signal
    # keeps the direct form, since C(cap) is bounded.
    capture, invest = np.ldexp(1.0, -n), signal > 0.0
    if not capture.all():  # past 1074 chains 2**-n is below the smallest float
        raise ParameterError(f"the capture probability 2**-n underflows to 0 at chains={n[capture == 0.0][0]}")
    prize = v * capture
    profit = prize - n * 0.5 * (1.0 + alpha) * per_chain
    if np.count_nonzero(root := (alpha != 1.0) & (profit < 0.5 * prize)):
        root &= invest & (regime == _INTERIOR)
        kappa = 0.5 * (n * (1.0 + alpha) - (1.0 - alpha))
        profit = np.where(root, 0.25 * (1.0 + alpha) * cost._marginal(signal) / f0 - kappa * per_chain, profit)
    invest &= profit >= 0.0
    per_chain = np.where(invest, per_chain, 0.0)
    return Equilibria(np.where(invest, signal, 0.0), per_chain, n * per_chain, capture,
                      np.where(invest, profit, prize), np.where(invest, regime, _ZERO))


def solve_equilibrium(market: MarketConfig, cost: CostModel, noise: NoiseModel) -> EquilibriumResult:
    """Symmetric equilibrium of one market: the one-point case of :func:`solve_equilibria`."""
    return solve_equilibria(cost, noise.density_at_zero(), market.v, market.n_chains, market.alpha).result(0)

