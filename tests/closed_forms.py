"""Closed-form symmetric equilibria of the full-cost game (alpha = 1), on Python floats.

The tests check seqlab's FOC solver against these formulas. The module
imports nothing from seqlab, only ``math``, so a defect in one of the
solver's helpers (its stake, capture or profit) cannot cancel out of the
comparison. At equal signals every race is a coin flip: a trader captures
``v`` with probability ``2**-n`` and pays the per-chain cost on all ``n``
chains. A candidate that invests and earns a non-negative profit is
``interior``; otherwise nobody invests (``zero_investment``).
"""

import math
from typing import NamedTuple

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class Point(NamedTuple):
    signal: float
    per_chain_cost: float
    total_cost: float
    capture_probability: float
    expected_profit: float
    regime: str
    participation: bool


def peak_density(law: str, scale: float) -> float:
    """``f0``, the peak density of the per-chain noise difference of ``law`` at ``scale``."""
    if law == "normal":
        return 1.0 / (_SQRT_2PI * scale)
    if law == "logistic":
        return 0.25 / scale
    return 0.5 / scale  # laplace and uniform


def _settle(v: float, n: int, signal: float, per_chain: float, invest: bool) -> Point:
    capture = math.ldexp(1.0, -n)
    profit = v * capture - n * per_chain
    if invest and profit >= 0.0:
        return Point(signal, per_chain, n * per_chain, capture, profit, "interior", True)
    return Point(0.0, 0.0, 0.0, capture, v * capture, "zero_investment", True)


def power(v: float, n: int, beta: float, f0: float) -> Point:
    """Cost ``s**beta``: ``C'(s) = M`` at the stake ``M = f0*v/2**(n-1)``."""
    base = math.ldexp(f0 * v, 1 - n) / beta
    return _settle(v, n, base ** (1.0 / (beta - 1.0)), base ** (beta / (beta - 1.0)), True)


def boost_fee(v: float, n: int, c: float, g: float, f0: float) -> Point:
    """Cost ``c*s/(g-s)`` on 1 or 2 chains: signal ``g - sqrt(n*c*g/(f0*v))`` where ``v > n*c/(g*f0)``."""
    if n not in (1, 2):
        raise ValueError("boost-fee closed forms cover 1 or 2 chains")
    signal = g - math.sqrt(n * c * g / (f0 * v))
    total = max(math.sqrt(n * c * g * f0 * v) - n * c, 0.0)
    return _settle(v, n, signal, total / n, v > n * c / (g * f0))


def cap_condition(v: float, beta: float, f0: float, cap: float) -> bool:
    """The printed sufficient condition for a bid cap to reverse the power-cost revenue ranking."""
    return cap < (v * f0 / (2.0 * beta)) ** (1.0 / (1.0 - beta))


def revenue_threshold(f0: float, v: float) -> float:
    """The boost-fee ``c/g`` where separate sequencing's revenue per bidder meets the shared one.

    Where both sides invest, ``sqrt(2*x) - 2*c = sqrt(x) - c`` with ``x = c*g*f0*v``: separate
    sequencing earns more below ``c/g = (3 - 2*sqrt(2))*f0*v`` and less above it.
    """
    return (3.0 - 2.0 * math.sqrt(2.0)) * f0 * v
