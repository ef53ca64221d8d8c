"""Small deterministic one-dimensional numerical routines.

Bisection and golden-section search are deliberately plain: every residual
and objective in this package is either monotone-crossing or unimodal on the
bracket it is given, and an unconditionally safe method beats a fast one for
reproducibility.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import SolverError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Halving a finite float interval runs out of midpoints within about 2,100
#: steps (the float exponent range), so bisection never needs more than this.
_MAX_HALVINGS = 2200


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    residual_tol: float = 1e-12,
    width_tol: float = 1e-14,
) -> float:
    """Root of ``f`` on a bracketing interval ``[lo, hi]``.

    ``f(lo)`` and ``f(hi)`` must have opposite signs. Stops once the residual
    at the midpoint drops below ``residual_tol``, the interval is narrower
    than ``width_tol``, or no float lies strictly between its ends.
    """
    flo, fhi = f(lo), f(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise SolverError(f"non-finite bracket values f({lo})={flo}, f({hi})={fhi}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise SolverError(f"no sign change on [{lo}, {hi}]")
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fmid = f(mid)
        if abs(fmid) < residual_tol or (hi - lo) < width_tol:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise SolverError(f"bisection did not converge on [{lo}, {hi}] in {_MAX_HALVINGS} halvings")


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    iterations: int = 200,
) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[lo, hi]``; returns ``(x, f(x))``."""
    if not hi > lo:
        raise SolverError(f"empty search bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)
