"""Small deterministic one-dimensional numerical routines.

Bisection and golden-section search are deliberately plain: every residual
and objective in this package is either monotone-crossing or unimodal on the
bracket it is given, and an unconditionally safe method beats a fast one for
reproducibility.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SolverError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Halving a finite float interval runs out of midpoints within about 2,100
#: steps (the float exponent range), so bisection never needs more than this.
_MAX_HALVINGS = 2200


def bisect_root(f: Callable, lo, hi):
    """Roots of ``f`` on bracketing intervals ``[lo, hi]``, halved in lockstep.

    ``lo`` and ``hi`` are floats or arrays that broadcast, and ``f`` acts
    elementwise; ``f(lo)`` and ``f(hi)`` must have opposite signs at every
    point. Each point stops on its own: on an exact zero at the midpoint or
    once no float lies strictly between its bracket's ends, so every root is
    found to float resolution whatever its scale. A float for float ends.
    """
    lo, hi = (np.array(end, dtype=float) for end in np.broadcast_arrays(lo, hi))
    flo, fhi = np.asarray(f(lo), dtype=float), np.asarray(f(hi), dtype=float)
    root, active, positive = np.where(flo == 0.0, lo, hi), (flo != 0.0) & (fhi != 0.0), flo > 0.0
    for bad, what in ((~(np.isfinite(flo) & np.isfinite(fhi)), "non-finite bracket values"),
                      (active & (positive == (fhi > 0.0)), "no sign change")):
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise SolverError(f"{what} on [{lo.flat[i]}, {hi.flat[i]}]: f = {flo.flat[i]}, {fhi.flat[i]}")
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * lo + 0.5 * hi  # lo + hi can overflow near the top of the float range
        np.copyto(root, mid, where=active)
        active = active & (lo < mid) & (mid < hi)  # else no float lies strictly inside
        if not active.any():
            return float(root) if root.ndim == 0 else root
        fmid = np.asarray(f(mid), dtype=float)
        active &= fmid != 0.0
        rise = active & ((fmid > 0.0) == positive)
        np.copyto(lo, mid, where=rise)
        np.copyto(hi, mid, where=active ^ rise)
    raise SolverError(f"bisection did not converge in {_MAX_HALVINGS} halvings")


def golden_section_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on ``[lo, hi]``; returns ``(x, f(x))``."""
    if not hi > lo:
        raise SolverError(f"empty search bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
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
