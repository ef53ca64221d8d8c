"""Small deterministic one-dimensional numerical routines.

Bisection is deliberately plain: every residual in this package changes sign
once on the bracket it is given, and an unconditionally safe method beats a
fast one for reproducibility. Where a good estimate of the root of a residual
that changes sign once exists, :func:`settle_root` returns bisection's own
float from it in a few steps, so speed there costs no reproducibility.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SolverError

#: Halving a finite float interval runs out of midpoints within about 2,100
#: steps (the float exponent range), so bisection never needs more than this.
_MAX_HALVINGS = 2200
#: A search over 64-bit patterns gallops and then halves, at most 63 steps each.
_MAX_STEPS = 130


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


def settle_root(f: Callable, guess, lo, hi, outer=None):
    """The float ``bisect_root(f, lo, hi)`` returns, searched for outward from ``guess``.

    ``guess``, ``lo`` and ``hi`` are float arrays of one shape with ``0 <=
    lo < hi``; ``f`` acts elementwise on such arrays and changes sign once
    on the floats of ``[lo, hi]``: positive from ``lo``, then zero on a run
    of floats that may be empty, then negative up to ``hi`` (neither end is
    evaluated). A residual that is not monotone meets this as well as one
    that does not increase. Halving such a bracket ends on the same float
    whatever its path: with no float zero of ``f``, on ``0.5*a + 0.5*b`` for
    the adjacent floats ``a, b`` where the sign changes; with a single zero,
    on that zero, which every halving reaches. A run of zeros is found at
    both ends, and the halving is replayed against it without evaluating
    ``f``. Every point gallops through the float bit patterns from its
    guess and then bisects them, in lockstep: one call to ``f`` a step, each
    point stopping on its own.

    ``outer``, a pair of arrays ``(x, y)`` with ``x <= lo`` and ``hi <= y``,
    stands for a wider bracket on which ``f`` is positive below ``lo`` and
    negative above ``hi``: the float is then that of ``bisect_root(f, x,
    y)``, which differs only where a run of zeros is replayed. ``x`` may be
    negative.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x0, y0 = (lo, hi) if outer is None else outer
    a, b = lo.view(np.int64), hi.view(np.int64)  # non-negative floats order as their bit patterns
    # the first float where f <= 0 (f(hi) < 0 stands in for the unevaluated end) ...
    first, value = _first_bits(f, np.greater, np.asarray(guess, dtype=float).view(np.int64), a, b, -1.0)
    last = first - 1  # the last float where f >= 0, unless f(first) is a zero
    root = 0.5 * last.view(float) + 0.5 * first.view(float)
    zero = value == 0.0
    if zero.any():  # ... and past a zero there, the first float where f < 0 (elsewhere, first again)
        last = _first_bits(f, np.greater_equal, first + 1, np.where(zero, first, last), np.where(zero, b, first),
                           -1.0)[0] - 1
        root = np.where(zero, first.view(float), root)
        ends = first.view(float), last.view(float)
        for i in np.flatnonzero(last > first):  # a run of zeros: replay the halving against it
            (z0, z1), x, y = (float(end.flat[i]) for end in ends), float(x0.flat[i]), float(y0.flat[i])
            while not z0 <= (mid := 0.5 * x + 0.5 * y) <= z1:
                x, y = (mid, y) if mid < z0 else (x, mid)
            root.flat[i] = mid
    return float(root) if root.ndim == 0 else root


def _first_bits(f: Callable, keep: Callable, guess, a, b, fb):
    """Per point, the first bit pattern in ``(a, b]`` where ``keep(f(x), 0)`` fails, and ``f`` there.

    ``keep`` holds at ``a`` and fails at ``b``, where ``f`` is ``fb``, and
    flips once in between; a NaN fails it, as it counts as negative in
    :func:`bisect_root`. Probes start at ``guess`` and step away by 1, 2, 4,
    ... bit patterns until the test flips, then halve the bracket. A point
    whose bracket is closed probes one of its ends again, which moves nothing.
    """
    x, step, gap = np.clip(guess, a + 1, b - 1), 1, b - a
    fb = np.full(x.shape, fb)  # an array even when every bracket is closed from the start
    for _ in range(_MAX_STEPS):
        if gap.max() <= 1:
            return b, fb
        fx = f(x.view(float))
        kept = keep(fx, 0.0)
        a, b, fb = np.where(kept, x, a), np.where(kept, b, x), np.where(kept, fb, fx)
        gap = b - a
        half = gap >> 1
        up = np.minimum(step, half)  # a + step could pass the largest bit pattern
        x, step = np.where(kept, a + up, np.maximum(x - step, a + half)), up << 1
    raise SolverError(f"the root search did not settle in {_MAX_STEPS} steps")
