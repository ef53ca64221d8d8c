import math

import numpy as np
import pytest

from seqlab.errors import SolverError
from seqlab.numerics import bisect_root, settle_root


def test_bisect_finds_cubic_root():
    root = bisect_root(lambda x: x**3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert abs(root**3 - 2.0) < 1e-10


def test_bisect_accepts_endpoint_roots():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_requires_a_finite_sign_change_and_reports_its_bracket():
    with pytest.raises(SolverError, match=r"no sign change on \[-1.0, 1.0\]: f = 2.0, 2.0"):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(SolverError, match=r"non-finite bracket values on \[0.0, 1.0\]: f = 1.0, nan"):
        bisect_root(lambda x: 1.0 if x < 0.5 else math.nan, 0.0, 1.0)


@pytest.mark.parametrize("root,hi", [(math.pi, 4.0), (1e10, 1.6e63)], ids=["pi", "1e10"])
def test_bisect_runs_to_float_resolution(root, hi):
    # the wide bracket needs far more than 200 halvings to reach its root
    found = bisect_root(lambda x: x - root, 0.0, hi)
    assert abs(found - root) <= math.ulp(root)


def test_bisect_midpoint_does_not_overflow():
    # lo + hi overflows to inf here; the midpoint must not
    root = bisect_root(lambda x: x - 1.5e308, 1e308, 1.7e308)
    assert abs(root - 1.5e308) <= math.ulp(1.5e308)


def test_bisect_counts_nan_as_negative():
    root = bisect_root(lambda x: 1.0 if x < 0.75 else -1.0 if x == 1.0 else math.nan, 0.0, 1.0)
    assert 0.75 - math.ulp(0.75) <= root <= 0.75


def test_lockstep_reference_equals_one_point_bisect_calls(lockstep_bisect):
    # roots of very different scale, an endpoint root and an exact zero at the
    # first midpoint: each point of the lockstep halving stops on its own, on the
    # float a one-point bisect_root call ends on
    roots = np.array([1e-300, 1e-12, 0.5, math.pi, 1e10, 1.5e308, 0.0])
    lo = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e308, 0.0])
    hi = np.array([1e-290, 1.0, 1.0, 4.0, 1.6e63, 1.7e308, 2.0])

    def bent(x, r):
        return (x - r) / (1.0 + x)

    found = lockstep_bisect(lambda x: bent(x, roots), lo, hi)
    alone = [bisect_root(lambda x, r=r: bent(x, r), a, b) for r, a, b in zip(roots, lo, hi)]
    assert all(isinstance(x, float) for x in alone)
    assert [x.hex() for x in found.tolist()] == [x.hex() for x in alone]
    assert all(abs(x - r) <= math.ulp(r) for x, r in zip(alone, roots))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("guessed", ["root", "near", "inside", "lo", "hi", "zero", "nan", "inf", "negative"])
def test_settle_root_lands_on_the_halving_float(guessed, lockstep_bisect):
    # sign changes with no float zero, single exact zeros and runs of 2-5 zeros, some
    # with -inf or NaN (negative to bisect_root) past the sign change, brackets from
    # 1e-300 to 1e300: every point lands on bisect_root's float, whatever its guess
    rng = np.random.default_rng(7)
    k = 600
    hi = 10.0 ** rng.uniform(-300.0, 300.0, k)
    lo = np.where(rng.random(k) < 0.5, 0.0, hi * rng.uniform(0.0, 0.5, k))
    first = lo + (hi - lo) * rng.uniform(0.01, 0.99, k)  # the first float where f <= 0
    last = (_bits(first) + rng.integers(-1, 5, k)).view(float)  # the last where f >= 0
    beyond = rng.choice([-1.0, -np.inf, np.nan], k)

    def f(x):
        return np.where(x < first, 1.0, np.where(x > last, np.where(x < hi, beyond, -1.0), 0.0))

    guess = {"root": first, "near": (_bits(first) + rng.integers(-40, 40, k)).view(float),
             "inside": lo + (hi - lo) * rng.random(k), "lo": lo, "hi": hi, "zero": np.zeros(k),
             "nan": np.full(k, np.nan), "inf": np.full(k, np.inf), "negative": np.full(k, -1.0)}[guessed]
    found = settle_root(f, guess, lo, hi)
    assert np.array_equal(_bits(found), _bits(lockstep_bisect(f, lo, hi)))
    assert (last > first).sum() > 200 and (last == first).sum() > 50 and (last < first).sum() > 50


def test_settle_root_equals_bisection_on_a_smooth_residual(lockstep_bisect):
    # c - x*x rounds to exact zeros for some c and changes sign between floats for
    # others; guesses up to a few thousand floats off still land on bisect_root's float
    c = np.random.default_rng(11).uniform(0.01, 9.0, 2000)
    lo, hi = np.zeros_like(c), np.full_like(c, 4.0)
    found = settle_root(lambda x: c - x * x, np.sqrt(c) * (1.0 + np.linspace(-1e-12, 1e-12, c.size)), lo, hi)
    assert np.array_equal(_bits(found), _bits(lockstep_bisect(lambda x: c - x * x, lo, hi)))
    assert 0 < (found * found == c).sum() < c.size


def test_settle_root_needs_no_monotone_residual(lockstep_bisect):
    # residuals that rise and fall but change sign once, some through a run of 2-5
    # zeros, from guesses a few hundred floats off: each root lands on bisect_root's
    # float for [lo, hi]
    rng = np.random.default_rng(3)
    k = 400
    root = 10.0 ** rng.uniform(-300, 2, k)
    last = (_bits(root) + rng.integers(-1, 5, k)).view(float)  # the last float where f >= 0
    lo = np.where(rng.random(k) < 0.5, 0.0, root * rng.uniform(0.0, 0.5, k))
    hi = root * rng.uniform(2.0, 1e3, k)

    def f(x):
        return np.where((root <= x) & (x <= last), 0.0, (root - x) * (2.0 + np.sin(50.0 * x)))

    guess = (_bits(root) + rng.integers(-300, 300, k)).view(float)
    assert np.array_equal(_bits(settle_root(f, guess, lo, hi)), _bits(lockstep_bisect(f, lo, hi)))


def test_settle_root_on_brackets_one_float_wide(lockstep_bisect):
    # no float lies inside any bracket, so no step is taken; this ended in an
    # AttributeError ('bool' has no 'any'), as from a refund root at v = 3e-162
    lo, hi = np.array([0.0, 1.0, 2.0]), np.array([5e-324, np.nextafter(1.0, 2.0), np.nextafter(2.0, 3.0)])

    def f(x):
        return np.where(x == lo, 1.0, -1.0)

    assert np.array_equal(_bits(settle_root(f, lo, lo, hi)), _bits(lockstep_bisect(f, lo, hi)))
