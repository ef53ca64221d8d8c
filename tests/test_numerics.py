import math

import numpy as np
import pytest

from seqlab.errors import SolverError
from seqlab.numerics import bisect_root, golden_section_max


def test_bisect_finds_cubic_root():
    root = bisect_root(lambda x: x**3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-12)
    assert abs(root**3 - 2.0) < 1e-10


def test_bisect_accepts_endpoint_roots():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_requires_sign_change():
    with pytest.raises(SolverError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize("root,hi", [(math.pi, 4.0), (1e10, 1.6e63)], ids=["pi", "1e10"])
def test_bisect_runs_to_float_resolution(root, hi):
    # the wide bracket needs far more than 200 halvings to reach its root
    found = bisect_root(lambda x: x - root, 0.0, hi)
    assert abs(found - root) <= math.ulp(root)


def test_bisect_midpoint_does_not_overflow():
    # lo + hi overflows to inf here; the midpoint must not
    root = bisect_root(lambda x: x - 1.5e308, 1e308, 1.7e308)
    assert abs(root - 1.5e308) <= math.ulp(1.5e308)


def test_bisect_lockstep_equals_one_point_calls():
    # roots of very different scale, an endpoint root and an exact zero at the
    # first midpoint: each point stops on its own, as a one-point call would
    roots = np.array([1e-300, 1e-12, 0.5, math.pi, 1e10, 1.5e308, 0.0])
    lo = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1e308, 0.0])
    hi = np.array([1e-290, 1.0, 1.0, 4.0, 1.6e63, 1.7e308, 2.0])

    def bent(x, r):
        return (x - r) / (1.0 + x)

    found = bisect_root(lambda x: bent(x, roots), lo, hi)
    assert isinstance(found, np.ndarray) and found.shape == roots.shape
    alone = [bisect_root(lambda x, r=r: bent(x, r), a, b) for r, a, b in zip(roots, lo, hi)]
    assert all(isinstance(x, float) for x in alone)
    assert [x.hex() for x in found.tolist()] == [x.hex() for x in alone]
    assert all(abs(x - r) <= math.ulp(r) for x, r in zip(alone, roots))


def test_bisect_lockstep_reports_the_failing_point():
    with pytest.raises(SolverError, match=r"no sign change on \[2.0, 3.0\]: f = 1.0, 2.0"):
        bisect_root(lambda x: x - 1.0, np.array([0.0, 2.0]), np.array([2.0, 3.0]))


def test_golden_section_maximizes_parabola():
    x, fx = golden_section_max(lambda x: -(x - 1.3) ** 2 + 0.7, -5.0, 5.0)
    assert x == pytest.approx(1.3, abs=1e-8)
    assert fx == pytest.approx(0.7, abs=1e-12)


def test_golden_section_rejects_empty_bracket():
    with pytest.raises(SolverError):
        golden_section_max(lambda x: x, 1.0, 1.0)
