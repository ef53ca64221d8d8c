import math

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


def test_golden_section_maximizes_parabola():
    x, fx = golden_section_max(lambda x: -(x - 1.3) ** 2 + 0.7, -5.0, 5.0)
    assert x == pytest.approx(1.3, abs=1e-8)
    assert fx == pytest.approx(0.7, abs=1e-12)


def test_golden_section_rejects_empty_bracket():
    with pytest.raises(SolverError):
        golden_section_max(lambda x: x, 1.0, 1.0)
