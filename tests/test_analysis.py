import itertools
import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import closed_forms
from seqlab.analysis import (
    _EXP_ROOT,
    ValueDistribution,
    _optimal_level,
    compare_expenditure,
    ex_ante_revenue,
    optimal_c,
    parse_value_dist,
    sweep,
)
from seqlab.cost import CostModel
from seqlab.equilibrium import MarketConfig, Regime, solve_equilibrium
from seqlab.errors import ConfigError, DomainError, ParameterError, SolverError
from seqlab.noise import NoiseModel
from seqlab.numerics import bisect_root

SIGMA_UNIT_F0 = 1.0 / math.sqrt(2.0 * math.pi)
UNIT_NOISE = NoiseModel("normal", SIGMA_UNIT_F0)


def test_expenditure_ratio_beta_two():
    report = compare_expenditure(1.0, CostModel.power(2.0), UNIT_NOISE)
    assert report.shared.total_cost == pytest.approx(0.25, abs=1e-12)
    assert report.separate.total_cost == pytest.approx(0.125, abs=1e-12)
    assert report.ratio == pytest.approx(2.0, abs=1e-12)
    assert report.interpretation == "waste"
    assert report.capture_probability_shared == 1.0
    assert report.capture_probability_separate == 0.5
    assert report.shared_total_expenditure == pytest.approx(2.0 * 0.25)


def test_expenditure_ratio_beta_three():
    report = compare_expenditure(1.0, CostModel.power(3.0), UNIT_NOISE)
    assert report.ratio == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # cross-check against explicit cost evaluation
    explicit = report.shared.total_cost / report.separate.total_cost
    assert report.ratio == pytest.approx(explicit, abs=1e-12)


def test_below_threshold_ratio_undefined():
    report = compare_expenditure(4.0, CostModel.power(2.0), UNIT_NOISE)
    assert report.shared_total_expenditure == 0.0
    assert report.separate_total_expenditure == 0.0
    assert report.ratio is None


@pytest.mark.parametrize("beta", np.linspace(1.25, 8.0, 16).tolist())
def test_interior_ratio_formula(beta):
    report = compare_expenditure(0.5, CostModel.power(beta), UNIT_NOISE)
    if (
        report.shared.regime is Regime.INTERIOR
        and report.separate.regime is Regime.INTERIOR
    ):
        ratio = 2.0 ** (1.0 / (beta - 1.0))
        assert report.ratio == pytest.approx(ratio, abs=1e-9)
        assert report.ratio >= 1.0


# the regime grid: four noise laws at four scales and six values, each compared shared (n = 1)
# against separate (n = 2)
GRID_LAWS = tuple(itertools.product(("normal", "logistic", "laplace", "uniform"), (0.1, 0.5, 1.0, 2.0)))
GRID_VALUES = (0.05, 0.2, 1.0, 5.0, 20.0, 100.0)


def _compared_sides(costs):
    """``(v, n, cost, f0, regime)`` of both sides of every ``compare`` on the grid under ``costs``."""
    sides = []
    for (law, sigma), v, cost in itertools.product(GRID_LAWS, GRID_VALUES, costs):
        report, f0 = compare_expenditure(v, cost, NoiseModel(law, sigma)), closed_forms.peak_density(law, sigma)
        sides += [(v, 1, cost, f0, report.shared.regime), (v, 2, cost, f0, report.separate.regime)]
    return sides


def test_compare_regime_is_interior_exactly_below_the_power_participation_bound():
    sides = _compared_sides([CostModel.power(beta) for beta in (1.1, 1.2, 1.5, 2.0, 3.0, 5.0)])
    assert len(sides) == 1152
    for v, n, cost, f0, _ in sides:  # the oracle's bound for any n is the paper's printed one at n = 1 and 2
        printed = (2.0 * (cost.beta / (2.0 * f0)) ** cost.beta, 8.0 * (cost.beta / (4.0 * f0)) ** cost.beta)[n - 1]
        assert closed_forms.power_participation_bound(n, cost.beta, f0) == pytest.approx(printed, rel=1e-13)

    def flipped(scale):
        return sum((v <= scale * closed_forms.power_participation_bound(n, cost.beta, f0))
                   != (regime is Regime.INTERIOR) for v, n, cost, f0, regime in sides)

    # the grid tells a bound off by a factor of 2 either way from the solver's
    assert (flipped(1.0), flipped(2.0), flipped(0.5)) == (0, 58, 85)


def test_boost_fee_existence_conditions_do_not_decide_the_compare_regime():
    sides = _compared_sides([CostModel.timeboost(c, g) for c, g in itertools.product((0.05, 0.2, 1.0), (1.0, 4.0))])
    assert len(sides) == 1152
    predicted = [all(closed_forms.boost_fee_conditions(v, n, cost.c, cost.g, f0)) for v, n, cost, f0, _ in sides]
    assert all(hold for hold, (*_, regime) in zip(predicted, sides) if regime is Regime.INTERIOR)
    wrong = [n for hold, (_, n, *_, regime) in zip(predicted, sides) if hold and regime is not Regime.INTERIOR]
    assert (len(wrong), wrong.count(1)) == (146, 24)
    # one of them: both conditions hold on the separate side, and nobody invests
    assert all(closed_forms.boost_fee_conditions(0.05, 2, 0.05, 1.0, closed_forms.peak_density("normal", 0.1)))
    report = compare_expenditure(0.05, CostModel.timeboost(0.05, 1.0), NoiseModel("normal", 0.1))
    assert report.separate.regime is Regime.ZERO_INVESTMENT


def _capped(cap):
    """Bidding revenue under a bid cap at v = 1, beta = 2, shared vs. separate, at a normal noise with f0 = 1."""
    noise = NoiseModel("normal", 1.0 / (math.sqrt(2.0 * math.pi) * 1.0))
    return compare_expenditure(1.0, CostModel.power(2.0, cap=cap), noise)


def test_capped_comparison_tight_cap():
    # both traders bid the cap in the one shared race, and the separate game collects twice that
    report = _capped(0.1)
    assert report.shared.total_cost == pytest.approx(0.01, abs=1e-12)
    assert report.separate.total_cost == pytest.approx(0.02, abs=1e-12)
    assert report.shared.regime is Regime.CAP_BINDING
    assert report.separate_total_expenditure > report.shared_total_expenditure
    assert closed_forms.cap_condition(1.0, 2.0, 1.0, 0.1) is True  # 0.1 < (1/4)^(-1) = 4


def test_capped_comparison_slack_cap():
    report = _capped(10.0)
    assert report.shared.total_cost == pytest.approx(0.25, abs=1e-12)
    assert report.separate.total_cost == pytest.approx(0.125, abs=1e-12)
    assert report.shared.regime is Regime.INTERIOR
    assert not report.separate_total_expenditure > report.shared_total_expenditure
    assert closed_forms.cap_condition(1.0, 2.0, 1.0, 10.0) is False


def test_capped_comparison_zero_cap():
    report = _capped(0.0)
    assert report.shared_total_expenditure == 0.0
    assert report.separate_total_expenditure == 0.0


def _boost_fee_revenues(sigma, c, g, v):
    """The solver's boost-fee revenue per bidder under normal noise, shared and separate."""
    report = compare_expenditure(v, CostModel.timeboost(c, g), NoiseModel("normal", sigma))
    return report.shared.total_cost, report.separate.total_cost


def test_threshold_constant():
    # the solver's revenues meet at the paper's line, printed as c/g = 0.068447 * v/sigma for normal noise
    def gap(c_over_g):
        shared, separate = _boost_fee_revenues(1.0, c_over_g, 1.0, 1.0)
        return separate - shared

    flip = bisect_root(gap, 1e-6, 0.2)
    exact = closed_forms.revenue_threshold(closed_forms.peak_density("normal", 1.0), 1.0)
    assert flip == pytest.approx(exact, abs=1e-15)
    assert flip == pytest.approx(0.068447, abs=1e-5)


def test_threshold_predicate_examples():
    shared, separate = _boost_fee_revenues(1.0, 0.01, 1.0, 1.0)
    assert separate > shared > 0.0
    shared, separate = _boost_fee_revenues(1.0, 0.1, 1.0, 1.0)
    assert shared > separate > 0.0
    # past c = g*f0*v nobody invests, and neither side earns anything
    assert _boost_fee_revenues(1.0, 0.5, 1.0, 1.0) == (0.0, 0.0)


def test_threshold_predicate_matches_direct_comparison():
    # wherever both sides earn, the solver's ranking is the oracle line's
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        sigma, c, g, v = np.exp(rng.uniform(-2.0, 2.0, size=4)).tolist()
        line = closed_forms.revenue_threshold(closed_forms.peak_density("normal", sigma), v)
        if abs(line - c / g) < 1e-9:  # stay away from the knife edge
            continue
        shared, separate = _boost_fee_revenues(sigma, c, g, v)
        if shared > 0.0 and separate > 0.0:
            assert (separate >= shared) == (c / g <= line)
            checked += 1


def test_timeboost_revenue_monotonicities():
    def shared_revenue(axis, lo, hi, count):
        rows = sweep({axis: np.linspace(lo, hi, count).tolist()}, cost=CostModel.timeboost(0.25, 1.0),
                     noise=NoiseModel("normal", 1.0))
        return np.array([row["shared_total_cost"] for row in rows])

    assert (np.diff(shared_revenue("v", 0.5, 5.0, 30)) >= 0.0).all()
    assert (np.diff(shared_revenue("g", 0.5, 5.0, 30)) >= 0.0).all()
    # the c effect rises and then falls, to 0 once nobody invests: exactly one sign change in differences
    by_c = shared_revenue("c", 0.01, 2.0, 300)
    assert by_c.min() == by_c[-1] == 0.0
    signs = np.sign(np.diff(by_c))
    flips = np.count_nonzero(np.diff(signs[signs != 0.0]))
    assert flips == 1


def test_optimal_c_point_mass():
    dist = ValueDistribution.point_masses([(1.0, 1.0)])
    shared = optimal_c(dist, 1.0, 1.0, "shared")
    assert shared.c_star == pytest.approx(0.25, abs=1e-6)
    assert shared.ex_ante_revenue == pytest.approx(0.25, abs=1e-9)
    separate = optimal_c(dist, 1.0, 1.0, "separate")
    assert separate.c_star == pytest.approx(0.125, abs=1e-6)
    assert separate.ex_ante_revenue == pytest.approx(0.25, abs=1e-9)
    # dense grid scan oracle for the shared objective sqrt(c) - c
    grid = np.linspace(1e-6, 1.0, 200_001)
    best = grid[np.argmax(np.sqrt(grid) - grid)]
    assert shared.c_star == pytest.approx(best, abs=1e-5)


@pytest.mark.parametrize(
    "dist",
    [ValueDistribution.exponential(1.0), ValueDistribution.lognormal(0.0, 0.5)],
    ids=lambda d: d.spec,
)
def test_optimal_c_mode_equivalence(dist):
    shared = optimal_c(dist, 1.0, 1.0, "shared")
    separate = optimal_c(dist, 1.0, 1.0, "separate")
    assert abs(shared.ex_ante_revenue - separate.ex_ante_revenue) <= 1e-6
    assert abs(separate.c_star - shared.c_star / 2.0) <= 1e-6 * shared.c_star


@pytest.mark.parametrize(
    "dist",
    [
        ValueDistribution.point_masses([(1.0, 0.5), (2.0, 0.5)]),
        ValueDistribution.exponential(1.0),
        ValueDistribution.lognormal(0.0, 0.5),
    ],
    ids=lambda d: d.spec,
)
def test_doubling_substitution_pointwise(dist):
    for c in (0.01, 0.1, 0.25, 0.5, 1.0):
        shared = ex_ante_revenue(dist, 1.0, 1.0, "shared", c)
        separate = ex_ante_revenue(dist, 1.0, 1.0, "separate", c / 2.0)
        assert abs(shared - separate) <= 1e-9


def _quad_revenue(dist, mode, c):
    """Untruncated adaptive quadrature of the revenue integrand, g = f0 = 1."""
    k = {"shared": 1.0, "separate": 2.0}[mode]
    if dist.family == "exp":
        def pdf(v):
            return dist.rate * math.exp(-dist.rate * v)
    else:
        def pdf(v):
            z = (math.log(v) - dist.mu) / dist.sigma_log
            return math.exp(-0.5 * z * z) / (v * dist.sigma_log * math.sqrt(2.0 * math.pi))
    value, _ = quad(lambda v: (math.sqrt(k * c * v) - k * c) * pdf(v), k * c, math.inf,
                    epsabs=0.0, epsrel=1e-13, limit=500)
    return value


@pytest.mark.parametrize(
    "dist",
    [ValueDistribution.exponential(rate) for rate in (0.3, 1.0, 3.0)]
    + [ValueDistribution.lognormal(mu, s) for mu in (-1.0, 0.0, 1.0) for s in (0.3, 0.5, 1.2)],
    ids=lambda d: d.spec,
)
@pytest.mark.parametrize("mode", ["shared", "separate"])
def test_ex_ante_revenue_closed_form_matches_quadrature(dist, mode):
    checked = 0
    for c in (1e-6, 1e-4, 1e-2, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0):
        expected = _quad_revenue(dist, mode, c)
        value = ex_ante_revenue(dist, 1.0, 1.0, mode, c)
        if expected > 1e-12:
            assert abs(value - expected) <= 1e-10 * expected, (c, value, expected)
            checked += 1
    assert checked >= 5


def test_ex_ante_revenue_keeps_the_far_tail():
    # the value lies beyond any fixed-quantile truncation of the law
    value = ex_ante_revenue(ValueDistribution.lognormal(-1.0, 0.3), 1.0, 1.0, "separate", 1.0)
    assert value == pytest.approx(4.28e-10, rel=1e-2)


def test_import_leaves_out_numpy_and_scipy():
    code = "import sys, seqlab; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    # the child must import the seqlab this process sees, wherever that is
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    ("dist", "reason"),
    [
        (ValueDistribution.lognormal(800.0, 1.0), "c* rounds to inf"),
        (ValueDistribution.lognormal(-800.0, 1.0), "c* rounds to 0.0"),
        (ValueDistribution.point_masses([(5e-324, 1.0)]), "c* rounds to 0.0"),
        # from log-sigma about 37.39 the tails at the bracket end sigma**2 are no normal floats
        (ValueDistribution.lognormal(0.0, 38.5), "tails underflow"),
        (ValueDistribution.lognormal(0.0, 40.0), "tails underflow"),
        (ValueDistribution.lognormal(-2000.0, 80.0), "tails underflow"),
    ],
    ids=lambda x: getattr(x, "spec", None),
)
def test_optimal_c_beyond_float_range_is_a_solver_error(dist, reason):
    for mode in ("shared", "separate"):
        with pytest.raises(SolverError, match=re.escape(reason)):
            optimal_c(dist, 1.0, 1.0, mode)


def test_optimal_c_past_the_old_search_range():
    # optima below 1e-8*g*f0 or above 1e4*g*f0 once exited 1; at 1e308 the
    # product k*c*g*f0*v overflowed to an infinite revenue
    for points, c_star in (([(1e20, 1.0)], 2.5e19), ([(1e-12, 1.0)], 2.5e-13), ([(1e308, 1.0)], 2.5e307)):
        fee = optimal_c(ValueDistribution.point_masses(points), 1.0, 1.0, "shared")
        assert (fee.c_star, fee.ex_ante_revenue) == (c_star, c_star)
    for rate in (1e-300, 1e300):
        fee = optimal_c(ValueDistribution.exponential(rate), 1.0, 1.0, "shared")
        assert fee.c_star == pytest.approx(0.5315968851493932**2 / rate, rel=1e-15)
        assert fee.ex_ante_revenue == pytest.approx(0.2130273172711493 / rate, rel=1e-14)


_LAWS = [
    ValueDistribution.exponential(0.3),
    ValueDistribution.exponential(1.0),
    ValueDistribution.exponential(7.0),
    ValueDistribution.lognormal(0.0, 1e-3),
    ValueDistribution.lognormal(-1.0, 0.5),
    ValueDistribution.lognormal(1.5, 2.0),
    ValueDistribution.lognormal(-20.0, 10.0),
    ValueDistribution.point_masses([(1.0, 1.0)]),
    ValueDistribution.point_masses([(1.0, 0.5), (2.0, 0.5)]),
    ValueDistribution.point_masses([(0.0, 0.1), (0.2, 0.3), (1.0, 0.4), (7.0, 0.2)]),
    ValueDistribution.point_masses([(3.0, 0.25), (0.5, 0.0), (3.0, 0.5), (1e-3, 0.25)]),
]


@pytest.mark.parametrize("dist", _LAWS, ids=lambda d: d.spec)
def test_optimal_c_modes_are_bit_identical(dist):
    # h(L) with L = k*c/(g*f0) does not depend on k: the optima differ by exactly 2
    for g, f0 in ((1.0, 1.0), (0.5, 0.1), (2.5, 1.3), (1e-3, 7.0), (4.0, 1.0)):
        shared, separate = optimal_c(dist, g, f0, "shared"), optimal_c(dist, g, f0, "separate")
        assert separate.c_star == shared.c_star / 2
        assert separate.ex_ante_revenue == shared.ex_ante_revenue


def _mp_revenue_per_gf0(dist):
    """``h(L) = E[(sqrt(L*V) - L); V >= L]`` in mpmath, straight from each law."""
    if dist.family == "exp":
        rate = mpmath.mpf(dist.rate)
        return lambda L: (mpmath.sqrt(L) * mpmath.gammainc(1.5, rate * L) / mpmath.sqrt(rate)
                          - L * mpmath.exp(-rate * L))
    if dist.family == "lognormal":
        mu, sig = mpmath.mpf(dist.mu), mpmath.mpf(dist.sigma_log)
        scale = mpmath.exp(mu / 2 + sig**2 / 8)  # E[sqrt(V)]
        return lambda L: (mpmath.sqrt(L) * scale * mpmath.ncdf(sig / 2 - (mpmath.log(L) - mu) / sig)
                          - L * mpmath.ncdf((mu - mpmath.log(L)) / sig))
    return lambda L: mpmath.fsum(mpmath.mpf(w) * (mpmath.sqrt(L * v) - L) for v, w in dist.points if v >= L)


def _mp_optimal_level(dist, guess):
    """The maximizer of ``h``: the root of its numerical derivative, or the best piecewise stationary point."""
    h = _mp_revenue_per_gf0(dist)
    if dist.family != "points":
        level = mpmath.findroot(lambda L: mpmath.diff(h, L), mpmath.mpf(guess), tol=mpmath.mpf(10) ** -60)
        assert h(level) > max(h(level * 0.999), h(level * 1.001))
        return level
    values = sorted({mpmath.mpf(v) for v, w in dist.points if w > 0.0})
    candidates = []
    for start, end in zip([mpmath.mpf(0)] + values, values):  # on each piece h = a*sqrt(L) - b*L
        above = [(mpmath.mpf(v), mpmath.mpf(w)) for v, w in dist.points if v >= end]
        a, b = mpmath.fsum(w * mpmath.sqrt(v) for v, w in above), mpmath.fsum(w for _, w in above)
        candidates.append(min(max((a / (2 * b)) ** 2, start), end))
    level = max(candidates, key=h)
    assert all(h(level) >= h(x) for x in mpmath.linspace(0, values[-1], 2001))
    return level


@pytest.mark.parametrize(
    ("dist", "tol"),
    [(law, 1e-14) for law in (ValueDistribution.exponential(rate) for rate in (0.3, 1.0, 3.0))]
    + [(ValueDistribution.point_masses(points), 1e-14) for points in (
        [(1.0, 1.0)], [(1.0, 0.5), (2.0, 0.5)], [(0.2, 0.3), (1.0, 0.5), (7.0, 0.2)], [(0.0, 0.5), (3.0, 0.5)])]
    + [(ValueDistribution.lognormal(mu, sig), 1e-14) for mu in (-1.0, 0.0, 1.5) for sig in (1e-3, 0.3, 0.5, 1.2, 2.0)]
    # the factor exp(sig**2/8 - w/2) amplifies rounding in the stationarity condition
    + [(ValueDistribution.lognormal(mu, sig), 1e-12) for mu in (-1.0, 0.0, 1.5) for sig in (5.0, 10.0)],
    ids=lambda x: getattr(x, "spec", None),
)
def test_optimal_c_matches_mpmath(dist, tol):
    g, f0 = 0.7, 1.9
    with mpmath.workdps(40):
        for mode, k in (("shared", 1), ("separate", 2)):
            fee = optimal_c(dist, g, f0, mode)
            level = _mp_optimal_level(dist, fee.c_star * k / (g * f0))
            c_star = level * mpmath.mpf(g) * mpmath.mpf(f0) / k
            revenue = mpmath.mpf(g) * mpmath.mpf(f0) * _mp_revenue_per_gf0(dist)(level)
            assert abs(fee.c_star / c_star - 1) <= tol, (mode, fee.c_star, c_star)
            assert abs(fee.ex_ante_revenue / revenue - 1) <= tol, (mode, fee.ex_ante_revenue, revenue)


def test_lognormal_optimum_settles_on_the_bisection_float():
    # the optimum is the float that halving [-ln 4, sig**2] ends on, for every sig: above
    # about sig = 1 rounding makes the condition change sign many times near its root,
    # and bisection's path picks one of those floats
    def bisected(sig):
        def r(w):
            return (math.exp(sig * sig / 8.0 - w / 2.0) * math.erfc((w / sig - sig / 2.0) / math.sqrt(2.0))
                    - 2.0 * math.erfc(w / (sig * math.sqrt(2.0))))
        return bisect_root(r, -math.log(4.0), sig * sig)

    for sig in np.exp(np.random.default_rng(13).uniform(math.log(1e-8), math.log(37.39), 150)).tolist():
        mu = 0.0 if sig < 1.0 else -sig * sig  # keeps L a normal float
        assert _optimal_level(ValueDistribution.lognormal(mu, sig)) == math.exp(mu + bisected(sig)), sig


@pytest.mark.parametrize("dist", [
    ValueDistribution.exponential(1.0),
    ValueDistribution.lognormal(0.0, 1.0),
    ValueDistribution.point_masses([(1.0, 1.0)]),
    ValueDistribution.point_masses([(0.2, 0.3), (1.0, 0.5), (7.0, 0.2)]),
], ids=lambda d: d.spec)
@pytest.mark.parametrize("f0", [1.0, 1e-10, 1e-100, 1e-160, 1e-200, 1e-250, 1e-300])
def test_ex_ante_revenue_at_tiny_f0_matches_mpmath(dist, f0):
    # k*c*g*f0 is about (g*f0)**2*L: as one product it underflowed from
    # f0 near 1e-154, lost digits and then turned the revenue negative
    g = 0.7
    with mpmath.workdps(40):
        for mode, k in (("shared", 1), ("separate", 2)):
            for c in (optimal_c(dist, g, f0, mode).c_star, 0.3 * g * f0 / k):
                revenue = ex_ante_revenue(dist, g, f0, mode, c)
                level = k * mpmath.mpf(c) / (mpmath.mpf(g) * mpmath.mpf(f0))
                exact = mpmath.mpf(g) * mpmath.mpf(f0) * _mp_revenue_per_gf0(dist)(level)
                assert revenue > 0.0
                assert abs(revenue / exact - 1) <= 1e-14, (mode, c, revenue, exact)


@pytest.mark.parametrize("points", [
    [(1e308, 1.0)], [(1.7e308, 1.0)], [(1e308, 0.5), (1e307, 0.5)], [(1e300, 0.25), (1e308, 0.75)], [(1e-300, 1.0)],
], ids=str)
@pytest.mark.parametrize(("g", "f0"), [(4.0, 1.0), (3.99, 1.0), (1.0, 1.0), (0.7, 1.9)])
def test_point_law_revenue_near_float_max_matches_mpmath(points, g, f0):
    # sqrt(k*c)*sqrt(g*f0)*sqrt(v) is g*f0*v/2 at a lone point's optimum: it
    # overflowed to an infinite revenue although the revenue g*f0*v/4 is finite
    dist = ValueDistribution.point_masses(points)
    with mpmath.workdps(40):
        for mode, k in (("shared", 1), ("separate", 2)):
            fee = optimal_c(dist, g, f0, mode)
            level = k * mpmath.mpf(fee.c_star) / (mpmath.mpf(g) * mpmath.mpf(f0))
            exact = mpmath.mpf(g) * mpmath.mpf(f0) * _mp_revenue_per_gf0(dist)(level)
            assert abs(fee.ex_ante_revenue / exact - 1) <= 1e-14, (mode, fee.ex_ante_revenue, exact)


def test_exp_optimum_root_is_the_nearest_float():
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda y: mpmath.erfc(y) - 2 * y * mpmath.exp(-y * y) / mpmath.sqrt(mpmath.pi), 0.5)
        assert _EXP_ROOT == float(root)
        assert mpmath.nstr(root, 20) == "0.53159688514939322273"


def test_optimal_c_degenerate_distribution():
    dist = ValueDistribution.point_masses([(0.0, 1.0)])
    fee = optimal_c(dist, 1.0, 1.0, "shared")
    assert fee.c_star == 0.0
    assert fee.ex_ante_revenue == 0.0


def test_optimal_c_requires_existence_bound():
    with pytest.raises(ParameterError):
        optimal_c(ValueDistribution.exponential(1.0), 5.0, 1.0, "shared")


def test_value_distribution_validation_and_parse():
    with pytest.raises(ParameterError):
        ValueDistribution.exponential(0.0)
    with pytest.raises(ParameterError):
        ValueDistribution.lognormal(0.0, -1.0)
    with pytest.raises(ParameterError):
        ValueDistribution.point_masses([(1.0, 0.4), (2.0, 0.4)])  # weights sum to 0.8
    for value in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            ValueDistribution.point_masses([(value, 1.0)])
    with pytest.raises(ParameterError, match="beyond float range"):
        ValueDistribution.lognormal(1500.0, 1.0)
    assert parse_value_dist("exp:1.0") == ValueDistribution.exponential(1.0)
    assert parse_value_dist("lognormal:0,0.5") == ValueDistribution.lognormal(0.0, 0.5)
    parsed = parse_value_dist("points:1@0.25,2@0.75")
    assert parsed.points == ((1.0, 0.25), (2.0, 0.75))
    assert parse_value_dist(parsed.spec) == parsed
    for bad in ("exp", "exp:", "points:1", "weird:1"):
        with pytest.raises(ConfigError):
            parse_value_dist(bad)


def test_sweep_single_point_matches_compare():
    report = compare_expenditure(1.0, CostModel.power(2.0), UNIT_NOISE)
    rows = sweep({"v": [1.0]}, cost=CostModel.power(2.0), noise=UNIT_NOISE)
    assert len(rows) == 1
    row = rows[0]
    assert row["v"] == 1.0
    assert row["shared_signal"] == report.shared.signal
    assert row["separate_total_cost"] == report.separate.total_cost
    assert row["expenditure_ratio"] == report.ratio


def test_sweep_value_monotonicity():
    rows = sweep({"v": np.linspace(0.1, 2.0, 20).tolist()}, cost=CostModel.power(2.0), noise=NoiseModel("normal", 1.0))
    investment = [row["shared_signal"] for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(investment, investment[1:]))


def test_sweep_sigma_monotonicity():
    # sigma range chosen to stay in the interior regime throughout
    rows = sweep({"sigma": np.linspace(0.35, 2.0, 19).tolist()}, cost=CostModel.power(2.0), noise=NoiseModel("normal", 1.0))
    assert all(row["shared_regime"] == "interior" for row in rows)
    investment = [row["shared_signal"] for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(investment, investment[1:]))


def test_sweep_row_order_and_axes():
    rows = sweep(
        {"beta": [2.0, 3.0], "v": [0.5, 1.0]},
        cost=CostModel.power(2.0),
        noise=UNIT_NOISE,
    )
    # canonical axis order puts v before beta regardless of dict order
    assert [(row["v"], row["beta"]) for row in rows] == [(0.5, 2.0), (0.5, 3.0), (1.0, 2.0), (1.0, 3.0)]


def test_sweep_chains_axis_generalizes_separate_side():
    rows = sweep({"chains": [1.0, 2.0, 3.0]}, cost=CostModel.power(2.0), noise=UNIT_NOISE)
    assert [row["capture_probability_separate"] for row in rows] == [1.0, 0.5, 0.25]


def test_sweep_rejects_bad_axes():
    with pytest.raises(ConfigError):
        sweep({"volatility": [1.0]}, cost=CostModel.power(2.0), noise=UNIT_NOISE)
    with pytest.raises(ConfigError):
        sweep({"beta": [2.0]}, cost=CostModel.timeboost(0.25, 1.0), noise=UNIT_NOISE)
    with pytest.raises(ConfigError):
        sweep({"v": []}, cost=CostModel.power(2.0), noise=UNIT_NOISE)
    with pytest.raises(ConfigError):  # an int past float range, once an OverflowError from math.isfinite
        sweep({"v": [10**400]}, cost=CostModel.power(2.0), noise=UNIT_NOISE)
    # an axis value that is not a real number is the axis's error, before any market is checked
    for value in (True, np.float32(2.0)):
        with pytest.raises(ConfigError, match=r"^sweep axis 'v' needs a non-empty list of finite values$"):
            sweep({"v": [1.0, value]}, cost=CostModel.power(2.0), noise=UNIT_NOISE)


@pytest.mark.parametrize(("axes", "baseline", "message"), [
    ({"chains": [1, 2]}, {"v": math.inf}, "trade value must be positive and finite, got inf"),
    ({"chains": [1, 2]}, {"v": True}, "trade value must be positive and finite, got True"),
    ({"v": [1.0, 2.0]}, {"alpha": True}, "refund fraction alpha must lie in [0, 1], got True"),
    ({"chains": [1, 2]}, {"v": 10**400}, f"trade value must be positive and finite, got {10**400}"),
    ({"chains": [1, 2**63]}, {}, f"chain count must be at most 2**63 - 1, got {2**63}"),
], ids=["v-inf", "v-bool", "alpha-bool", "v-past-float-range", "chains-past-int64"])
def test_sweep_raises_market_configs_error_for_a_bad_market(axes, baseline, message):
    # the market checks look at each axis's value types and extremes, and value by value only
    # when those fail: what passes them passes MarketConfig, and what fails raises its error
    with pytest.raises(ParameterError) as raised:
        sweep(axes, cost=CostModel.power(2.0), noise=UNIT_NOISE, **baseline)
    assert str(raised.value) == message


#: the result fields a sweep row carries per side, as ``<side>_<field>``
SIDE_FIELDS = ("signal", "per_chain_cost", "total_cost", "expected_profit")


def _assert_row_equals_report(row, report):
    for prefix, result in (("shared", report.shared), ("separate", report.separate)):
        for field in SIDE_FIELDS:
            assert row[f"{prefix}_{field}"].hex() == getattr(result, field).hex(), (prefix, field, row)
        assert row[f"{prefix}_regime"] == result.regime.value
    for name in ("shared_total_expenditure", "separate_total_expenditure",
                 "capture_probability_shared", "capture_probability_separate"):
        assert row[name].hex() == getattr(report, name).hex(), (name, row)
    ratio = report.ratio
    assert (row["expenditure_ratio"] is None) if ratio is None else row["expenditure_ratio"].hex() == ratio.hex()
    assert row["interpretation"] == report.interpretation


@pytest.mark.parametrize(
    ("axes", "cost", "alpha"),
    [
        ({"v": [1e-12, 0.02, 0.3, 1.0, 7.0, 1e12], "beta": [1.05, 2.0, 3.5], "cap": [0.0, 0.05, 1.0, 1e3],
          "alpha": [0.0, 0.35, 1.0], "chains": [1, 2]}, CostModel.power(2.0), 1.0),
        ({"v": [0.01, 0.2, 0.39894, 1.0, 5.0, 1e9], "c": [0.05, 0.25], "g": [0.5, 1.0, 2.0],
          "sigma": [0.3, 1.0, 4.0], "alpha": [0.0, 0.6, 1.0]}, CostModel.timeboost(0.25, 1.0, cap=0.45), 1.0),
        ({"v": [0.1, 1.0, 10.0], "chains": [1, 2, 3, 4, 5]}, CostModel.timeboost(0.25, 1.0), 1.0),
        ({"v": [0.1, 1.0, 10.0], "chains": [1, 2, 3, 4, 5], "beta": [1.5, 2.0]}, CostModel.power(2.0), 1.0),
    ],
    ids=["power-cap-refund", "timeboost-refund", "timeboost-chains", "power-chains"],
)
def test_sweep_rows_equal_compare_bit_for_bit(axes, cost, alpha):
    # the lockstep solve groups rows by cost model; every row must still be
    # its own compare_expenditure to the last bit
    rows = sweep(axes, cost=cost, noise=UNIT_NOISE, alpha=alpha)
    assert len(rows) == math.prod(len(values) for values in axes.values())
    for row in rows:
        model = cost if "cap" not in row else CostModel(**{**vars(cost), "cap": row["cap"]})
        for name in ("beta", "c", "g"):
            if name in row:
                model = CostModel(**{**vars(model), name: row[name]})
        noise = NoiseModel("normal", row.get("sigma", UNIT_NOISE.param))
        report = compare_expenditure(row["v"], model, noise, row.get("alpha", alpha),
                                     separate_chains=int(row.get("chains", 2)))
        _assert_row_equals_report(row, report)


def test_refund_sweep_bisects_in_lockstep(monkeypatch):
    # 1,000 rows are 2,000 refund solves; in lockstep they share each residual
    # evaluation instead of making one per solve. From their estimates the
    # search needs 5 steps here, both bracket ends 1 and the costs of the
    # signals 1: 7 evaluations, where halving [0, upper] needed about 60
    evaluations = []
    unchecked = CostModel._cost
    monkeypatch.setattr(CostModel, "_cost", lambda self, s: evaluations.append(np.size(s)) or unchecked(self, s))
    rows = sweep({"v": np.linspace(0.1, 50.0, 500).tolist(), "chains": [1, 2]},
                 cost=CostModel.power(2.0), noise=NoiseModel("normal", 1.0), alpha=0.5)
    assert len(rows) == 1000
    assert len(evaluations) <= 9
    assert sorted(set(evaluations)) == [2000, 4000]  # the ends are one call on both


POWER_COSTS = st.builds(
    CostModel.power,
    st.one_of(st.sampled_from([2.0, 1.05]), st.floats(1.05, 6.0)),
    cap=st.one_of(st.none(), st.floats(0.0, 10.0)),
)
TIMEBOOST_COSTS = st.builds(
    lambda c, g, share: CostModel.timeboost(c, g, cap=None if share is None else share * g),
    st.floats(1e-3, 10.0), st.floats(0.1, 10.0), st.one_of(st.none(), st.floats(0.0, 0.99)),
)
NOISES = st.builds(NoiseModel, st.sampled_from(["normal", "logistic", "laplace", "uniform"]), st.floats(0.1, 10.0))
PACKAGE_ERRORS = (ParameterError, DomainError, ConfigError, SolverError)


def _outcome(run):
    try:
        return run()
    except PACKAGE_ERRORS as exc:  # any other exception escapes and fails the test
        return type(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # cost overflow to inf at the largest values
@settings(max_examples=400, deadline=None)
@given(
    log_v=st.floats(-300.0, 300.0),
    cost=st.one_of(POWER_COSTS, TIMEBOOST_COSTS),
    noise=NOISES,
    alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    chains=st.sampled_from([1, 2]),
)
def test_one_row_sweep_equals_solve_equilibrium(log_v, cost, noise, alpha, chains):
    v = 10.0**log_v
    expected = _outcome(lambda: [solve_equilibrium(MarketConfig(v, n, alpha), cost, noise) for n in (1, chains)])
    rows = _outcome(lambda: sweep({"v": [v]}, cost=cost, noise=noise, alpha=alpha, chains=chains))
    if isinstance(expected, type) or isinstance(rows, type):
        assert rows is expected
        return
    (row,) = rows
    for prefix, result in zip(("shared", "separate"), expected):
        for field in SIDE_FIELDS:
            assert row[f"{prefix}_{field}"].hex() == getattr(result, field).hex(), (prefix, field)
        assert row[f"{prefix}_regime"] == result.regime.value
        assert math.isfinite(result.signal) and math.isfinite(result.expected_profit)
