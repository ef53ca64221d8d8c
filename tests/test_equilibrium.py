import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import closed_forms
from seqlab import equilibrium
from seqlab.cost import CostModel
from seqlab.equilibrium import EquilibriumResult, MarketConfig, Regime, _stake, solve_equilibria, solve_equilibrium
from seqlab.errors import ParameterError, SolverError
from seqlab.noise import NoiseModel

# sigma for which the peak density of the normal difference law is exactly 1
SIGMA_UNIT_F0 = 1.0 / math.sqrt(2.0 * math.pi)
UNIT_NOISE = NoiseModel("normal", SIGMA_UNIT_F0)

GOLDEN_SHARED_ROOT = (math.sqrt(5.0) - 1.0) / 2.0  # solves 1 - s^2 - s = 0
GOLDEN_SEPARATE_ROOT = (math.sqrt(3.0) - 1.0) / 2.0  # solves 1 - 2s^2 - 2s = 0


def test_shared_baseline_example():
    result = solve_equilibrium(MarketConfig(1.0, 1), CostModel.power(2.0), UNIT_NOISE)
    assert result.signal == pytest.approx(0.5, abs=1e-12)
    assert result.per_chain_cost == pytest.approx(0.25, abs=1e-12)
    assert result.expected_profit == pytest.approx(0.25, abs=1e-12)
    assert result.regime is Regime.INTERIOR
    assert result.capture_probability == 0.5


def test_separate_baseline_example():
    result = solve_equilibrium(MarketConfig(1.0, 2), CostModel.power(2.0), UNIT_NOISE)
    assert result.signal == pytest.approx(0.25, abs=1e-12)
    assert result.total_cost == pytest.approx(0.125, abs=1e-12)
    assert result.expected_profit == pytest.approx(0.125, abs=1e-12)
    assert result.regime is Regime.INTERIOR
    assert result.capture_probability == 0.25


def test_timeboost_corner_is_zero_investment():
    result = solve_equilibrium(MarketConfig(1.0, 1), CostModel.timeboost(2.0, 1.0), UNIT_NOISE)
    assert result.signal == 0.0
    assert result.regime is Regime.ZERO_INVESTMENT
    assert result.expected_profit == pytest.approx(0.5)


def test_failed_participation_is_zero_investment():
    # candidate signal 2 costs 4, more than the v/2 = 2 on offer
    result = solve_equilibrium(MarketConfig(4.0, 1), CostModel.power(2.0), UNIT_NOISE)
    assert result.signal == 0.0 and result.total_cost == 0.0
    assert result.regime is Regime.ZERO_INVESTMENT
    assert result.expected_profit == 2.0  # not investing is costless


def test_cap_binds():
    result = solve_equilibrium(MarketConfig(1.0, 1), CostModel.power(2.0, cap=0.3), UNIT_NOISE)
    assert result.signal == 0.3
    assert result.regime is Regime.CAP_BINDING
    assert result.per_chain_cost == pytest.approx(0.09)


def test_latency_closed_form_examples():
    assert closed_forms.power(1.0, 1, 2.0, 1.0).signal == pytest.approx(0.5, abs=1e-12)
    separate = closed_forms.power(1.0, 2, 2.0, 1.0)
    assert separate.signal == pytest.approx(0.25, abs=1e-12)
    assert separate.total_cost == pytest.approx(0.125, abs=1e-12)
    # sigma = 1 shifts the peak density to 1/sqrt(2*pi)
    sigma_one = closed_forms.power(1.0, 1, 2.0, closed_forms.peak_density("normal", 1.0))
    assert sigma_one.signal == pytest.approx(0.19947114020071635, abs=1e-12)


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, 5.0])
@pytest.mark.parametrize("v", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_agrees_with_foc_solver(beta, v, n):
    via_solver = solve_equilibrium(MarketConfig(v, n), CostModel.power(beta), UNIT_NOISE)
    via_formula = closed_forms.power(v, n, beta, closed_forms.peak_density("normal", SIGMA_UNIT_F0))
    assert via_formula.signal == pytest.approx(via_solver.signal, abs=1e-9)
    assert via_formula.total_cost == pytest.approx(via_solver.total_cost, abs=1e-9)
    assert via_formula.regime == via_solver.regime.value


def test_timeboost_closed_form_examples():
    shared = closed_forms.boost_fee(1.0, 1, 0.25, 1.0, 1.0)
    assert shared.signal == pytest.approx(0.5, abs=1e-12)
    assert shared.total_cost == pytest.approx(0.25, abs=1e-12)
    separate = closed_forms.boost_fee(1.0, 2, 0.25, 1.0, 1.0)
    assert separate.signal == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)
    assert separate.total_cost == pytest.approx(math.sqrt(0.5) - 0.5, abs=1e-12)
    low_value = closed_forms.boost_fee(0.2, 1, 0.25, 1.0, 1.0)
    assert low_value.signal == 0.0
    assert low_value.regime == Regime.ZERO_INVESTMENT.value


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c,g,v", [(0.25, 1.0, 1.0), (0.1, 2.0, 0.7), (0.5, 1.0, 3.0), (2.0, 1.0, 1.0)])
def test_timeboost_closed_form_agrees_with_foc_solver(n, c, g, v):
    via_solver = solve_equilibrium(MarketConfig(v, n), CostModel.timeboost(c, g), UNIT_NOISE)
    via_formula = closed_forms.boost_fee(v, n, c, g, closed_forms.peak_density("normal", SIGMA_UNIT_F0))
    assert via_formula.signal == pytest.approx(via_solver.signal, abs=1e-9)
    assert via_formula.total_cost == pytest.approx(via_solver.total_cost, abs=1e-9)
    assert via_formula.regime == via_solver.regime.value


@pytest.mark.parametrize(
    "cost",
    [CostModel.power(2.0), CostModel.power(3.0), CostModel.timeboost(0.25, 1.0)],
    ids=lambda c: c.spec,
)
@pytest.mark.parametrize("alpha", [1.0, 1.0 - 1e-9])
def test_refund_at_full_cost_reduces_to_baseline(cost, alpha):
    # alpha just below 1 takes the bisection path
    shared_refund = solve_equilibrium(MarketConfig(1.0, 1, alpha), cost, UNIT_NOISE)
    shared_base = solve_equilibrium(MarketConfig(1.0, 1), cost, UNIT_NOISE)
    assert shared_refund.signal == pytest.approx(shared_base.signal, abs=1e-9)
    separate_refund = solve_equilibrium(MarketConfig(1.0, 2, alpha), cost, UNIT_NOISE)
    separate_base = solve_equilibrium(MarketConfig(1.0, 2), cost, UNIT_NOISE)
    assert separate_refund.signal == pytest.approx(separate_base.signal, abs=1e-9)


def test_refund_full_refund_roots():
    shared = solve_equilibrium(MarketConfig(1.0, 1, 0.0), CostModel.power(2.0), UNIT_NOISE)
    assert shared.signal == pytest.approx(GOLDEN_SHARED_ROOT, abs=1e-9)
    # substitute back into the stationarity condition
    s = shared.signal
    assert abs(1.0 - s * s - s) < 1e-10
    separate = solve_equilibrium(MarketConfig(1.0, 2, 0.0), CostModel.power(2.0), UNIT_NOISE)
    assert separate.signal == pytest.approx(GOLDEN_SEPARATE_ROOT, abs=1e-9)
    s = separate.signal
    assert abs(1.0 - 2.0 * s * s - 2.0 * s) < 1e-10


def test_refund_half_refund_roots():
    shared = solve_equilibrium(MarketConfig(1.0, 1, 0.5), CostModel.power(2.0), UNIT_NOISE)
    assert GOLDEN_SHARED_ROOT > shared.signal > 0.5
    assert shared.signal == pytest.approx((math.sqrt(17.0) - 3.0) / 2.0, abs=1e-9)
    separate = solve_equilibrium(MarketConfig(1.0, 2, 0.5), CostModel.power(2.0), UNIT_NOISE)
    assert GOLDEN_SEPARATE_ROOT > separate.signal > 0.25
    assert separate.signal == pytest.approx((math.sqrt(13.0) - 3.0) / 2.0, abs=1e-9)


def test_refund_root_agrees_with_dense_residual_scan():
    alpha = 0.5
    result = solve_equilibrium(MarketConfig(1.0, 1, alpha), CostModel.power(2.0), UNIT_NOISE)

    def residual(s):
        return 1.0 - (1.0 - alpha) * (s**2 + 0.5 * 2.0 * s) - alpha * 2.0 * s

    grid = np.linspace(0.0, 2.0, 2_000_001)
    values = residual(grid)
    crossing = grid[np.argmax(values <= 0.0)]
    assert result.signal == pytest.approx(crossing, abs=1e-5)
    assert abs(residual(result.signal)) < 1e-10


@pytest.mark.parametrize("beta", [2.0, 3.0, 5.0])
def test_refund_signal_decreasing_in_alpha(beta):
    cost = CostModel.power(beta)
    alphas = [round(0.1 * k, 1) for k in range(11)]
    shared = [solve_equilibrium(MarketConfig(1.0, 1, a), cost, UNIT_NOISE).signal for a in alphas]
    separate = [
        solve_equilibrium(MarketConfig(1.0, 2, a), cost, UNIT_NOISE).signal for a in alphas
    ]
    assert all(hi >= lo - 1e-12 for hi, lo in zip(shared, shared[1:]))
    assert all(hi >= lo - 1e-12 for hi, lo in zip(separate, separate[1:]))


def test_refund_respects_cap():
    capped = CostModel.power(2.0, cap=0.55)
    result = solve_equilibrium(MarketConfig(1.0, 1, 0.0), capped, UNIT_NOISE)
    assert result.signal == 0.55
    assert result.regime is Regime.CAP_BINDING


def test_refund_timeboost_corner():
    # losing still costs the full fee slope at zero, which exceeds marginal value
    expensive = CostModel.timeboost(2.0, 1.0)
    result = solve_equilibrium(MarketConfig(1.0, 1, 0.9), expensive, UNIT_NOISE)
    assert result.signal == 0.0
    assert result.regime is Regime.ZERO_INVESTMENT


@pytest.mark.parametrize(
    "c,g,sigma,alpha,v",
    [
        (1.9383908940852579, 2.259802023905591, 1.1497329458523167, 0.9, 2.348450893850243),
        (0.6598381887696831, 2.5184498161402153, 1.3224732107411465, 0.25, 0.5428264244357859),
    ],
)
def test_refund_timeboost_at_the_fee_slope(c, g, sigma, alpha, v):
    # 2M/(1+alpha) is within rounding of the fee slope c/g at zero, and the
    # residual rounds negative on the whole bracket: nobody invests
    result = solve_equilibrium(MarketConfig(v, 1, alpha), CostModel.timeboost(c, g), NoiseModel("normal", sigma))
    assert result.signal == 0.0
    assert result.regime is Regime.ZERO_INVESTMENT


def test_refund_timeboost_interior_residual():
    cost = CostModel.timeboost(0.25, 1.0)
    result = solve_equilibrium(MarketConfig(1.0, 1, 0.5), cost, UNIT_NOISE)
    assert result.regime is Regime.INTERIOR
    s = result.signal
    residual = 1.0 - 0.5 * (cost.cost(s) + 0.5 * cost.marginal_cost(s)) - 0.5 * cost.marginal_cost(s)
    assert abs(residual) < 1e-10


@pytest.mark.parametrize(
    "beta,alpha,n",
    [(1.05, 0.0, 1), (1.05, 0.0, 2), (1.1, 0.0, 1), (1.1, 0.0, 2), (1.05, 0.5, 1), (1.05, 0.5, 2)],
)
def test_refund_root_far_below_the_baseline_signal(beta, alpha, n):
    # nearly linear costs put the refund root orders of magnitude below the
    # full-cost signal; a bracket grown from that signal must still find it
    noise = NoiseModel("normal", 1.0)
    f0 = noise.density_at_zero()
    result = solve_equilibrium(MarketConfig(1.0, n, alpha), CostModel.power(beta), noise)

    def residual(log_s):
        s = math.exp(log_s)
        return f0 / 2.0 ** (n - 1) - 0.5 * (1.0 + alpha) * beta * s ** (beta - 1.0) - (1.0 - alpha) * f0 * s**beta

    expected = math.exp(brentq(residual, -100.0, 0.0, xtol=1e-15, rtol=4.0 * np.finfo(float).eps))
    assert result.regime is Regime.INTERIOR
    assert result.signal == pytest.approx(expected, rel=1e-12)


def test_refund_root_at_the_bracket_end():
    # the cost term (1-alpha)*f0*C(s) is far below the rounding of M here, so
    # the bracket end C'(s) = 2M/(1+alpha) is the root
    noise, alpha, v = NoiseModel("normal", 1.0), 0.5, 1e-12
    result = solve_equilibrium(MarketConfig(v, 1, alpha), CostModel.power(1.5), noise)
    upper = (2.0 * noise.density_at_zero() * v / ((1.0 + alpha) * 1.5)) ** 2
    assert result.regime is Regime.INTERIOR
    assert result.signal == pytest.approx(upper, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("noise", [NoiseModel("normal", 1.0), NoiseModel("logistic", 0.7)], ids=lambda z: z.spec)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9])
@pytest.mark.parametrize("v", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_refund_root_is_scale_free(v, alpha, n, noise):
    # for C(s) = s^2 the stationarity condition is a quadratic in s
    f0 = noise.density_at_zero()
    m = f0 * v / 2.0 ** (n - 1)
    root = 2.0 * m / ((1.0 + alpha) + math.sqrt((1.0 + alpha) ** 2 + 4.0 * (1.0 - alpha) * f0 * m))
    profit = v * 0.5**n - n * 0.5 * (1.0 + alpha) * root**2
    result = solve_equilibrium(MarketConfig(v, n, alpha), CostModel.power(2.0), noise)
    if profit < 0.0:
        assert result.regime is Regime.ZERO_INVESTMENT
    else:
        assert result.regime is Regime.INTERIOR
        assert result.signal == pytest.approx(root, rel=1e-14, abs=0.0)


def _halved_refund_roots(cost, f0, marginal, alpha, upper, bisect):
    """Refund roots by halving ``[0, upper]`` to float resolution with ``bisect``, the reference for the settled roots."""
    half, weight = 0.5 * (1.0 + alpha), (1.0 - alpha) * f0

    def residual_of(i):
        m, h, w = marginal[i], half[i], weight[i]
        return lambda s: m - h * cost._marginal(s) - w * cost._cost(s)

    below = residual_of(slice(None))(upper) < 0.0
    inside = below & (residual_of(slice(None))(np.zeros_like(upper)) > 0.0)
    root = np.where(below, 0.0, upper)
    if inside.any():
        root[inside] = bisect(residual_of(inside), 0.0, upper[inside])
    return root


def test_refund_roots_are_the_halving_float(monkeypatch, lockstep_bisect):
    # 20,000 refund markets over both families, v from 1e-12 to 1e12, alpha in [0, 1) and
    # n in {1, 2}: every Equilibria field equals, bit for bit, what halving [0, upper] gives
    rng = np.random.default_rng(9)
    costs = [CostModel.power(beta) for beta in (2.0, 1.05, *rng.uniform(1.05, 6.0, 14))]
    costs += [CostModel.timeboost(c, g) for c, g in zip(10.0 ** rng.uniform(-3.0, 1.0, 16),
                                                        10.0 ** rng.uniform(-1.0, 1.0, 16))]
    f0s = [NoiseModel(*law).density_at_zero() for law in (("normal", 1.0), ("normal", 0.05), ("logistic", 3.0),
                                                          ("laplace", 0.5), ("uniform", 20.0))]
    zeros = {"single": 0, "run": 0}

    def halved(cost, f0, marginal, alpha, upper):
        root = _halved_refund_roots(cost, f0, marginal, alpha, upper, lockstep_bisect)

        def zero_at(s):
            return marginal - 0.5 * (1.0 + alpha) * cost._marginal(s) - (1.0 - alpha) * f0 * cost._cost(s) == 0.0

        zero = (root > 0.0) & (root < upper) & zero_at(root)
        run = zero & (zero_at(np.nextafter(root, 0.0)) | zero_at(np.nextafter(root, upper)))
        zeros["single"] += int((zero & ~run).sum())
        zeros["run"] += int(run.sum())
        return root

    markets = 625
    for cost in costs:
        f0 = rng.choice(f0s, markets)
        v = 10.0 ** rng.uniform(-12.0, 12.0, markets)
        n = rng.integers(1, 3, markets)
        alpha = rng.uniform(0.0, 1.0, markets)
        settled = solve_equilibria(cost, f0, v, n, alpha)
        with monkeypatch.context() as patch:
            patch.setattr(equilibrium, "_refund_roots", halved)
            reference = solve_equilibria(cost, f0, v, n, alpha)
        for field, mine, theirs in zip(settled._fields, settled, reference):
            assert np.array_equal(mine.view(np.int64), theirs.view(np.int64)), (cost, field)
    assert len(costs) * markets == 20_000
    # exact zeros of the float residual: single ones, and runs of two or more
    assert zeros["single"] > 1000 and zeros["run"] > 0, zeros


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, 5.0])
def test_chain_count_decay_rate(beta):
    signals = [solve_equilibrium(MarketConfig(0.5, n), CostModel.power(beta), UNIT_NOISE).signal for n in (1, 2, 3, 4)]
    expected_ratio = 2.0 ** (-1.0 / (beta - 1.0))
    for lower, upper in zip(signals, signals[1:]):
        if upper > 0.0:  # interior on both sides
            assert upper / lower == pytest.approx(expected_ratio, abs=1e-9)


def test_chain_counts_past_1024_solve_until_the_stake_or_capture_underflows():
    # 2**(n-1) overflows past n = 1024; the stake f0*v/2**(n-1) lasts until about n = 1075 + log2(f0*v),
    # the capture probability 2**-n until n = 1074
    cost, f0 = CostModel.power(2.0), UNIT_NOISE.density_at_zero()
    for n in (1024, 1030, 1070, 1074):
        market = MarketConfig(1e10, n)
        result = solve_equilibrium(market, cost, UNIT_NOISE)
        oracle = closed_forms.power(1e10, n, 2.0, f0)
        assert result == EquilibriumResult(*oracle[:5], Regime(oracle.regime))
        assert result.regime is Regime.INTERIOR and result.signal > 0.0 and result.capture_probability > 0.0
    stake = re.escape("the stake f0*v/2**(n-1) underflows to 0")
    with pytest.raises(ParameterError, match=rf"^{stake} at chains=1100, v=1$"):
        solve_equilibrium(MarketConfig(1.0, 1100), cost, UNIT_NOISE)
    with pytest.raises(ParameterError, match=rf"^{stake} at chains=100, v=1e-300$"):
        solve_equilibrium(MarketConfig(1e-300, 100), cost, UNIT_NOISE)
    capture = re.escape("the capture probability 2**-n underflows to 0")
    for n in (1075, 1100):
        with pytest.raises(ParameterError, match=rf"^{capture} at chains={n}$"):
            solve_equilibrium(MarketConfig(1e10, n), cost, UNIT_NOISE)


@pytest.mark.parametrize("field, kwargs", [
    ("trade value", {"v": True}),
    ("chain count", {"v": 1.0, "n_chains": True}),
    ("refund fraction", {"v": 1.0, "alpha": False}),
])
def test_market_rejects_booleans(field, kwargs):
    with pytest.raises(ParameterError, match=f"^{field}"):
        MarketConfig(**kwargs)


def test_stake_keeps_every_finite_product_and_scales_the_rest():
    # 10**6 markets over the whole float range, with stakes that are normal floats
    rng = np.random.default_rng(8)
    f0, v = 10.0 ** rng.uniform(-300.0, 300.0, (2, 10**6))
    n = rng.integers(1, 1101, 10**6)
    keep = np.abs(np.log2(f0) + np.log2(v) + 1 - n) < 1020
    f0, v, n = f0[keep], v[keep], n[keep]
    stake = _stake(f0, v, n)
    with np.errstate(over="ignore"):
        product = f0 * v
    finite = np.isfinite(product)
    assert finite.sum() > 500_000 and (~finite).sum() > 50_000
    assert np.array_equal(stake[finite].view(np.uint64), np.ldexp(product[finite], 1 - n[finite]).view(np.uint64))
    # past float range, the stake is the exact product scaled and rounded once
    for i in np.flatnonzero(~finite)[:20_000]:
        assert stake[i] == float(Fraction(f0[i]) * Fraction(v[i]) / 2 ** int(n[i] - 1))


def test_stake_past_float_range_names_the_inputs():
    f0 = NoiseModel("normal", 1e-10).density_at_zero()
    with pytest.raises(ParameterError, match=re.escape("the stake f0*v/2**(n-1) overflows at chains=1, v=1e+300")):
        solve_equilibrium(MarketConfig(1e300, 1), CostModel.power(2.0), NoiseModel("normal", 1e-10))
    # at 40 chains the stake is a float, but the cost of the signal it buys is not
    with pytest.raises(SolverError, match=r"^the power:2 cost of the signal 3\.62836e\+297 lies beyond float range"):
        solve_equilibrium(MarketConfig(1e300, 40), CostModel.power(2.0), NoiseModel("normal", 1e-10))
    assert _stake(np.array([f0]), np.array([1e300]), np.array([40]))[0] == float(Fraction(f0) * 10**300 / 2**39)


def test_an_upper_marginal_cost_past_float_range_is_a_solver_error_naming_the_market():
    # at f0 = 1 the stake M = 1e308 is a float, but 2M/(1+alpha) at alpha = 0 is not; pytest makes
    # an overflow warning an error
    with pytest.raises(SolverError, match=re.escape(
            "the marginal cost 2M/(1+alpha) of the upper signal overflows at chains=1, v=1e+308")):
        solve_equilibrium(MarketConfig(1e308, 1, 0.0), CostModel.power(2.0), UNIT_NOISE)
    # at alpha = 1 the bound is M itself, and the cost of the signal it buys is what overflows
    with pytest.raises(SolverError, match=r"^the power:2 cost of the signal 5e\+307 lies beyond float range"):
        solve_equilibrium(MarketConfig(1e308, 1), CostModel.power(2.0), UNIT_NOISE)


def test_upper_marginal_cost_keeps_the_bits_of_2m_over_1_plus_alpha():
    # M/((1+alpha)/2) is the same quotient as 2M/(1+alpha): halving 1+alpha and doubling M are exact
    rng = np.random.default_rng(7)
    marginal = np.ldexp(rng.uniform(0.5, 1.0, 200_000), rng.integers(-1070, 1023, 200_000))
    alpha = np.concatenate([rng.uniform(0.0, 1.0, 199_998), [0.0, 1.0]])
    with np.errstate(over="ignore"):
        doubled = 2.0 * marginal / (1.0 + alpha)
    finite = np.isfinite(doubled)
    assert finite.mean() > 0.99
    halved = marginal[finite] / (0.5 * (1.0 + alpha[finite]))
    assert np.array_equal(halved.view(np.uint64), doubled[finite].view(np.uint64))


def test_interior_foc_residual_is_tiny():
    for beta in (1.5, 2.0, 5.0):
        for v in (0.1, 1.0):
            cost = CostModel.power(beta)
            result = solve_equilibrium(MarketConfig(v, 2), cost, UNIT_NOISE)
            if result.regime is Regime.INTERIOR:
                assert abs(cost.marginal_cost(result.signal) - v / 2.0) < 1e-10


def test_dispatcher_routes_by_alpha_and_chains():
    cost = CostModel.power(2.0)
    assert solve_equilibrium(MarketConfig(1.0, 1), cost, UNIT_NOISE).signal == pytest.approx(0.5)
    assert solve_equilibrium(MarketConfig(1.0, 1, 0.0), cost, UNIT_NOISE).signal == pytest.approx(
        GOLDEN_SHARED_ROOT, abs=1e-9
    )
    assert solve_equilibrium(MarketConfig(1.0, 2, 0.0), cost, UNIT_NOISE).signal == pytest.approx(
        GOLDEN_SEPARATE_ROOT, abs=1e-9
    )
    with pytest.raises(ParameterError):
        solve_equilibrium(MarketConfig(1.0, 3, 0.5), cost, UNIT_NOISE)


def test_market_config_validation():
    with pytest.raises(ParameterError):
        MarketConfig(0.0)
    with pytest.raises(ParameterError):
        MarketConfig(1.0, 0)
    with pytest.raises(ParameterError):
        MarketConfig(1.0, 1, 1.5)
    # math.isfinite raised OverflowError on 10**400; NumPy cannot hold 2**63 chains in int64
    with pytest.raises(ParameterError, match=r"^trade value must be positive and finite, got 1000"):
        MarketConfig(10**400)
    assert MarketConfig(10**300).v == 1e300
    assert MarketConfig(1.0, MarketConfig.MAX_CHAINS).n_chains == 2**63 - 1
    for n in (2**63, 10**30):
        with pytest.raises(ParameterError, match=rf"^chain count must be at most 2\*\*63 - 1, got {n}$"):
            MarketConfig(1.0, n)


@given(
    v=st.floats(0.01, 3.0),
    beta=st.floats(1.2, 6.0),
    n=st.integers(1, 3),
)
@settings(max_examples=150, deadline=None)
def test_signal_monotone_in_value(v, beta, n):
    cost = CostModel.power(beta)
    lower = solve_equilibrium(MarketConfig(v, n), cost, UNIT_NOISE)
    higher = solve_equilibrium(MarketConfig(v * 1.1, n), cost, UNIT_NOISE)
    if lower.regime is Regime.INTERIOR and higher.regime is Regime.INTERIOR:
        assert higher.signal >= lower.signal - 1e-12


def test_signal_at_the_boost_bound_is_a_solver_error_unless_capped():
    # at v = 1e33 the signal g - sqrt(c*g/m) rounds up to g = 1
    noise, market = NoiseModel("normal", 1.0), MarketConfig(1e33)
    with pytest.raises(SolverError, match="rounds to the boost bound g=1.0 at v=1e\\+33"):
        solve_equilibrium(market, CostModel.timeboost(0.25, 1.0), noise)
    # a cap below g binds before the bound is reached, so the result stands
    capped = solve_equilibrium(market, CostModel.timeboost(0.25, 1.0, cap=0.5), noise)
    assert (capped.signal, capped.regime) == (0.5, Regime.CAP_BINDING)
    # the refund residual is evaluated at the rounded signal, cap or not
    with pytest.raises(SolverError, match="boost bound"):
        solve_equilibrium(MarketConfig(1e33, 1, 0.5), CostModel.timeboost(0.25, 1.0, cap=0.5), noise)


def _exact_profit(cost, f0, v, n, alpha):
    """The profit ``v*2**-n - n*(1+alpha)/2*C(s)`` at the exact stationarity root in 60-digit
    mpmath, the market's floats taken as exact; None at a boost-fee corner, where nobody invests."""
    with mpmath.workdps(60):
        f0, v, alpha = mpmath.mpf(f0), mpmath.mpf(v), mpmath.mpf(alpha)
        stake, half, weight = f0 * v / 2 ** (n - 1), (1 + alpha) / 2, (1 - alpha) * f0
        if cost.family == "power":
            beta = mpmath.mpf(cost.beta)
            c_of, slope = (lambda s: s**beta), (lambda s: beta * s ** (beta - 1))
            upper = (stake / (half * beta)) ** (1 / (beta - 1))
        else:
            c, g = mpmath.mpf(cost.c), mpmath.mpf(cost.g)
            c_of, slope = (lambda s: c * s / (g - s)), (lambda s: c * g / (g - s) ** 2)
            if stake / half <= c / g:
                return None
            upper = g - mpmath.sqrt(c * g * half / stake)
        lo, root = mpmath.mpf(0), upper
        if alpha != 1:  # the residual falls from positive at 0 to -weight*C(upper) at upper
            while root - lo > root * mpmath.mpf(10) ** -45:
                mid = (lo + root) / 2
                lo, root = (mid, root) if stake - half * slope(mid) - weight * c_of(mid) > 0 else (lo, mid)
        # the profit's change over a few floats of the signal: no float root resolves it better
        resolution = 4 * n * half * slope(root) * math.ulp(float(root))
        return v / 2**n - n * half * c_of(root), 1e-15 * v / 2**n + resolution, min(root, c_of(root))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(
    log_v=st.floats(-300.0, 300.0),
    cost=st.one_of(st.builds(CostModel.power, st.floats(1.05, 6.0)),
                   st.builds(CostModel.timeboost, st.floats(1e-3, 10.0), st.floats(0.1, 10.0))),
    sigma=st.floats(0.1, 10.0),
    alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    n=st.sampled_from([1, 2]),
)
def test_profit_matches_mpmath_at_the_exact_root(log_v, cost, sigma, alpha, n):
    # within 1e-13 of the exact profit, or, where it is that close to 0, within a band of
    # 1e-15*v*2**-n plus its change over 4 floats of the signal; outside that band the regime
    # is interior exactly when the exact profit is >= 0. Markets whose exact signal or its
    # cost lie outside the normal floats are skipped
    v, noise = 10.0**log_v, NoiseModel("normal", sigma)
    try:
        result = solve_equilibrium(MarketConfig(v, n, alpha), cost, noise)
    except (ParameterError, SolverError):  # the stake, the signal or its cost beyond float range
        return
    exact = _exact_profit(cost, noise.density_at_zero(), v, n, alpha)
    if exact is None:
        assert result.regime is Regime.ZERO_INVESTMENT
        return
    profit, band, smallest = exact
    if smallest < sys.float_info.min:  # a subnormal signal or cost carries too few digits
        return
    if result.regime is Regime.INTERIOR:
        error = abs(result.expected_profit - profit)
        assert error <= 1e-13 * abs(profit) or error <= band, (result, profit)
    if abs(profit) > band:
        assert (result.regime is Regime.INTERIOR) == (profit >= 0), (result, profit)


def test_refund_root_below_the_smallest_float_step():
    # its bracket [0, upper] is [0, 5e-324], whose halving ends on 0.5*5e-324 = 0: the root
    # search takes no step, and it ended in an AttributeError
    result = solve_equilibrium(MarketConfig(2.968246743463219e-162, 1, 0.0), CostModel.power(1.5),
                               NoiseModel("normal", 1.0))
    assert result.signal == 0.0 and result.regime is Regime.ZERO_INVESTMENT


@pytest.mark.parametrize("v", [1e37, 1e51])
def test_profit_past_the_cancellation_of_its_direct_form(v):
    # v*2**-n and n*(1+alpha)/2*C(s) cancel to nothing here; the profit is C'(s)/(4*f0)
    result = solve_equilibrium(MarketConfig(v, 1, 0.0), CostModel.power(2.0), NoiseModel("normal", 1.0))
    assert result.regime is Regime.INTERIOR
    assert result.expected_profit == pytest.approx(result.signal / (2.0 * NoiseModel("normal", 1.0).density_at_zero()),
                                                   rel=1e-15)
