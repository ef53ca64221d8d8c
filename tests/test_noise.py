import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logit, ndtri

from conftest import uniforms

from seqlab.errors import ConfigError, ParameterError
from seqlab.noise import FAMILIES, NoiseModel, parse_noise


def _draws(model, seed, count, start=0):
    """Difference-law draws at stream indices ``[start, start + count)``."""
    return model.quantile(uniforms(seed, start, count))


# one representative parameter per family, used by the invariant tests
MODELS = [
    NoiseModel("normal", 1.0),
    NoiseModel("normal", 0.3),
    NoiseModel("logistic", 0.7),
    NoiseModel("laplace", 1.3),
    NoiseModel("uniform", 2.0),
]

# frozen from a 50-digit evaluation of 1/sqrt(2*pi)
INV_SQRT_2PI = 0.3989422804014327

# frozen from a 50-digit erf evaluation of the standard normal CDF at 1
PHI_AT_1 = 0.8413447460685429


@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_normal_and_logistic_evaluate_scipy_special_bit_for_bit(b):
    normal, logistic = NoiseModel("normal", b), NoiseModel("logistic", b)
    u = np.concatenate([uniforms(7, 0, 4096), [0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]])
    with np.errstate(all="ignore"):  # the edges reach the infinite tails
        cases = [
            (normal.quantile, u, b * ndtri(u)),
            (normal.trader_noise, u, ndtri(u) * (b / math.sqrt(2.0))),
            (logistic.quantile, u, b * logit(u)),
        ]
        for method, arg, expected in cases:
            assert np.array_equal(method(arg), expected), method
            assert all(method(a) == e for a, e in zip(arg[::97].tolist(), expected[::97].tolist())), method


def _ulps(got, exact):
    """Each float's distance from its 50-digit value, in units of the float spacing there, and that value."""
    nearest = np.array([float(e) for e in exact])
    error = np.array([float(abs(g - e)) for g, e in zip(got.tolist(), exact)])
    return error / np.spacing(nearest), error, nearest


@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_normal_and_logistic_cdf_and_pdf_against_a_50_digit_oracle(b):
    # The oracle takes the float x / b each method forms, so the bounds measure the law's own
    # evaluation. On these points scipy.special's ndtr is off by up to 2, 108 ulps and a
    # relative 2.1e-13 in the three normal bands, and returns 0 below -37.5 where the CDF is
    # a subnormal; expit is off by up to 1.8 ulps, and expit's p*(1-p)/b density by up to 3.3
    # below z = -1 and by all its digits above z = 1, where p rounds towards 1.
    normal, logistic = NoiseModel("normal", b), NoiseModel("logistic", b)
    x = np.concatenate([np.linspace(-50.0, 50.0, 4001) * b, [-1e300, -1e-300, 0.0, 1e-300, 1e300]])
    z = x / b
    with mpmath.workdps(50):
        clipped = [mpmath.mpf(min(max(t, -1000.0), 1000.0)) for t in z.tolist()]  # beyond, every value is a limit
        phi = [mpmath.ncdf(t) for t in clipped]
        tail = [1 / (1 + mpmath.exp(abs(t))) for t in clipped]  # the logistic CDF at -|z|
        sigmoid = [s if t < 0 else 1 - s for s, t in zip(tail, clipped)]
        density = [s * (1 - s) / b for s in tail]
        (normal_ulps, normal_error, exact), (cdf_ulps, _, _), (pdf_ulps, _, _) = (
            _ulps(got, want) for got, want in
            [(normal.cdf(x), phi), (logistic.cdf(x), sigmoid), (logistic.pdf(x), density)])
    assert normal_ulps[z >= -1.0].max() <= 2.0
    assert normal_ulps[(-10.0 <= z) & (z < -1.0)].max() <= 102.0
    # relative from -10 down, where the tail below -37.5 is subnormal: one step of rounding more
    far = z < -10.0
    assert (normal_error[far] <= 1.9e-13 * exact[far] + 2.0**-1074).all()
    assert cdf_ulps.max() <= 2.0
    assert pdf_ulps[np.abs(z) <= 1.0].max() <= 2.0 and pdf_ulps.max() <= 4.0
    assert normal.cdf(-1e300) == logistic.cdf(-1e300) == 0.0 and normal.cdf(1e300) == logistic.cdf(1e300) == 1.0
    for method in (normal.cdf, logistic.cdf, logistic.pdf):  # a scalar takes the arrays' path
        assert all(method(a) == e for a, e in zip(x[::97].tolist(), method(x)[::97].tolist())), method


def test_density_at_zero_examples():
    assert NoiseModel("normal", 1.0).density_at_zero() == pytest.approx(INV_SQRT_2PI, abs=1e-12)
    assert NoiseModel("normal", INV_SQRT_2PI).density_at_zero() == pytest.approx(1.0, abs=1e-12)
    assert NoiseModel("uniform", 2.0).density_at_zero() == 0.25


def test_cdf_examples():
    for model in MODELS:
        assert model.cdf(0.0) == 0.5
    assert NoiseModel("normal", 1.0).cdf(1.0) == pytest.approx(PHI_AT_1, abs=1e-12)
    assert NoiseModel("uniform", 2.0).cdf(1.0) == 0.75


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.spec)
def test_pdf_integrates_to_one(model):
    limit = model.param if model.family == "uniform" else 60.0 * model.param
    total, _ = quad(model.pdf, -limit, limit, epsabs=1e-12, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.spec)
def test_quantile_cdf_round_trips(model):
    probs = np.arange(0.01, 1.0, 0.01)
    assert np.max(np.abs(model.cdf(model.quantile(probs)) - probs)) < 1e-10
    if model.family == "uniform":
        xs = np.linspace(-0.999 * model.param, 0.999 * model.param, 81)
    else:
        xs = np.linspace(-4.0 * model.param, 4.0 * model.param, 81)
    assert np.max(np.abs(model.quantile(model.cdf(xs)) - xs)) < 1e-10


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.spec)
def test_density_symmetric_and_unimodal(model):
    xs = np.linspace(0.0, 3.0 * model.param, 200)
    pdf_right = model.pdf(xs)
    assert np.allclose(pdf_right, model.pdf(-xs), atol=1e-14)
    assert np.all(np.diff(pdf_right) <= 1e-14)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.spec)
def test_density_at_zero_matches_cdf_slope(model):
    h = 1e-6 * model.param
    slope = (model.cdf(h) - model.cdf(-h)) / (2.0 * h)
    assert slope == pytest.approx(model.density_at_zero(), abs=1e-6)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.spec)
def test_sampling_matches_cdf(model):
    draws = np.sort(_draws(model, 11, 10**5))
    n = len(draws)
    analytic = model.cdf(draws)
    ks = max(
        np.max(np.abs(np.arange(1, n + 1) / n - analytic)),
        np.max(np.abs(np.arange(0, n) / n - analytic)),
    )
    assert ks < 0.01


def test_sampling_mean_and_median():
    draws = _draws(NoiseModel("normal", 1.0), 5, 10**6)
    assert -0.004 <= draws.mean() <= 0.004
    assert 0.4985 <= np.mean(draws < 0) <= 0.5015


def test_sampling_is_deterministic():
    model = NoiseModel("logistic", 0.7)
    a = _draws(model, 123, 1000)
    b = _draws(model, 123, 1000)
    assert np.array_equal(a, b)
    # counter addressing: any sub-range is reproducible in isolation
    tail = _draws(model, 123, 400, start=600)
    assert np.array_equal(tail, a[600:])


@pytest.mark.parametrize("model", [m for m in MODELS if m.family != "uniform"], ids=lambda m: m.spec)
def test_trader_noise_difference_has_configured_law(model):
    u = uniforms(99, 0, 2 * 10**5).reshape(-1, 2)
    diffs = np.sort(model.trader_noise(u[:, 0]) - model.trader_noise(u[:, 1]))
    n = len(diffs)
    analytic = model.cdf(diffs)
    ks = max(
        np.max(np.abs(np.arange(1, n + 1) / n - analytic)),
        np.max(np.abs(np.arange(0, n) / n - analytic)),
    )
    assert ks < 0.01


def test_uniform_has_no_trader_law():
    model = NoiseModel("uniform", 2.0)
    mine, theirs = model.race_noise(np.array([[0.25, 0.75], [0.5, 0.5]]))
    assert mine.tolist() == [-1.0, 1.0] and theirs.tolist() == [0.0, 0.0]
    with pytest.raises(ParameterError):
        model.trader_noise(np.array([0.5]))


@pytest.mark.parametrize("family", FAMILIES)
def test_race_noise_gives_both_traders_terms(family):
    model = NoiseModel(family, 0.7)
    u = uniforms(17, 0, 2 * 3 * 500).reshape(2, 3, 500)
    mine, theirs = model.race_noise(u)
    assert mine.shape == theirs.shape == (3, 500)
    if family != "uniform":
        # bit for bit the transform of each row on its own
        assert np.array_equal(mine, model.trader_noise(u[0])) and np.array_equal(theirs, model.trader_noise(u[1]))
        return
    # the whole difference goes to trader 1; trader 2's zero allocates nothing and u[1] is never read
    assert np.array_equal(mine, model.quantile(u[0]))
    assert not theirs.any() and not np.signbit(theirs).any() and theirs.strides == (0, 0)
    u[1] = np.nan
    again, zero = model.race_noise(u)
    assert np.array_equal(again, mine) and not zero.any() and not np.signbit(zero).any()


@given(
    family=st.sampled_from(FAMILIES),
    param=st.floats(0.05, 20.0),
    x=st.floats(-50.0, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_cdf_symmetry_property(family, param, x):
    model = NoiseModel(family, param)
    assert model.cdf(x) + model.cdf(-x) == pytest.approx(1.0, abs=1e-12)
    assert model.pdf(x) >= 0.0


@pytest.mark.parametrize("bad_param", [0.0, -1.0, math.inf, math.nan])
def test_invalid_parameters_rejected(bad_param):
    with pytest.raises(ParameterError):
        NoiseModel("normal", bad_param)


def test_unknown_family_rejected():
    with pytest.raises(ParameterError):
        NoiseModel("cauchy", 1.0)


def test_parse_noise():
    model = parse_noise("normal:1.0")
    assert model == NoiseModel("normal", 1.0)
    assert parse_noise("uniform:2.0") == NoiseModel("uniform", 2.0)
    assert parse_noise(model.spec) == model
    for bad in ("normal", "normal:", "normal:abc", "weird:1.0"):
        with pytest.raises((ConfigError, ParameterError)):
            parse_noise(bad)
