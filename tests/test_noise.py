import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, logit, ndtr, ndtri

from seqlab.errors import ConfigError, ParameterError
from seqlab.noise import FAMILIES, NoiseModel, parse_noise
from seqlab.rng import uniform_stream


def _draws(model, seed, count, start=0):
    """Difference-law draws at stream indices ``[start, start + count)``."""
    return model.quantile(uniform_stream(seed, start, count))


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
    x = np.concatenate([np.linspace(-50.0, 50.0, 4001) * b, [-1e300, -1e-300, 0.0, 1e-300, 1e300]])
    u = np.concatenate([uniform_stream(7, 0, 4096), [0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]])
    with np.errstate(all="ignore"):  # the edges reach the infinite tails
        p = expit(x / b)
        cases = [
            (normal.cdf, x, ndtr(x / b)),
            (normal.quantile, u, b * ndtri(u)),
            (normal.trader_noise, u, ndtri(u) * (b / math.sqrt(2.0))),
            (logistic.pdf, x, p * (1.0 - p) / b),
            (logistic.cdf, x, p),
            (logistic.quantile, u, b * logit(u)),
        ]
        for method, arg, expected in cases:
            assert np.array_equal(method(arg), expected), method
            assert all(method(a) == e for a, e in zip(arg[::97].tolist(), expected[::97].tolist())), method


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
    u = uniform_stream(99, 0, 2 * 10**5).reshape(-1, 2)
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
    u = uniform_stream(17, 0, 2 * 3 * 500).reshape(2, 3, 500)
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
