import math
import warnings
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import uniforms

from seqlab.errors import ConfigError, ParameterError
from seqlab.noise import FAMILIES, NoiseModel, _logit, _ndtri, parse_noise


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


def _ulps(got, exact):
    """Each float's distance from its 50-digit value, in units of the float spacing there, and that value."""
    nearest = np.array([float(e) for e in exact])
    error = np.array([float(abs(g - e)) for g, e in zip(got.tolist(), exact)])
    return error / np.spacing(np.abs(nearest)), error, nearest


def _normal_quantile_oracle(p):
    """The 50-digit standard normal quantile of each float of ``p``: the root of ``ncdf(x) = t``
    for ``t = p``, or for ``t = 1 - p``, exact above 1/2, negated; started from the standard
    library's AS241."""
    with mpmath.workdps(50):
        out = []
        for x in p.tolist():
            t = mpmath.mpf(x) if x <= 0.5 else 1 - mpmath.mpf(x)
            root = mpmath.findroot(lambda z: mpmath.ncdf(z) - t, NormalDist().inv_cdf(float(t)))
            out.append(root if x <= 0.5 else -root)
        return out


def test_normal_quantile_against_a_50_digit_oracle():
    # AS241's error per band, in ulps of the exact quantile: 3.83 central (|p - 1/2| <= 0.425), 3.42 in
    # the lower tail down to exp(-25), 2.97 in the upper tail, and 4.24 below exp(-25) to the subnormals
    # (0.18 at 1e-300). scipy.special.ndtri, once the sampler's, is off by up to 2.87, 2.33, 2.27 and 1.44.
    u = uniforms(7, 0, 2048)
    bands = [
        (np.concatenate([u[np.abs(u - 0.5) <= 0.425], np.linspace(0.075, 0.925, 201)]), 3.83),
        (np.concatenate([u[u < 0.075], np.geomspace(math.exp(-25.0), 0.075, 201)]), 3.42),
        (np.concatenate([u[u > 0.925], 1.0 - np.geomspace(2.0**-53, 0.075, 201)]), 2.97),
        (np.concatenate([np.geomspace(1e-307, math.exp(-25.0), 201), [1e-300, 2.0**-54, 1e-310, 5e-324]]), 4.24),
    ]
    for p, bound in bands:
        ulps, _, _ = _ulps(_ndtri(p), _normal_quantile_oracle(p))
        assert ulps.max() <= bound, (p[ulps.argmax()], ulps.max())
        # the central rational takes only + - * /, so its bits are the standard library's everywhere
        central = np.abs(p - 0.5) <= 0.425
        assert _ndtri(p[central]).tolist() == [NormalDist().inv_cdf(x) for x in p[central].tolist()]


def test_logistic_quantile_against_a_50_digit_oracle():
    # log(p/(1 - p)) is off by up to 1.21 ulps below 1/4 and 0.5 ulps (correctly rounded) above;
    # scipy.special.logit by 1.21, 1.74 between 1/4 and 3/4 and 0.94 above
    u = uniforms(7, 0, 2048)
    p = np.concatenate([u, np.geomspace(1e-300, 0.25, 201), 1.0 - np.geomspace(2.0**-53, 0.25, 201)])
    with mpmath.workdps(50):
        exact = [mpmath.log(mpmath.mpf(x) / (1 - mpmath.mpf(x))) for x in p.tolist()]
    ulps, _, _ = _ulps(NoiseModel("logistic", 1.0).quantile(p), exact)
    assert ulps[p < 0.25].max() <= 1.22 and ulps[p >= 0.25].max() <= 0.5


@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_normal_and_logistic_quantiles_scale_one_standard_law(b):
    normal, logistic = NoiseModel("normal", b), NoiseModel("logistic", b)
    u = np.concatenate([uniforms(7, 0, 4096), [0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]])
    cases = [
        (normal.quantile, b * _ndtri(u)),
        (normal.trader_noise, _ndtri(u) * (b / math.sqrt(2.0))),
        (logistic.quantile, b * _logit(u)),
    ]
    for method, expected in cases:
        assert np.array_equal(method(u), expected), method
        # a scalar takes the arrays' path
        assert all(method(a) == e for a, e in zip(u[::97].tolist(), expected[::97].tolist())), method


def test_quantile_ends_and_values_outside_the_unit_interval():
    p = np.array([0.0, 1.0, math.nan, -0.5, 1.5, -1e-300, -math.inf, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the infinite ends and the NaNs come with no warning
        for law in (NoiseModel("normal", 2.0), NoiseModel("logistic", 2.0)):
            got = law.quantile(p)
            assert got[:2].tolist() == [-math.inf, math.inf] and np.isnan(got[2:]).all(), law
            assert [law.quantile(x) for x in (0.0, 1.0)] == [-math.inf, math.inf]
            assert all(math.isnan(law.quantile(x)) for x in p[2:].tolist())
        assert _ndtri(np.array([])).shape == (0,) and _ndtri(p.reshape(2, 4)).shape == (2, 4)


@pytest.mark.parametrize("join", [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)],
                         ids=["central-lower", "central-upper", "near-far-lower", "near-far-upper"])
def test_normal_quantile_rises_across_its_branch_joins(join):
    # Over 2**13 consecutive floats about each join the quantile never falls more than an ulp below
    # what it reached before, and it rises over every 512 floats. The rationals round to a few ulps
    # while a float step moves the quantile by less than one, so the last bit wobbles, as it does
    # inside each branch; _bin_bounds widens each bin's
    # ends far beyond that.
    p = join + np.arange(-(1 << 12), 1 << 12) * np.spacing(join)
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    assert len(set(np.where(np.abs(p - 0.5) <= 0.425, 0, np.where(r <= 5.0, 1, 2)).tolist())) == 2  # one join
    x = _ndtri(p)
    assert (np.maximum.accumulate(x) - x <= np.spacing(np.abs(x))).all()
    assert (np.diff(x[::512]) > 0.0).all()


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
