import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.cost import MIN_BETA, CostModel, parse_cost
from seqlab.errors import ConfigError, DomainError, ParameterError, SolverError

MODELS = [
    CostModel.power(2.0),
    CostModel.power(1.5),
    CostModel.power(5.0),
    CostModel.timeboost(0.25, 1.0),
    CostModel.timeboost(2.0, 3.0),
]


def _interior_grid(model):
    hi = 1.0 if model.family == "power" else model.g * 0.95
    return np.geomspace(1e-4 * hi, hi, 40)


def test_cost_examples():
    assert CostModel.power(2.0).cost(0.5) == 0.25
    assert CostModel.timeboost(0.25, 1.0).cost(0.5) == 0.25
    assert CostModel.power(3.0).cost(0.0) == 0.0


def test_marginal_cost_examples():
    assert CostModel.timeboost(0.25, 1.0).marginal_cost(0.5) == pytest.approx(1.0, abs=1e-12)
    assert CostModel.power(2.0).marginal_cost(0.5) == pytest.approx(1.0, abs=1e-12)
    assert CostModel.power(2.0).marginal_cost(0.0) == 0.0


def test_inverse_marginal_cost_examples():
    assert CostModel.power(2.0).inverse_marginal_cost(1.0) == (0.5, False)
    signal, corner = CostModel.timeboost(0.25, 1.0).inverse_marginal_cost(1.0)
    assert signal == pytest.approx(0.5, abs=1e-12) and not corner
    assert CostModel.timeboost(0.25, 1.0).marginal_cost(signal) == pytest.approx(1.0, rel=1e-12)
    assert CostModel.timeboost(2.0, 1.0).inverse_marginal_cost(1.0) == (0.0, True)


@pytest.mark.parametrize("model", MODELS + [CostModel.power(1.05)], ids=lambda m: m.spec)
def test_inverse_marginal_cost_of_an_array_equals_float_calls(model):
    marginals = np.geomspace(1e-6, 1e6, 61)
    signals, corners = model.inverse_marginal_cost(marginals)
    alone = [model.inverse_marginal_cost(m) for m in marginals.tolist()]
    assert [s.hex() for s in signals.tolist()] == [s.hex() for s, _ in alone]
    assert corners.tolist() == [corner for _, corner in alone]
    # the unchecked formulas behind the lockstep residual are the checked ones
    inside = signals[signals < model.admissible_max()]
    assert model._cost(inside).tolist() == model.cost(inside).tolist()
    assert model._marginal(inside).tolist() == model.marginal_cost(inside).tolist()


def test_inverse_marginal_cost_beyond_float_range():
    with pytest.raises(SolverError, match="beyond float range"):
        CostModel.power(1.05).inverse_marginal_cost(np.array([1.0, 1e16]))
    with pytest.raises(ParameterError, match="got inf"):
        CostModel.power(2.0).inverse_marginal_cost(np.array([1.0, math.inf]))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.spec)
def test_marginal_matches_finite_difference(model):
    for s in _interior_grid(model):
        h = 1e-6 * s
        slope = (model.cost(s + h) - model.cost(s - h)) / (2.0 * h)
        assert slope == pytest.approx(model.marginal_cost(s), rel=1e-6)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.spec)
def test_inverse_marginal_round_trip(model):
    for s in _interior_grid(model):
        recovered, corner = model.inverse_marginal_cost(model.marginal_cost(s))
        assert not corner
        assert recovered == pytest.approx(s, rel=1e-10, abs=1e-10)


@given(
    s1=st.floats(0.0, 0.9),
    s2=st.floats(0.0, 0.9),
    lam=st.floats(0.0, 1.0),
    model=st.sampled_from(MODELS),
)
@settings(max_examples=300, deadline=None)
def test_cost_is_convex(s1, s2, lam, model):
    mix = lam * s1 + (1.0 - lam) * s2
    assert model.cost(mix) <= lam * model.cost(s1) + (1.0 - lam) * model.cost(s2) + 1e-12


def test_timeboost_domain_is_hard():
    model = CostModel.timeboost(0.25, 1.0)
    with pytest.raises(DomainError):
        model.cost(1.0)
    with pytest.raises(DomainError):
        model.marginal_cost(1.5)
    with pytest.raises(DomainError):
        model.cost(-0.1)


def test_cap_domain_is_hard():
    model = CostModel.power(2.0, cap=0.4)
    assert model.cost(0.4) == pytest.approx(0.16)
    with pytest.raises(DomainError):
        model.cost(0.41)
    assert CostModel.power(2.0).cost(0.41) == pytest.approx(0.41**2)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        CostModel.power(1.0)  # below the strict-convexity floor
    with pytest.raises(ParameterError):
        CostModel.power(MIN_BETA - 1e-9)
    with pytest.raises(ParameterError):
        CostModel.timeboost(0.0, 1.0)
    with pytest.raises(ParameterError):
        CostModel.timeboost(1.0, -1.0)
    with pytest.raises(ParameterError):
        CostModel.timeboost(1.0, 1.0, cap=1.0)  # cap must stay below g
    with pytest.raises(ParameterError):
        CostModel.power(2.0, cap=-0.5)
    with pytest.raises(ParameterError):
        CostModel.power(2.0).inverse_marginal_cost(0.0)
    # an int past float range, once an OverflowError from math.isfinite
    for kwargs in ({"beta": 2.0, "cap": 10**400}, {"beta": 10**400}):
        with pytest.raises(ParameterError, match="got 1000"):
            CostModel("power", **kwargs)
    for kwargs in ({"c": 10**400, "g": 1.0}, {"c": 0.25, "g": 10**400}):
        with pytest.raises(ParameterError, match="got 1000"):
            CostModel("timeboost", **kwargs)


def test_admissible_max():
    assert CostModel.power(2.0).admissible_max() == math.inf
    assert CostModel.power(2.0, cap=0.4).admissible_max() == 0.4
    assert CostModel.timeboost(0.25, 1.0).admissible_max() == pytest.approx(1.0, rel=1e-8)
    assert CostModel.timeboost(0.25, 1.0, cap=0.3).admissible_max() == 0.3


def test_parse_cost():
    assert parse_cost("power:2.0") == CostModel.power(2.0)
    assert parse_cost("power:2.0,cap=0.4") == CostModel.power(2.0, cap=0.4)
    assert parse_cost("timeboost:c=0.25,g=1.0") == CostModel.timeboost(0.25, 1.0)
    assert parse_cost("timeboost:c=0.25,g=1.0,cap=0.4") == CostModel.timeboost(0.25, 1.0, cap=0.4)
    model = CostModel.timeboost(0.5, 2.0, cap=1.0)
    assert parse_cost(model.spec) == model
    for bad in ("power", "power:", "power:abc", "timeboost:c=1", "timeboost:1,2", "exp:1"):
        with pytest.raises(ConfigError):
            parse_cost(bad)
