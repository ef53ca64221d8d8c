"""The one rule for a real parameter, and every record that applies it."""

import math
import re

import numpy as np
import pytest

from seqlab.analysis import ValueDistribution, optimal_c, sweep
from seqlab.cost import MIN_BETA, CostModel
from seqlab.errors import ConfigError, ParameterError, _real
from seqlab.noise import NoiseModel

BIG = 10**400  # an int past float range: float(BIG) raises OverflowError


@pytest.mark.parametrize(("x", "real", "integer"), [
    (1, True, True), (-2.5, True, False), (0.0, True, False), (np.float64(2.0), True, False),
    (1.7976931348623157e308, True, False), (10**308, True, True), (2**64, True, True), (BIG, False, True),
    (-BIG, False, True), (math.inf, False, False), (-math.inf, False, False), (math.nan, False, False),
    (True, False, False), (False, False, False), (np.float32(2.0), False, False), (np.int64(2), False, False),
    ("1", False, False), (None, False, False),
])
def test_real_admits_finite_ints_and_floats_and_nothing_else(x, real, integer):
    assert _real(x) == real and _real(x, int) == integer  # np.float64 compares to a NumPy bool


def _probes():
    """``(id, call, error, message)``: each refusal that once raised another error or returned a result."""
    exp, noise = ValueDistribution.exponential(1.0), NoiseModel("normal", 1.0)
    return [
        # an OverflowError from math.isfinite before
        ("noise-past-float-range", lambda: NoiseModel("normal", BIG), ParameterError,
         f"normal noise needs a positive finite parameter, got {BIG}"),
        ("exp-rate-past-float-range", lambda: ValueDistribution("exp", rate=BIG), ParameterError,
         f"exponential value law needs a positive rate, got {BIG}"),
        ("lognormal-mu-past-float-range", lambda: ValueDistribution.lognormal(BIG, 1.0), ParameterError,
         f"lognormal value law needs a finite mu, got {BIG}"),
        ("point-past-float-range", lambda: ValueDistribution("points", points=((BIG, 1.0),)), ParameterError,
         "point-mass values must be finite, values and weights non-negative"),
        ("optimal-c-g-past-float-range", lambda: optimal_c(exp, BIG, 1.0), ParameterError,
         f"g must be positive and finite, got {BIG}"),
        # a TypeError before
        ("exp-rate-string", lambda: ValueDistribution("exp", rate="1"), ParameterError,
         "exponential value law needs a positive rate, got '1'"),
        ("power-beta-string", lambda: CostModel.power("2"), ParameterError,
         f"power cost needs elasticity beta >= {MIN_BETA}, got '2'"),
        # accepted before
        ("noise-bool", lambda: NoiseModel("normal", True), ParameterError,
         "normal noise needs a positive finite parameter, got True"),
        ("exp-rate-bool", lambda: ValueDistribution("exp", rate=True), ParameterError,
         "exponential value law needs a positive rate, got True"),
        ("optimal-c-g-bool", lambda: optimal_c(exp, True, 0.25), ParameterError,
         "g must be positive and finite, got True"),
        ("timeboost-c-bool", lambda: CostModel.timeboost(True, 1.0), ParameterError,
         "timeboost cost needs positive finite c, got True"),
        ("cap-bool", lambda: CostModel.power(2.0, cap=True), ParameterError,
         "cap must be a non-negative finite real, got True"),
        ("sweep-sigma-axis-bool", lambda: sweep({"sigma": [True]}, cost=CostModel.power(2.0), noise=noise),
         ConfigError, "sweep axis 'sigma' needs a non-empty list of finite values"),
    ]


@pytest.mark.parametrize(("call", "error", "message"), [probe[1:] for probe in _probes()],
                         ids=[probe[0] for probe in _probes()])
def test_every_record_refuses_a_non_real_parameter_in_its_own_words(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
