"""Laws of the per-chain timing-noise difference between the two traders.

On each chain the race compares boosted arrival scores ``s_1 + e_1`` and
``s_2 + e_2``, so every analytic quantity depends on the noise only through
the difference of the two per-trader terms. This module parameterizes that
difference directly: four symmetric uni-modal families with density, CDF,
and quantile. Symmetry pins the fair-race baseline: the CDF at zero is
exactly one half for every family, so equal signals win with probability
1/2 per chain.

The Monte Carlo engine draws per-trader terms instead, because the
separate-sequencer game needs an independent race on every chain.
``trader_noise`` maps uniforms to a per-trader law whose difference
reproduces the configured difference law exactly:

* ``normal``   per-trader Normal with scale sigma/sqrt(2)
* ``logistic`` per-trader Gumbel(scale); the difference of two independent
  Gumbels is logistic
* ``laplace``  per-trader Exponential(scale); the difference of two
  independent exponentials is Laplace
* ``uniform``  no per-trader law yields a uniform difference, so trader 1
  draws the whole difference and trader 2's term is 0 (see ``race_noise``,
  which gives both terms under every law), which is distributionally
  equivalent in a two-trader race

Sampling goes through ``race_noise``, which applies ``trader_noise`` (the
uniform law: ``quantile``) to the uniforms :func:`seqlab.rng.to_uniform`
makes of counter-based words, so draw ``i`` is a pure function of
``(seed, i)``. Each transform is monotone in its uniform
(the laplace ``trader_noise`` falls, the others rise), and the uniform does
not fall as the word rises. The Monte Carlo engine relies on that: the
noise of all words that share a top byte lies between the transform of the
first and the last of them, and only the races those bounds leave open are
transformed.

Every law needs only ``math`` and NumPy: the normal CDF is ``erfc`` of
each value, the logistic laws are formed from ``exp(-|z|)``, so neither
tail cancels, and the normal quantile is Wichura's AS241 rational (see
``_ndtri``), so no command loads SciPy. NumPy is imported on first use,
through ``seqlab._np``, so parsing a noise spec does not load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ._np import np
from .errors import ConfigError, ParameterError

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

FAMILIES = ("normal", "logistic", "laplace", "uniform")

# Wichura's AS241 (PPND16), with the coefficients of CPython's statistics.NormalDist.inv_cdf:
# numerator and denominator, highest power first, of the rational in r = 0.180625 - q*q where
# |q| = |p - 0.5| <= 0.425, and beyond, with r = sqrt(-log(min(p, 1 - p))), of those in r - 1.6
# where r <= 5 and in r - 5 past it
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3, 1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2, 4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e+0,
     3.64784832476320460504e+0, 5.76949722146069140550e+0, 4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
     6.89767334985100004550e-1, 1.67638483018380384940e+0, 2.05319162663775882187e+0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3, 2.65321895265761230930e-2,
     2.96560571828504891230e-1, 1.78482653991729133580e+0, 5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5, 7.86869131145613259100e-4,
     1.48753612908506148525e-2, 1.36929880922735805310e-1, 5.99832206555887937690e-1, 1.0),
)
# values per slice of _ndtri: a slice and its three work arrays stay in the L2 cache, and each array,
# at 112,000 bytes, lies under glibc's 128 KiB mmap threshold, so it reuses freed heap pages rather
# than faulting in fresh ones on every call
_BLOCK = 14_000


def _scalar_or_array(x, out: np.ndarray):
    return float(out) if np.ndim(x) == 0 else out


def _ndtri(p) -> np.ndarray:
    """The standard normal quantile of each of ``p``, by AS241: 0 and 1 give
    -inf and inf, and NaN and values outside [0, 1] give NaN.

    The central rational is evaluated on every value, in place and a slice
    at a time; the tail's only on the slice's values past it, about 15% of
    uniform draws. Each branch does the arithmetic of CPython's ``statistics``
    in its order.
    """
    central, near, far = _as241()
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    out = np.empty(flat.size)
    width = min(flat.size, _BLOCK)
    work, beyond = [np.empty(width) for _ in range(3)], np.empty(width, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the tails reach log(0) and log(< 0)
        for lo in range(0, flat.size, _BLOCK):
            part = flat[lo:lo + _BLOCK]
            q = np.subtract(part, 0.5, out[lo:lo + _BLOCK])
            r, top, bottom = (array[:q.size] for array in work)
            np.multiply(q, q, r)
            np.subtract(0.180625, r, r)
            # r < 0 exactly where |q| > 0.425: q*q rounds to either side of 0.180625 there
            tail = np.less(r, 0.0, beyond[:q.size]).nonzero()[0]
            _horner(central, r, top, bottom)
            np.multiply(top, q, top)
            np.divide(top, bottom, q)
            if tail.size:
                q[tail] = _ndtri_tail(part[tail], near, far)
    return out.reshape(p.shape)


def _ndtri_tail(p: np.ndarray, near, far) -> np.ndarray:
    """AS241's quantile of each of ``p``, every one with ``|p - 0.5| > 0.425``."""
    r = np.minimum(p, 1.0 - p)
    np.log(r, r)
    np.negative(r, r)
    np.sqrt(r, r)
    top, bottom = _horner(near, r - 1.6, np.empty(r.size), np.empty(r.size))
    x = np.divide(top, bottom, top)
    beyond = (r > 5.0).nonzero()[0]  # p within exp(-25) of 0 or 1
    if beyond.size:
        s = r[beyond] - 5.0
        top, bottom = _horner(far, s, np.empty(s.size), np.empty(s.size))
        x[beyond] = np.where(s < np.inf, top / bottom, np.inf)  # p = 0 or 1 makes s infinite
    np.subtract(p, 0.5, r)
    return np.copysign(x, r, x)


def _horner(coefficients, r: np.ndarray, top: np.ndarray, bottom: np.ndarray):
    """One AS241 rational's numerator and denominator at ``r``, by Horner's
    rule, in place in ``top`` and ``bottom``."""
    add, multiply = np.add, np.multiply
    upper, lower = coefficients
    multiply(r, upper[0], top)
    multiply(r, lower[0], bottom)
    for a, b in zip(upper[1:-1], lower[1:-1]):
        add(top, a, top)
        multiply(top, r, top)
        add(bottom, b, bottom)
        multiply(bottom, r, bottom)
    add(top, upper[-1], top)
    add(bottom, lower[-1], bottom)
    return top, bottom


@functools.cache
def _as241():
    """The central, near and far coefficients as 0-d arrays: a ufunc takes
    one with less overhead than a Python float, a tenth of a 1,000-value call."""
    return tuple(tuple(tuple(np.array(c) for c in row) for row in law)
                 for law in (_AS241_CENTRAL, _AS241_NEAR, _AS241_FAR))


def _logit(p: np.ndarray) -> np.ndarray:
    """``log(p / (1 - p))`` of each of ``p``, NaN outside [0, 1]: from 1/4 up
    as ``2*artanh(2p - 1)``, where ``2p - 1`` is exact, and below as the log
    of the ratio, which is at least ``log 3`` in size there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p < 0.25, np.log(p / (1.0 - p)), 2.0 * np.arctanh(2.0 * p - 1.0))


@dataclass(frozen=True)
class NoiseModel:
    """Symmetric uni-modal law of the score-noise difference on one chain.

    ``param`` is the single positive shape parameter of the family: the
    standard deviation for ``normal``, the scale for ``logistic`` and
    ``laplace``, and the half-width of the support for ``uniform``.
    """

    family: str
    param: float

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown noise family {self.family!r}; expected one of {FAMILIES}")
        if not (isinstance(self.param, (int, float)) and math.isfinite(self.param) and self.param > 0):
            raise ParameterError(f"{self.family} noise needs a positive finite parameter, got {self.param!r}")
        object.__setattr__(self, "param", float(self.param))

    @property
    def spec(self) -> str:
        """Config-string form, e.g. ``normal:1.0``."""
        return f"{self.family}:{self.param:.12g}"

    def density_at_zero(self) -> float:
        b = self.param
        if self.family == "normal":
            return 1.0 / (_SQRT_2PI * b)
        if self.family == "logistic":
            return 0.25 / b
        # laplace and uniform share the same peak height for a given scale
        return 0.5 / b

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        b = self.param
        if self.family == "normal":
            out = np.exp(-0.5 * (x / b) ** 2) / (_SQRT_2PI * b)
        elif self.family == "logistic":
            e = np.exp(-np.abs(x / b))
            tail = e / (1.0 + e)  # F(-|x|): the density is F(x)(1 - F(x))/b, from the tail's side
            out = tail * (1.0 - tail) / b
        elif self.family == "laplace":
            out = np.exp(-np.abs(x) / b) / (2.0 * b)
        else:
            out = np.where(np.abs(x) <= b, 0.5 / b, 0.0)
        return _scalar_or_array(x, out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        b = self.param
        if self.family == "normal":
            # erfc keeps the lower tail's relative accuracy, where 1 - erf would cancel
            z = (x / b).reshape(-1) / -_SQRT_2
            out = 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, z.size).reshape(x.shape)
        elif self.family == "logistic":
            z = x / b
            e = np.exp(-np.abs(z))  # at most 1, so it never overflows
            out = np.where(z < 0.0, e, 1.0) / (1.0 + e)
        elif self.family == "laplace":
            out = np.where(
                x < 0,
                0.5 * np.exp(np.minimum(x, 0.0) / b),
                1.0 - 0.5 * np.exp(-np.maximum(x, 0.0) / b),
            )
        else:
            out = np.clip((x + b) / (2.0 * b), 0.0, 1.0)
        return _scalar_or_array(x, out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        b = self.param
        with np.errstate(divide="ignore"):
            if self.family == "normal":
                out = b * _ndtri(p)
            elif self.family == "logistic":
                out = b * _logit(p)
            elif self.family == "laplace":
                out = np.where(p < 0.5, b * np.log(2.0 * p), -b * np.log(2.0 * (1.0 - p)))
            else:  # scaled in place, as the race draws it on a whole chunk
                out = 2.0 * p - 1.0
                out *= b
        return _scalar_or_array(p, out)

    def trader_noise(self, u):
        """Per-trader noise terms from uniforms; differences have this law."""
        # each law's last steps run in place on its one new array
        if self.family == "normal":
            out = _ndtri(u)
            out *= self.param / _SQRT_2
            return out
        if self.family in ("logistic", "laplace"):
            out = np.log(u)
            if self.family == "logistic":
                np.negative(out, out=out)
                np.log(out, out=out)
            out *= -self.param
            return out
        raise ParameterError("uniform noise has no per-trader decomposition; sample the difference directly")

    def race_noise(self, u):
        """Trader 1's and trader 2's noise from the uniform rows ``u[0]`` and ``u[1]``: the
        uniform law gives trader 1 the whole difference and trader 2 a zero that allocates
        nothing, and never reads ``u[1]``; the others transform both rows in one call."""
        if self.family == "uniform":
            mine = self.quantile(u[0])
            return mine, np.broadcast_to(0.0, np.shape(mine))
        return tuple(self.trader_noise(u))


def parse_noise(text: str) -> NoiseModel:
    """Parse a noise spec of the form ``family:param``, e.g. ``normal:0.5``."""
    name, sep, arg = text.partition(":")
    name = name.strip().lower()
    if not sep or not arg.strip():
        raise ConfigError(f"noise spec {text!r} must look like 'family:param', e.g. 'normal:1.0'")
    try:
        param = float(arg)
    except ValueError:
        raise ConfigError(f"bad noise parameter {arg!r} in {text!r}") from None
    return NoiseModel(name, param)
