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

Sampling applies ``quantile`` (or ``trader_noise``) to the uniforms that
:func:`seqlab.rng.to_uniform` makes of counter-based words, so draw ``i`` is
a pure function of ``(seed, i)``. Each transform is monotone in its uniform
(the laplace ``trader_noise`` falls, the others rise), and the uniform does
not fall as the word rises. The Monte Carlo engine relies on that: the
noise of all words that share a top byte lies between the transform of the
first and the last of them, and only the races those bounds leave open are
transformed.

Densities and CDFs need only ``math`` and NumPy: the normal CDF is
``erfc`` of each value, and the logistic laws are formed from
``exp(-|z|)``, so neither tail cancels. ``scipy.special`` is imported on
first use by the normal ``quantile`` and ``trader_noise`` and the logistic
``quantile``, for ``ndtri`` and ``logit``. So only sampling under normal
noise loads it (logistic sampling draws Gumbel terms with NumPy), and no
analytic command does. NumPy is imported on first use too, through
``seqlab._np``, so parsing a noise spec loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .errors import ConfigError, ParameterError

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

FAMILIES = ("normal", "logistic", "laplace", "uniform")


def _scalar_or_array(x, out: np.ndarray):
    return float(out) if np.ndim(x) == 0 else out


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
                from scipy.special import ndtri
                out = b * ndtri(p)
            elif self.family == "logistic":
                from scipy.special import logit
                out = b * logit(p)
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
            from scipy.special import ndtri
            out = ndtri(u)
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
