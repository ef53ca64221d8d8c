"""Signal cost families.

Two parametric families cover every ordering policy in the lab: a power cost
``s**beta`` with elasticity ``beta > 1`` (latency investment, or bidding with
constant cost elasticity), and the boost-fee schedule ``c*s/(g - s)`` that
prices a purchased time boost ``s`` strictly below its hard bound ``g``.
Either family can carry an optional hard cap on the admissible signal.

Domain violations raise; clamping to a cap is game-level policy and lives in
the equilibrium module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .errors import ConfigError, DomainError, ParameterError, SolverError, _real

FAMILIES = ("power", "timeboost")

# the beta -> 1 limit makes the inverse marginal cost degenerate
MIN_BETA = 1.0 + 1e-6
#: Newton steps for a stationary-signal estimate; it converges in far fewer.
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class CostModel:
    """Cost of producing a signal, one of the two supported families; each number checked by ``errors._real``."""

    family: str
    beta: float | None = None
    c: float | None = None
    g: float | None = None
    cap: float | None = None

    @classmethod
    def power(cls, beta: float, cap: float | None = None) -> "CostModel":
        return cls("power", beta=beta, cap=cap)

    @classmethod
    def timeboost(cls, c: float, g: float, cap: float | None = None) -> "CostModel":
        return cls("timeboost", c=c, g=g, cap=cap)

    def __post_init__(self) -> None:
        if self.family == "power":
            if not (_real(self.beta) and self.beta >= MIN_BETA):
                raise ParameterError(f"power cost needs elasticity beta >= {MIN_BETA}, got {self.beta!r}")
            if self.c is not None or self.g is not None:
                raise ParameterError("power cost takes only beta (and an optional cap)")
        elif self.family == "timeboost":
            for name, value in (("c", self.c), ("g", self.g)):
                if not (_real(value) and value > 0):
                    raise ParameterError(f"timeboost cost needs positive finite {name}, got {value!r}")
            if self.beta is not None:
                raise ParameterError("timeboost cost takes c and g, not beta")
        else:
            raise ParameterError(f"unknown cost family {self.family!r}; expected one of {FAMILIES}")
        if self.cap is not None:
            if not (_real(self.cap) and self.cap >= 0):
                raise ParameterError(f"cap must be a non-negative finite real, got {self.cap!r}")
            if self.family == "timeboost" and self.cap >= self.g:
                raise ParameterError(f"cap {self.cap} must lie below the boost bound g={self.g}")

    @property
    def spec(self) -> str:
        """Config-string form, e.g. ``power:2`` or ``timeboost:c=0.25,g=1``."""
        if self.family == "power":
            text = f"power:{self.beta:.12g}"
        else:
            text = f"timeboost:c={self.c:.12g},g={self.g:.12g}"
        if self.cap is not None:
            text += f",cap={self.cap:.12g}"
        return text

    def admissible_max(self) -> float:
        """Largest usable signal: the cap if set, else just below g (a float below, if g is subnormal), else inf."""
        hi = math.inf if self.family == "power" else min(self.g * (1.0 - 1e-9), math.nextafter(self.g, 0.0))
        return hi if self.cap is None else min(hi, self.cap)

    def _checked(self, formula, s):
        number = isinstance(s, (int, float))  # checked with no NumPy, so a bad number is refused before it loads
        s_arr = s if number else np.asarray(s, dtype=float)
        if number or s_arr.size:  # the extremes decide every check; a NaN makes both NaN
            lo, hi = (s, s) if number else (s_arr.min(), s_arr.max())
            if not (lo >= 0.0 and hi < math.inf):
                raise DomainError("signal must be a finite non-negative real")
            if self.family == "timeboost" and hi >= self.g:
                raise DomainError(f"timeboost signal must lie strictly below g={self.g}")
            if self.cap is not None and hi > self.cap:
                raise DomainError(f"signal exceeds the cap {self.cap}")
        with np.errstate(over="ignore"):  # a value past float range is inf, for the caller to weigh
            out = formula(np.asarray(s_arr, dtype=float))
        return float(out) if np.ndim(s) == 0 else out

    def cost(self, s):
        return self._checked(self._cost, s)

    def marginal_cost(self, s):
        return self._checked(self._marginal, s)

    # unchecked, for arrays in the domain; Python-float parameters keep numpy's fast ``** 2``

    def _cost(self, s: np.ndarray) -> np.ndarray:
        return s**self.beta if self.family == "power" else self.c * s / (self.g - s)

    def _marginal(self, s: np.ndarray) -> np.ndarray:
        return self.beta * s ** (self.beta - 1.0) if self.family == "power" else self.c * self.g / (self.g - s) ** 2

    def stationary_signal(self, m, h, w, upper):
        """An estimate of the root of ``m - h*C'(s) - w*C(s)`` below ``upper``, where ``C'(upper) = m/h``.

        For arrays with ``m, h > 0`` and ``w >= 0``. Timeboost: the condition
        times ``(g - s)**2`` is a quadratic, whose smaller root is taken in
        its stable form. Power: ``t = s/upper`` solves ``t**(beta-1) * (1 +
        kappa*t) = 1`` with ``kappa = w*upper/(h*beta)``; in ``u = ln t``,
        ``(beta-1)*u + log1p(kappa*e**u)`` is convex and increasing, so
        Newton's method from a point above its root falls straight to it.
        """
        if self.family == "timeboost":
            a = m / self.c
            return 2.0 * (a * self.g - h) / ((2.0 * a + w) + np.sqrt(w * w + 4.0 * h * (a + w) / self.g))
        slope = self.beta - 1.0
        with np.errstate(divide="ignore"):  # w = 0 puts the root at upper
            log_kappa = np.log(w) + np.log(upper) - np.log(h * self.beta)
        u = -np.maximum(log_kappa, 0.0) / self.beta  # the root where log1p is replaced by its max(0, .) floor
        for _ in range(_NEWTON_STEPS):
            x = log_kappa + u
            soft = np.logaddexp(0.0, x)
            step = (slope * u + soft) / (slope + np.exp(x - soft))
            u = u - step
            if (np.abs(step) <= 1e-9 * (1.0 + np.abs(u))).all():  # the next step would be below rounding
                break
        return upper * np.exp(u)

    def inverse_marginal_cost(self, m):
        """The signal with marginal cost ``m``, ignoring any cap.

        Returns ``(signal, corner)``, floats for a float ``m`` and arrays for
        an array. ``corner`` is True when ``m`` is below the smallest
        attainable marginal cost (timeboost with ``m < c/g``), in which case
        the signal is 0. Raises :class:`SolverError` beyond float range.
        """
        m_arr = np.asarray(m, dtype=float)
        bad = ~(np.isfinite(m_arr) & (m_arr > 0))
        if bad.any():
            raise ParameterError(f"marginal cost must be positive and finite, got {float(m_arr[bad][0])!r}")
        if self.family == "timeboost":
            corner = m_arr < self.c / self.g  # signal 0, so a tiny m there, which would overflow the root, is set to 1
            root = np.sqrt(self.c * self.g / np.where(corner, 1.0, m_arr))
            signal = np.where(corner, 0.0, np.maximum(self.g - root, 0.0))
        else:
            corner, exponent = np.zeros(m_arr.shape, dtype=bool), 1.0 / (self.beta - 1.0)
            try:  # Python's float power, point by point: numpy's can differ from it in the last bit
                signal = np.reshape([x**exponent for x in np.ravel(m_arr / self.beta).tolist()], m_arr.shape)
            except OverflowError:
                raise SolverError(f"the {self.spec} signal with marginal cost {float(m_arr.max()):.6g} "
                                  "lies beyond float range") from None
        return (float(signal), bool(corner)) if np.ndim(m) == 0 else (signal, corner)


def tokenize_cost(text: str) -> tuple[str, dict[str, float], list[float]]:
    """Split a cost spec into its family name, ``key=value`` entries, and bare values.

    Empty entries (a trailing comma) are skipped; the family is not checked.
    """
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if not sep or not rest.strip():
        raise ConfigError(f"cost spec {text!r} must look like 'power:BETA' or 'timeboost:c=C,g=G'")
    fields: dict[str, float] = {}
    positional: list[float] = []
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        try:
            if eq:
                fields[key.strip()] = float(value)
            else:
                positional.append(float(part))
        except ValueError:
            raise ConfigError(f"bad cost parameter {part!r} in {text!r}") from None
    return name, fields, positional


def parse_cost(text: str) -> CostModel:
    """Parse a cost spec like ``power:2.0``, ``timeboost:c=0.25,g=1.0``.

    An optional ``cap=...`` entry may be appended to either family, e.g.
    ``power:2.0,cap=0.4``.
    """
    name, fields, positional = tokenize_cost(text)
    cap = fields.pop("cap", None)
    if name == "power":
        if len(positional) == 1 and not fields:
            return CostModel.power(positional[0], cap=cap)
        if not positional and set(fields) == {"beta"}:
            return CostModel.power(fields["beta"], cap=cap)
        raise ConfigError(f"power cost spec {text!r} must carry exactly one elasticity, e.g. 'power:2.0'")
    if name == "timeboost":
        if positional or set(fields) != {"c", "g"}:
            raise ConfigError(f"timeboost cost spec {text!r} must carry c and g, e.g. 'timeboost:c=0.25,g=1.0'")
        return CostModel.timeboost(fields["c"], fields["g"], cap=cap)
    raise ConfigError(f"unknown cost family {name!r} in {text!r}; expected one of {FAMILIES}")
