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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError, ParameterError

FAMILIES = ("power", "timeboost")

# the beta -> 1 limit makes the inverse marginal cost degenerate
MIN_BETA = 1.0 + 1e-6


@dataclass(frozen=True)
class CostModel:
    """Cost of producing a signal, one of the two supported families."""

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
            if self.beta is None or not math.isfinite(self.beta) or self.beta < MIN_BETA:
                raise ParameterError(f"power cost needs elasticity beta >= {MIN_BETA}, got {self.beta!r}")
            if self.c is not None or self.g is not None:
                raise ParameterError("power cost takes only beta (and an optional cap)")
        elif self.family == "timeboost":
            for name, value in (("c", self.c), ("g", self.g)):
                if value is None or not math.isfinite(value) or value <= 0:
                    raise ParameterError(f"timeboost cost needs positive finite {name}, got {value!r}")
            if self.beta is not None:
                raise ParameterError("timeboost cost takes c and g, not beta")
        else:
            raise ParameterError(f"unknown cost family {self.family!r}; expected one of {FAMILIES}")
        if self.cap is not None:
            if not math.isfinite(self.cap) or self.cap < 0:
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

    def without_cap(self) -> "CostModel":
        return replace(self, cap=None) if self.cap is not None else self

    def admissible_max(self) -> float:
        """Largest usable signal: the cap if set, else just below g, else inf."""
        hi = math.inf if self.family == "power" else self.g * (1.0 - 1e-9)
        return hi if self.cap is None else min(hi, self.cap)

    def _check(self, s: np.ndarray) -> None:
        if np.any(s < 0) or not np.all(np.isfinite(s)):
            raise DomainError("signal must be a finite non-negative real")
        if self.family == "timeboost" and np.any(s >= self.g):
            raise DomainError(f"timeboost signal must lie strictly below g={self.g}")
        if self.cap is not None and np.any(s > self.cap):
            raise DomainError(f"signal exceeds the cap {self.cap}")

    def cost(self, s):
        s_arr = np.asarray(s, dtype=float)
        self._check(s_arr)
        if self.family == "power":
            out = s_arr**self.beta
        else:
            out = self.c * s_arr / (self.g - s_arr)
        return float(out) if np.ndim(s) == 0 else out

    def marginal_cost(self, s):
        s_arr = np.asarray(s, dtype=float)
        self._check(s_arr)
        if self.family == "power":
            out = self.beta * s_arr ** (self.beta - 1.0)
        else:
            out = self.c * self.g / (self.g - s_arr) ** 2
        return float(out) if np.ndim(s) == 0 else out

    def inverse_marginal_cost(self, m: float) -> tuple[float, bool]:
        """The signal with marginal cost ``m``, ignoring any cap.

        Returns ``(signal, corner)``. ``corner`` is True when ``m`` is below
        the smallest attainable marginal cost (timeboost with ``m < c/g``),
        in which case the signal is 0.
        """
        if not (math.isfinite(m) and m > 0):
            raise ParameterError(f"marginal cost must be positive and finite, got {m!r}")
        if self.family == "power":
            return (m / self.beta) ** (1.0 / (self.beta - 1.0)), False
        if m < self.c / self.g:
            return 0.0, True
        return max(self.g - math.sqrt(self.c * self.g / m), 0.0), False


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
