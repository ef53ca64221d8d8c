"""Shared-vs-separate comparisons, thresholds, and parameter sweeps.

The same equilibrium expenditure reads two ways depending on the ordering
policy: latency investment under first-come-first-serve is deadweight loss
("waste"), while bids under a fee-based policy are protocol income
("revenue"). The arithmetic is identical; only the label differs.

Besides the head-to-head expenditure comparison this module covers the
capped-bidding corner (a low cap reverses the usual shared-beats-separate
revenue ranking), the boost-fee revenue threshold for normal noise, the
ex-ante optimal choice of the fee parameter ``c`` when the trade value is
random, and grid sweeps that tabulate everything for plotting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .cost import CostModel
from .equilibrium import EquilibriumResult, MarketConfig, solve_equilibrium
from .errors import ConfigError, ParameterError, SolverError
from .noise import NoiseModel
from .numerics import golden_section_max

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Normal-noise constant in the boost-fee revenue comparison: separate
#: sequencing collects more than shared iff  constant * v / sigma >= c / g.
REVENUE_THRESHOLD_CONSTANT = (3.0 - 2.0 * math.sqrt(2.0)) / _SQRT_2PI


@dataclass(frozen=True)
class ComparisonReport:
    """Shared vs. separate equilibrium expenditure for one parameter point."""

    shared_result: EquilibriumResult
    separate_result: EquilibriumResult
    shared_total_expenditure: float
    separate_total_expenditure: float
    expenditure_ratio: float | None
    interpretation: str
    capture_probability_shared: float
    capture_probability_separate: float
    displayed_thresholds: dict
    cap_condition_holds: bool | None = None
    separate_exceeds_shared: bool | None = None


def _displayed_thresholds(cost: CostModel, noise: NoiseModel, v: float, n_sep: int) -> dict:
    """Closed-form existence conditions as printed, reported verbatim.

    These conditions do not always agree with the direct payoff test the
    solvers apply (see the regime fields for the authoritative answer); both
    views are emitted so the discrepancy is visible.
    """
    f0 = noise.density_at_zero()
    if cost.family == "power":
        beta = cost.beta
        out = {"shared_displayed_min_value": 2.0 * (beta / (2.0 * f0)) ** beta}
        if n_sep == 2:
            out["separate_displayed_min_value"] = 8.0 * (beta / (4.0 * f0)) ** beta
        return out
    c, g = cost.c, cost.g
    restriction = 1.0 + c / v + v / (4.0 * c)
    return {
        "shared_restriction_holds": restriction >= g * f0,
        "separate_restriction_holds": restriction >= g * f0 / 2.0,
        "shared_positive_signal_min_value": c / (g * f0),
        "separate_positive_signal_min_value": n_sep * c / (g * f0),
    }


def _report(
    shared: EquilibriumResult,
    separate: EquilibriumResult,
    n_sep: int,
    interpretation: str,
    thresholds: dict,
) -> ComparisonReport:
    shared_total = 2.0 * shared.total_cost_per_trader
    separate_total = 2.0 * separate.total_cost_per_trader
    ratio = shared_total / separate_total if separate_total > 0.0 else None
    return ComparisonReport(
        shared_result=shared,
        separate_result=separate,
        shared_total_expenditure=shared_total,
        separate_total_expenditure=separate_total,
        expenditure_ratio=ratio,
        interpretation=interpretation,
        capture_probability_shared=1.0,
        capture_probability_separate=2.0 * 0.5**n_sep,
        displayed_thresholds=thresholds,
    )


def compare_expenditure(
    v: float,
    cost: CostModel,
    noise: NoiseModel,
    alpha: float = 1.0,
    *,
    separate_chains: int = 2,
    interpretation: str | None = None,
) -> ComparisonReport:
    """Solve both sequencing modes and assemble the comparison.

    ``separate_chains`` generalizes the separate side to ``n`` independent
    sequencers; the shared side is always a single race. Expenditures count
    both traders' nominal equilibrium cost.
    """
    if interpretation is None:
        interpretation = "revenue" if cost.family == "timeboost" else "waste"
    if interpretation not in ("waste", "revenue"):
        raise ParameterError(f"interpretation must be 'waste' or 'revenue', got {interpretation!r}")
    shared = solve_equilibrium(MarketConfig(v, 1, alpha), cost, noise)
    separate = solve_equilibrium(MarketConfig(v, separate_chains, alpha), cost, noise)
    thresholds = _displayed_thresholds(cost, noise, v, separate_chains)
    return _report(shared, separate, separate_chains, interpretation, thresholds)


def capped_revenue_comparison(v: float, beta: float, f0: float, cap: float) -> ComparisonReport:
    """Bidding revenue under a hard bid cap, shared vs. separate.

    With a low enough cap both traders bid the cap in the single shared race
    (revenue ``cap**beta`` per bidder) while the separate game still collects
    up to twice that, reversing the unconstrained ranking. The report flags
    the printed sufficient condition ``cap < (v*f0/(2*beta))**(1/(1-beta))``
    alongside the direct revenue comparison, which is authoritative.
    """
    cost = CostModel.power(beta, cap=cap)
    if not (math.isfinite(f0) and f0 > 0.0):
        raise ParameterError(f"peak noise density must be positive, got {f0!r}")
    noise = NoiseModel("normal", 1.0 / (_SQRT_2PI * f0))
    report = compare_expenditure(v, cost, noise, interpretation="revenue")
    return replace(
        report,
        cap_condition_holds=cap < (v * f0 / (2.0 * beta)) ** (1.0 / (1.0 - beta)),
        separate_exceeds_shared=report.separate_total_expenditure > report.shared_total_expenditure,
    )


@dataclass(frozen=True)
class RevenueThreshold:
    """Boost-fee revenue comparison for normally distributed noise."""

    threshold_constant: float
    sigma: float
    c: float
    g: float

    def shared_revenue(self, v: float) -> float:
        return math.sqrt(self.c * self.g * v / (_SQRT_2PI * self.sigma)) - self.c

    def separate_revenue(self, v: float) -> float:
        return math.sqrt(2.0 * self.c * self.g * v / (_SQRT_2PI * self.sigma)) - 2.0 * self.c

    def separate_beats(self, v: float) -> bool:
        """True when separate sequencing collects at least as much revenue."""
        return self.threshold_constant * v / self.sigma >= self.c / self.g


def timeboost_revenue_threshold(sigma: float, c: float, g: float) -> RevenueThreshold:
    """Threshold record for the normal-noise boost-fee revenue comparison."""
    for name, value in (("sigma", sigma), ("c", c), ("g", g)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    return RevenueThreshold(REVENUE_THRESHOLD_CONSTANT, sigma, c, g)


@dataclass(frozen=True)
class ValueDistribution:
    """Law of the trade value used for ex-ante fee tuning."""

    family: str
    rate: float | None = None
    mu: float | None = None
    sigma_log: float | None = None
    points: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def exponential(cls, rate: float) -> "ValueDistribution":
        return cls("exp", rate=rate)

    @classmethod
    def lognormal(cls, mu: float, sigma_log: float) -> "ValueDistribution":
        return cls("lognormal", mu=mu, sigma_log=sigma_log)

    @classmethod
    def point_masses(cls, points) -> "ValueDistribution":
        return cls("points", points=tuple((float(v), float(w)) for v, w in points))

    def __post_init__(self) -> None:
        if self.family == "exp":
            if self.rate is None or not (math.isfinite(self.rate) and self.rate > 0):
                raise ParameterError(f"exponential value law needs a positive rate, got {self.rate!r}")
        elif self.family == "lognormal":
            if self.mu is None or not math.isfinite(self.mu):
                raise ParameterError(f"lognormal value law needs a finite mu, got {self.mu!r}")
            if self.sigma_log is None or not (math.isfinite(self.sigma_log) and self.sigma_log > 0):
                raise ParameterError(f"lognormal value law needs a positive log-sigma, got {self.sigma_log!r}")
            try:
                math.exp(0.5 * self.mu + self.sigma_log**2 / 8.0)  # E[sqrt(V)]
            except OverflowError:
                raise ParameterError("lognormal value law has E[sqrt(V)] beyond float range") from None
        elif self.family == "points":
            if not self.points:
                raise ParameterError("point-mass value law needs at least one (value, weight) pair")
            if any(not (math.isfinite(v) and v >= 0) or w < 0 for v, w in self.points):
                raise ParameterError("point-mass values must be finite, values and weights non-negative")
            total = math.fsum(w for _, w in self.points)
            if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
                raise ParameterError(f"point-mass weights must sum to 1, got {total}")
        else:
            raise ParameterError(f"unknown value distribution family {self.family!r}")

    @property
    def spec(self) -> str:
        if self.family == "exp":
            return f"exp:{self.rate:.12g}"
        if self.family == "lognormal":
            return f"lognormal:{self.mu:.12g},{self.sigma_log:.12g}"
        return "points:" + ",".join(f"{v:.12g}@{w:.12g}" for v, w in self.points)


def parse_value_dist(text: str) -> ValueDistribution:
    """Parse ``exp:1.0``, ``lognormal:mu,sigma``, or ``points:v1@w1,v2@w2``."""
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if not sep or not rest.strip():
        raise ConfigError(f"value distribution spec {text!r} must look like 'exp:RATE'")
    try:
        if name == "exp":
            return ValueDistribution.exponential(float(rest))
        if name == "lognormal":
            mu, sigma_log = (float(part) for part in rest.split(","))
            return ValueDistribution.lognormal(mu, sigma_log)
        if name == "points":
            pairs = []
            for part in rest.split(","):
                value, at, weight = part.partition("@")
                if not at:
                    raise ValueError(f"{part!r} is not VALUE@WEIGHT")
                pairs.append((float(value), float(weight)))
            return ValueDistribution.point_masses(pairs)
    except (ValueError, TypeError) as exc:  # parse errors and ParameterError alike
        raise ConfigError(f"bad value distribution spec {text!r}: {exc}") from None
    raise ConfigError(f"unknown value distribution family {name!r} in {text!r}")


@dataclass(frozen=True)
class OptimalBoostFee:
    mode: str
    c_star: float
    ex_ante_revenue: float


def ex_ante_revenue(dist: ValueDistribution, g: float, f0: float, mode: str, c: float) -> float:
    """Expected equilibrium revenue per bidder for fee parameter ``c``.

    The expectation of ``sqrt(k*c*g*f0*v) - k*c`` over trade values above the
    positive-signal threshold ``L = k*c/(g*f0)``, where ``k`` is 1 for a
    shared and 2 for separate sequencers. Exact closed forms for the exp and
    lognormal laws, an exact sum for point masses.
    """
    k = {"shared": 1.0, "separate": 2.0}[mode]
    if c <= 0.0:
        return 0.0
    lower = k * c / (g * f0)
    if dist.family == "points":
        return math.fsum(w * (math.sqrt(k * c * g * f0 * v) - k * c) for v, w in dist.points if v >= lower)
    root = math.sqrt(k * c * g * f0)
    if dist.family == "exp":
        # root*E[sqrt(V); V > L] = root*Gamma(3/2, x)/sqrt(rate) with x = rate*L, and
        # Gamma(3/2, x) = sqrt(x)*exp(-x) + sqrt(pi)/2*erfc(sqrt(x)); since root*sqrt(L)
        # equals k*c, the first term cancels k*c*P(V > L) exactly.
        x = dist.rate * lower
        return root * 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(x)) / math.sqrt(dist.rate)
    # root*E[sqrt(V); V > L] - k*c*P(V > L), each normal tail as erfc for full relative precision
    mu, sig = dist.mu, dist.sigma_log
    z = (math.log(lower) - mu) / (sig * math.sqrt(2.0))
    scale = math.exp(0.5 * mu + sig * sig / 8.0)
    return 0.5 * (root * scale * math.erfc(z - sig / math.sqrt(8.0)) - k * c * math.erfc(z))


def optimal_c(dist: ValueDistribution, g: float, f0: float, mode: str = "shared") -> OptimalBoostFee:
    """Revenue-maximizing fee parameter by golden-section search over log c.

    Requires ``g * f0 <= 4`` so that an equilibrium exists for every ``c``.
    A value law with no mass above zero yields the zero-revenue result.
    Raises :class:`SolverError` when the revenue is not finite or the optimum
    lies at or beyond an end of the searched range ``[1e-8, 1e4] * g * f0``
    (zero revenue over the whole range from a law with mass above zero means
    the optimum lies below it).
    """
    if mode not in ("shared", "separate"):
        raise ParameterError(f"mode must be 'shared' or 'separate', got {mode!r}")
    for name, value in (("g", g), ("f0", f0)):
        if not (math.isfinite(value) and value > 0.0):
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    if g * f0 > 4.0:
        raise ParameterError(f"equilibrium existence for every c needs g*f0 <= 4, got {g * f0}")
    log_lo = math.log(1e-8 * g * f0)
    log_hi = math.log(1e4 * g * f0)
    log_c, revenue = golden_section_max(
        lambda u: ex_ante_revenue(dist, g, f0, mode, math.exp(u)), log_lo, log_hi
    )
    if not math.isfinite(revenue):
        raise SolverError(f"ex-ante revenue is not finite ({revenue}) at c = {math.exp(log_c)}")
    if revenue <= 0.0 and dist.family == "points" and not any(v > 0.0 and w > 0.0 for v, w in dist.points):
        return OptimalBoostFee(mode, 0.0, 0.0)
    if revenue <= 0.0 or min(log_c - log_lo, log_hi - log_c) <= 1e-9 * (log_hi - log_lo):
        raise SolverError(f"the revenue-maximizing c lies outside the searched range "
                          f"[{math.exp(log_lo):.6g}, {math.exp(log_hi):.6g}]")
    return OptimalBoostFee(mode, math.exp(log_c), revenue)


#: Canonical sweep axis order; rows are emitted in product order over these.
SWEEP_AXES = ("v", "beta", "c", "g", "sigma", "alpha", "chains", "cap")

def sweep(
    axes: dict,
    *,
    v: float = 1.0,
    cost: CostModel,
    noise: NoiseModel,
    alpha: float = 1.0,
    chains: int = 2,
) -> list[dict]:
    """Tabulate the shared-vs-separate comparison over a parameter grid.

    ``axes`` maps axis names (a subset of :data:`SWEEP_AXES`) to value lists;
    non-axis parameters come from the keyword baseline. The ``chains`` axis
    sets the separate-side chain count. Rows appear in product order over the
    canonical axis order, each row carrying its axis values plus the result
    columns.
    """
    for name, values in axes.items():
        if name not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {name!r}; expected one of {SWEEP_AXES}")
        if len(values) == 0 or any(not math.isfinite(x) for x in values):
            raise ConfigError(f"sweep axis {name!r} needs a non-empty list of finite values")

    active = [name for name in SWEEP_AXES if name in axes]
    rows = []
    for combo in itertools.product(*(axes[name] for name in active)):
        point = dict(zip(active, combo))
        row_cost = _override_cost(cost, point)
        row_noise = replace(noise, param=point["sigma"]) if "sigma" in point else noise
        chain_count = point.get("chains", chains)
        if chain_count != int(chain_count):
            raise ConfigError(f"chains axis values must be integers, got {chain_count}")
        report = compare_expenditure(
            point.get("v", v),
            row_cost,
            row_noise,
            point.get("alpha", alpha),
            separate_chains=int(chain_count),
        )
        row = dict(point)
        row.update({
            "shared_signal": report.shared_result.signal,
            "shared_per_chain_cost": report.shared_result.per_chain_cost,
            "shared_total_cost": report.shared_result.total_cost_per_trader,
            "shared_expected_profit": report.shared_result.expected_profit,
            "shared_regime": report.shared_result.regime.value,
            "separate_signal": report.separate_result.signal,
            "separate_per_chain_cost": report.separate_result.per_chain_cost,
            "separate_total_cost": report.separate_result.total_cost_per_trader,
            "separate_expected_profit": report.separate_result.expected_profit,
            "separate_regime": report.separate_result.regime.value,
            "shared_total_expenditure": report.shared_total_expenditure,
            "separate_total_expenditure": report.separate_total_expenditure,
            "expenditure_ratio": report.expenditure_ratio,
            "capture_probability_shared": report.capture_probability_shared,
            "capture_probability_separate": report.capture_probability_separate,
            "interpretation": report.interpretation,
        })
        rows.append(row)
    return rows


def _override_cost(cost: CostModel, point: dict) -> CostModel:
    relevant = {"power": ("beta",), "timeboost": ("c", "g")}[cost.family]
    for name in ("beta", "c", "g"):
        if name in point and name not in relevant:
            raise ConfigError(f"sweep axis {name!r} does not apply to {cost.family} cost")
    return replace(cost, **{name: point[name] for name in (*relevant, "cap") if name in point})
