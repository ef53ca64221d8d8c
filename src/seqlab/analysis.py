"""Shared-vs-separate comparisons, ex-ante fee tuning, and parameter sweeps.

The same equilibrium expenditure reads two ways depending on the ordering
policy: latency investment under first-come-first-serve is deadweight loss
("waste"), while bids under a boost fee are protocol income ("revenue").
The arithmetic is identical; the label follows the cost family.

Besides the head-to-head expenditure comparison (a boost fee with a low
enough c/g reverses the usual shared-beats-separate revenue ranking; a low
bid cap reverses the expenditure ranking, but the label follows the cost
family alone, so ``compare --v 1 --cost power:2 --noise normal:0.4 --cap 0.1``
prints ``waste``) this module covers the ex-ante optimal choice of the fee
parameter ``c`` when the trade value is random, and grid sweeps that tabulate
everything for plotting.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace

from ._np import np
from .cost import CostModel
from .equilibrium import REGIMES, Equilibria, EquilibriumResult, MarketConfig, solve_equilibria, solve_equilibrium
from .errors import ConfigError, ParameterError, SolverError, _real
from .noise import NoiseModel
from .numerics import bisect_root

#: Root of ``erfc(y) = 2*y*exp(-y*y)/sqrt(pi)``: an exp(rate) value law has its optimal ``L`` at ``y*y/rate``.
_EXP_ROOT = 0.5315968851493932


@dataclass(frozen=True)
class ComparisonReport:
    """Shared vs. separate equilibrium expenditure for one parameter point."""

    shared: EquilibriumResult
    separate: EquilibriumResult
    shared_total_expenditure: float
    separate_total_expenditure: float
    ratio: float | None
    interpretation: str
    capture_probability_shared: float
    capture_probability_separate: float


def compare_expenditure(v: float, cost: CostModel, noise: NoiseModel, alpha: float = 1.0, *,
                        separate_chains: int = 2) -> ComparisonReport:
    """Solve both sequencing modes and assemble the comparison.

    ``separate_chains`` generalizes the separate side to ``n`` independent
    sequencers; the shared side is always a single race. Expenditures count
    both traders' nominal equilibrium cost.
    """
    shared = solve_equilibrium(MarketConfig(v, 1, alpha), cost, noise)
    separate = solve_equilibrium(MarketConfig(v, separate_chains, alpha), cost, noise)
    shared_total, separate_total = 2.0 * shared.total_cost, 2.0 * separate.total_cost
    return ComparisonReport(
        shared=shared,
        separate=separate,
        shared_total_expenditure=shared_total,
        separate_total_expenditure=separate_total,
        ratio=shared_total / separate_total if separate_total > 0.0 else None,
        interpretation="revenue" if cost.family == "timeboost" else "waste",
        capture_probability_shared=1.0,
        capture_probability_separate=2.0 * 0.5**separate_chains,
    )


@dataclass(frozen=True)
class ValueDistribution:
    """Law of the trade value used for ex-ante fee tuning; its parameters checked by ``errors._real``."""

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
            if not (_real(self.rate) and self.rate > 0):
                raise ParameterError(f"exponential value law needs a positive rate, got {self.rate!r}")
        elif self.family == "lognormal":
            if not _real(self.mu):
                raise ParameterError(f"lognormal value law needs a finite mu, got {self.mu!r}")
            if not (_real(self.sigma_log) and self.sigma_log > 0):
                raise ParameterError(f"lognormal value law needs a positive log-sigma, got {self.sigma_log!r}")
            try:
                math.exp(0.5 * self.mu + self.sigma_log**2 / 8.0)  # E[sqrt(V)]
            except OverflowError:
                raise ParameterError("lognormal value law has E[sqrt(V)] beyond float range") from None
        elif self.family == "points":
            if not self.points:
                raise ParameterError("point-mass value law needs at least one (value, weight) pair")
            if any(not (_real(v) and v >= 0) or w < 0 for v, w in self.points):
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
    lognormal laws, an exact sum for point masses. The root is taken factor
    by factor, ``sqrt(k*c)*sqrt(g*f0)*sqrt(v)``: ``k*c`` is about
    ``g*f0*L``, so one product under the root underflows (or overflows)
    long before the revenue does. Each point's term is
    ``sqrt(k*c)*(sqrt(g*f0)*sqrt(v) - sqrt(k*c))``, because the whole root
    overflows near float max where the revenue does not.
    """
    k = {"shared": 1.0, "separate": 2.0}[mode]
    if c <= 0.0:
        return 0.0
    lower = k * c / (g * f0)
    root_kc, root_gf0 = math.sqrt(k * c), math.sqrt(g * f0)
    root = root_kc * root_gf0
    if dist.family == "points":
        return math.fsum(w * (root_kc * (root_gf0 * math.sqrt(v) - root_kc)) for v, w in dist.points if v >= lower)
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
    """Revenue-maximizing fee parameter, exact from one stationarity condition.

    The revenue per bidder is ``g*f0*h(L)`` with ``L = k*c/(g*f0)`` (``k`` is 1
    shared, 2 separate) and ``h`` free of ``k``, so ``c* = L*g*f0/k`` for the
    ``L`` of :func:`_optimal_level`: the separate optimum is exactly half the
    shared one and earns the same. Needs ``g*f0 <= 4``; a ``c*`` or revenue
    beyond float range is a :class:`SolverError`.
    """
    if mode not in ("shared", "separate"):
        raise ParameterError(f"mode must be 'shared' or 'separate', got {mode!r}")
    for name, value in (("g", g), ("f0", f0)):
        if not (_real(value) and value > 0.0):
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")
    if g * f0 > 4.0:
        raise ParameterError(f"equilibrium existence for every c needs g*f0 <= 4, got {g * f0}")
    c_star = _optimal_level(dist) * g * f0 / {"shared": 1.0, "separate": 2.0}[mode]
    revenue = ex_ante_revenue(dist, g, f0, mode, c_star)
    # a law with mass above zero earns a positive revenue at its optimum: 0, inf or NaN there is rounding
    if not 0.0 < revenue < math.inf and (dist.family != "points" or any(v > 0.0 < w for v, w in dist.points)):
        raise SolverError(f"the optimum lies beyond float range: c* rounds to {c_star}, its revenue to {revenue}")
    return OptimalBoostFee(mode, c_star, revenue)


def _optimal_level(dist: ValueDistribution) -> float:
    """The ``L >= 0`` maximizing ``h(L) = E[(sqrt(L*V) - L); V >= L]``.

    The boundary term of ``h'`` vanishes, so ``h'(L) = 0`` reads ``E[sqrt(V); V > L] = 2*sqrt(L)*P(V > L)``.
    """
    if dist.family == "exp":
        return _EXP_ROOT * _EXP_ROOT / dist.rate
    if dist.family == "lognormal":
        # with w = ln(L) - mu, h' has the sign of r(w), whatever mu; r(-ln 4) >= 0 as
        # E[sqrt(V) | V > L] >= E[sqrt(V)] > exp(mu/2), and r(sig**2) < 0 while its tails are normal floats.
        # r is not monotone, but it changes sign once on [-ln 4, sig**2]
        sig = dist.sigma_log

        def r(w):
            tail = math.exp(sig * sig / 8.0 - w / 2.0) * math.erfc((w / sig - sig / 2.0) / math.sqrt(2.0))
            return tail - 2.0 * math.erfc(w / (sig * math.sqrt(2.0)))

        if not r(sig * sig) <= -sys.float_info.min:
            raise SolverError(f"the lognormal tails underflow in the optimum's condition at log-sigma {sig}")
        w = bisect_root(r, -math.log(4.0), sig * sig)
        log_level = dist.mu + w
        return math.exp(log_level) if log_level <= math.log(sys.float_info.max) else math.inf
    # between adjacent support values h is a*sqrt(L) - b*L, highest at sqrt(L) = a/(2b) within the piece
    level, best = 0.0, 0.0
    for start, end in itertools.pairwise([0.0, *sorted({v for v, w in dist.points if w > 0.0})]):
        above = [(v, w) for v, w in dist.points if v >= end]
        a, b = math.fsum(w * math.sqrt(v) for v, w in above), math.fsum(w for _, w in above)
        at = min(max((a / (2.0 * b)) ** 2, start), end)
        if (value := a * math.sqrt(at) - b * at) > best:
            level, best = at, value
    return level


#: Canonical sweep axis order; rows are emitted in product order over these.
SWEEP_AXES = ("v", "beta", "c", "g", "sigma", "alpha", "chains", "cap")

def sweep(axes: dict, *, v: float = 1.0, cost: CostModel, noise: NoiseModel, alpha: float = 1.0,
          chains: int = 2) -> list[dict]:
    """Tabulate the shared-vs-separate comparison over a parameter grid.

    ``axes`` maps axis names (a subset of :data:`SWEEP_AXES`) to value lists;
    non-axis parameters come from the keyword baseline. The ``chains`` axis
    sets the separate-side chain count. Rows appear in product order over the
    canonical axis order, each row carrying its axis values plus the result
    columns of :func:`compare_expenditure`, equal to the last bit. The points
    of each cost model are solved, both sides at once, in one lockstep call.
    """
    for name, values in axes.items():
        if name not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {name!r}; expected one of {SWEEP_AXES}")
        if len(values) == 0 or not all(map(_real, values)):
            raise ConfigError(f"sweep axis {name!r} needs a non-empty list of finite values")
        if name in {"power": ("c", "g"), "timeboost": ("beta",)}[cost.family]:
            raise ConfigError(f"sweep axis {name!r} does not apply to {cost.family} cost")
    baseline = (v, cost.beta, cost.c, cost.g, noise.param, alpha, chains, cost.cap)
    grid = {name: axes.get(name, [base]) for name, base in zip(SWEEP_AXES, baseline)}
    size = math.prod(len(values) for values in grid.values())

    # the cost models, noise laws and markets are checked before NumPy loads, so a bad value needs none
    cost_axes = ("beta", "c", "g", "cap")
    models: dict = {}  # distinct cost model -> group number, in order of first use
    groups = [
        models.setdefault(replace(cost, **{k: x for k, x in zip(cost_axes, combo) if k in axes}), len(models))
        for combo in itertools.product(*(grid[k] for k in cost_axes))
    ]
    densities = [replace(noise, param=sigma).density_at_zero() for sigma in grid["sigma"]]
    # the market checks, from each axis's extremes and a baseline's type, then value by value for the first error
    counts, values, fractions = grid["chains"], grid["v"], grid["alpha"]
    if not (_real(counts[0]) and _real(values[0]) and _real(fractions[0]) and 1 <= min(counts)
            and max(counts) <= MarketConfig.MAX_CHAINS and all(count == int(count) for count in counts)
            and 0.0 < min(values) and 0.0 <= min(fractions) and max(fractions) <= 1.0):
        for count in counts:
            if not (_real(count) and count == int(count)):
                raise ConfigError(f"chains axis values must be integers, got {count}")
            MarketConfig(1.0, int(count))
        for value in values:
            MarketConfig(value)
        for fraction in fractions:
            MarketConfig(1.0, 1, fraction)
    # each point's index along each axis, in product order
    position = dict(zip(grid, np.unravel_index(np.arange(size), [len(values) for values in grid.values()])))
    group = np.array(groups)[np.ravel_multi_index([position[k] for k in cost_axes], [len(grid[k]) for k in cost_axes])]
    f0 = np.array(densities)[position["sigma"]]
    v_at, alpha_at = (np.asarray(grid[k], dtype=float)[position[k]] for k in ("v", "alpha"))
    n_at = np.asarray(counts, dtype=float).astype(np.int64)[position["chains"]]

    # column p of each field holds the shared side in row 0 and the separate side in row 1
    signal, per_chain, total, capture, profit, regime = fields = [
        np.empty((2, size), np.int64 if name == "regime" else float) for name in Equilibria._fields]
    order = np.argsort(group, kind="stable")
    for model, points in zip(models, np.split(order, np.flatnonzero(np.diff(group[order])) + 1)):
        both = np.concatenate([points, points])
        solved = solve_equilibria(model, f0[both], v_at[both], np.concatenate([np.ones_like(points), n_at[points]]),
                                 alpha_at[both])
        for field, values in zip(fields, solved):
            field[:, points] = values.reshape(2, -1)

    regimes, interpretation = [r.value for r in REGIMES], "revenue" if cost.family == "timeboost" else "waste"
    columns = {}
    for side, prefix in enumerate(("shared", "separate")):
        columns.update({f"{prefix}_{name}": values[side].tolist() for name, values in (
            ("signal", signal), ("per_chain_cost", per_chain), ("total_cost", total), ("expected_profit", profit))})
        columns[f"{prefix}_regime"] = [regimes[r] for r in regime[side].tolist()]
    shared, separate = (2.0 * total).tolist()
    columns.update({
        "shared_total_expenditure": shared,
        "separate_total_expenditure": separate,
        "expenditure_ratio": [a / b if b > 0.0 else None for a, b in zip(shared, separate)],
        "capture_probability_shared": [1.0] * size,
        "capture_probability_separate": (2.0 * capture[1]).tolist(),
        "interpretation": [interpretation] * size,
    })
    keys = (*(name for name in SWEEP_AXES if name in axes), *columns)
    return [dict(zip(keys, combo + values))
            for combo, values in zip(itertools.product(*(axes[name] for name in SWEEP_AXES if name in axes)),
                                     zip(*columns.values()))]

