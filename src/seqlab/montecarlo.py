"""Stochastic oracle for the arbitrage race.

Simulates the per-chain timestamp races trial by trial, estimates win
probabilities and expected payoffs, and certifies (or refutes) best-response
properties of computed equilibria by scanning unilateral deviations. Nothing
here reuses the solvers' algebra beyond the cost function itself, so the
estimates are an independent check on the closed forms.

Determinism contract: the uniform driving trial ``t``, chain ``k``, slot
``j`` is word ``(t*n + k)*3 + j`` of the counter-based stream keyed by the
seed (slots 0 and 1 feed the two traders' noise, slot 2 breaks ties), so an
identical spec yields bit-identical statistics no matter how trials are
chunked or scheduled. Noise is drawn per trader so that the per-chain races
of the separate game are genuinely independent; the per-trader laws are
chosen so the within-chain difference has exactly the configured law (the
uniform family, which has no such decomposition, draws the difference
directly and splits it antisymmetrically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostModel
from .equilibrium import EquilibriumResult, MarketConfig
from .errors import ConfigError
from .noise import NoiseModel
from .rng import uniform_stream

_SLOTS = 3  # per (trial, chain): trader 1 noise, trader 2 noise, tie-break
_CHUNK_TRIALS = 1 << 16
_Z95 = 1.96


def _per_chain_signals(signals, n_chains: int) -> tuple[tuple, tuple]:
    """Normalize to one signal per trader per chain.

    Accepts two scalars (same signal on every chain) or two length-n
    sequences. Entries pass through unconverted, so a per-chain entry may be
    an array.
    """
    if len(signals) != 2:
        raise ConfigError(f"expected signals for exactly 2 traders, got {len(signals)}")
    out = []
    for trader in signals:
        if isinstance(trader, (tuple, list)) or np.ndim(trader) > 0:
            row = tuple(trader)
            if len(row) != n_chains:
                raise ConfigError(f"expected {n_chains} per-chain signals, got {len(row)}")
        else:
            row = (trader,) * n_chains
        out.append(row)
    return out[0], out[1]


@dataclass(frozen=True)
class SimulationSpec:
    """One reproducible simulation: who plays what, where, and for how long."""

    signals: tuple
    market: MarketConfig
    cost: CostModel
    noise: NoiseModel
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        rows = _per_chain_signals(self.signals, self.market.n_chains)
        object.__setattr__(self, "signals", tuple(tuple(float(s) for s in row) for row in rows))
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        for trader in self.signals:
            for s in trader:
                self.cost.cost(s)  # raises DomainError outside the admissible range


@dataclass(frozen=True)
class SimulationStats:
    """Counts and estimates from one simulation, per trader."""

    trials: int
    capture_counts: tuple[int, int]
    per_chain_win_counts: tuple[tuple[int, ...], tuple[int, ...]]
    capture_probability: tuple[float, float]
    capture_ci_halfwidth: tuple[float, float]
    mean_payoff: tuple[float, float]
    payoff_ci_halfwidth: tuple[float, float]


def _probability_halfwidth(p: float, trials: int) -> float:
    return _Z95 * math.sqrt(p * (1.0 - p) / trials)


def simulate(spec: SimulationSpec) -> SimulationStats:
    """Run the races and tally captures, per-chain wins, and payoffs.

    Trader ``i`` wins chain ``k`` when signal plus noise strictly exceeds the
    rival's; exact ties fall to a fair coin. A trader captures the arbitrage
    only by winning every chain, pays full cost on chains won and an
    ``alpha`` fraction on chains lost.
    """
    market, noise, trials = spec.market, spec.noise, spec.trials
    n = market.n_chains
    s1 = np.array(spec.signals[0])
    s2 = np.array(spec.signals[1])
    cost1 = np.array([spec.cost.cost(s) for s in spec.signals[0]])
    cost2 = np.array([spec.cost.cost(s) for s in spec.signals[1]])
    gap = s1 - s2

    payoff = np.empty((2, trials))
    captured = np.empty((2, trials), dtype=bool)
    win_counts = np.zeros((2, n), dtype=np.int64)

    words_per_trial = _SLOTS * n
    for start in range(0, trials, _CHUNK_TRIALS):
        m = min(_CHUNK_TRIALS, trials - start)
        u = uniform_stream(spec.seed, start * words_per_trial, m * words_per_trial)
        u = u.reshape(m, n, _SLOTS)
        if noise.has_trader_law:
            diff = gap + noise.trader_noise(u[:, :, 0]) - noise.trader_noise(u[:, :, 1])
        else:
            diff = gap + noise.quantile(u[:, :, 0])
        win1 = diff > 0.0
        tie = diff == 0.0
        if tie.any():
            win1 = np.where(tie, u[:, :, 2] < 0.5, win1)
        win_counts[0] += win1.sum(axis=0)
        win_counts[1] += m - win1.sum(axis=0)
        block = slice(start, start + m)
        captured[0, block] = win1.all(axis=1)
        captured[1, block] = (~win1).all(axis=1)
        lose_share = market.alpha
        payoff[0, block] = market.v * captured[0, block] - (
            win1 @ cost1 + (~win1) @ (lose_share * cost1)
        )
        payoff[1, block] = market.v * captured[1, block] - (
            (~win1) @ cost2 + win1 @ (lose_share * cost2)
        )

    capture_counts = tuple(int(c) for c in captured.sum(axis=1))
    p_hat = tuple(c / trials for c in capture_counts)
    means = payoff.sum(axis=1) / trials
    if trials > 1:
        variance = (np.sum(payoff**2, axis=1) - trials * means**2) / (trials - 1)
        payoff_hw = tuple(_Z95 * math.sqrt(max(var, 0.0) / trials) for var in variance)
    else:
        payoff_hw = (math.inf, math.inf)
    return SimulationStats(
        trials=trials,
        capture_counts=capture_counts,
        per_chain_win_counts=tuple(tuple(int(w) for w in row) for row in win_counts),
        capture_probability=p_hat,
        capture_ci_halfwidth=tuple(_probability_halfwidth(p, trials) for p in p_hat),
        mean_payoff=tuple(float(x) for x in means),
        payoff_ci_halfwidth=payoff_hw,
    )


def analytic_expected_payoff(signals, market: MarketConfig, cost: CostModel, noise: NoiseModel) -> float | np.ndarray:
    """Closed-form expected payoff of trader 1 for arbitrary signal profiles.

    ``signals`` is ``(own, rival)``, each one signal for every chain or one
    per chain. Per-chain entries of ``own`` may be arrays that broadcast
    against each other; the payoff then has their broadcast shape, one value
    per deviation profile, and is a float when every entry is a scalar.
    Capture probability is the product of per-chain win probabilities; the
    expected cost charges each chain fully when won and the ``alpha``
    fraction when lost.
    """
    own, rival = _per_chain_signals(signals, market.n_chains)
    capture, expected_cost = 1.0, 0.0
    for mine, theirs in zip(own, rival):
        win = noise.cdf(mine - theirs)
        capture = capture * win
        expected_cost = expected_cost + cost.cost(mine) * (win + market.alpha * (1.0 - win))
    # capture is a fresh float or full-shape array, so update it in place
    # rather than hold a third profile-sized array
    capture *= market.v
    capture -= expected_cost
    return capture


def default_deviation_grid(candidate: float, cost: CostModel, points: int = 301) -> np.ndarray:
    """Deviation signals spanning ``[0, min(domain max, 3*candidate + 1)]``.

    Log-dense near zero (corner deviations) and near the candidate (local
    deviations), with a linear backbone for coverage in between.
    """
    hi = min(cost.admissible_max(), 3.0 * candidate + 1.0)
    if hi <= 0.0:
        return np.zeros(1)
    quarter = (points - 2) // 3
    near_zero = np.geomspace(hi * 1e-8, hi, quarter)
    offsets = hi * np.geomspace(1e-9, 1.0 / 3.0, (quarter + 1) // 2)
    near_candidate = np.clip(
        np.concatenate([candidate - offsets, candidate + offsets]), 0.0, hi
    )
    backbone = np.linspace(0.0, hi, points - 2 - quarter - 2 * ((quarter + 1) // 2))
    grid = np.concatenate([[0.0, candidate], near_zero, near_candidate, backbone])
    grid.sort()
    return grid


@dataclass(frozen=True)
class BestResponseCheck:
    """Outcome of a unilateral-deviation scan against a fixed rival."""

    max_gain: float
    argmax_deviation: tuple[float, ...]
    is_epsilon_equilibrium: bool
    epsilon: float
    baseline_payoff: float
    mode: str


def verify_best_response(
    candidate,
    market: MarketConfig,
    cost: CostModel,
    noise: NoiseModel,
    *,
    deviation_grid=None,
    mode: str = "analytic",
    trials: int = 200_000,
    seed: int = 0,
) -> BestResponseCheck:
    """Scan trader 1's deviations while trader 2 sits at the candidate.

    The scan covers the equal-on-every-chain family over the deviation grid
    and, with more than one chain, a per-chain product grid (coarser per
    axis). Analytic mode evaluates the closed-form payoff over each family
    at once; Monte Carlo mode estimates it from common random numbers, one
    simulation per profile in C order, so the gain comparison is paired.
    Within a family the first maximum wins, and the product grid replaces
    the equal family's best only when strictly better. A positive best gain
    means the candidate is not a best response; it is reported, never
    suppressed.
    """
    if mode not in ("analytic", "montecarlo"):
        raise ConfigError(f"mode must be 'analytic' or 'montecarlo', got {mode!r}")
    cand = float(candidate.signal) if isinstance(candidate, EquilibriumResult) else float(candidate)
    n = market.n_chains
    if deviation_grid is None:
        grid = default_deviation_grid(cand, cost)
    else:
        grid = np.asarray(deviation_grid, dtype=float)
        if grid.size == 0:
            raise ConfigError("deviation grid must not be empty")

    def score(own) -> np.ndarray:
        """Trader 1's payoff at every profile the per-chain entries broadcast to."""
        if mode == "analytic":
            return np.asarray(analytic_expected_payoff((own, cand), market, cost, noise))
        profiles = np.broadcast(*own)
        specs = (SimulationSpec((p, cand), market, cost, noise, trials=trials, seed=seed) for p in profiles)
        return np.reshape([simulate(spec).mean_payoff[0] for spec in specs], profiles.shape)

    def best(own) -> tuple[float, tuple[float, ...]]:
        scores = score(own)
        flat = int(np.argmax(scores))
        return float(scores.flat[flat]), tuple(float(x.flat[flat]) for x in np.broadcast_arrays(*own))

    baseline = float(score((cand,) * n))
    best_payoff, best_profile = best((grid,) * n)
    if n >= 2:
        # the product grid is dense when payoffs are closed-form and a coarse
        # probe when every point costs a full simulation
        if mode == "analytic":
            axis_points = {2: 61, 3: 31}.get(n, 11)
        else:
            axis_points = {2: 9}.get(n, 5)
        axis = default_deviation_grid(cand, cost, points=axis_points) if deviation_grid is None else grid
        mesh = tuple(axis.reshape([-1 if k == j else 1 for j in range(n)]) for k in range(n))
        value, profile = best(mesh)
        if value > best_payoff:
            best_payoff, best_profile = value, profile

    max_gain = best_payoff - baseline
    if mode == "analytic":
        epsilon = 1e-3 * market.v
    else:
        spec = SimulationSpec((best_profile, cand), market, cost, noise, trials=trials, seed=seed)
        epsilon = simulate(spec).payoff_ci_halfwidth[0]
    return BestResponseCheck(
        max_gain=float(max_gain),
        argmax_deviation=best_profile,
        is_epsilon_equilibrium=max_gain <= epsilon,
        epsilon=float(epsilon),
        baseline_payoff=float(baseline),
        mode=mode,
    )
