"""Stochastic oracle for the arbitrage race.

Simulates the per-chain timestamp races trial by trial, keeps exact integer
counts of captures and chain wins, derives win probabilities, expected
payoffs and their confidence half-widths from those counts, and certifies
(or refutes) best-response properties of computed equilibria by scanning
unilateral deviations against common random numbers. Nothing here reuses
the solvers' algebra beyond the cost function itself, so the estimates are
an independent check on the closed forms.

Determinism contract: the uniform driving trial ``t``, chain ``k``, slot
``j`` is word ``(t*n + k)*3 + j`` of the counter-based stream keyed by the
seed (slots 0 and 1 feed the two traders' noise, slot 2 breaks ties), so an
identical spec yields bit-identical statistics no matter how trials are
chunked or scheduled: the counts are integers, and the statistics are
computed from the final counts only. Noise is drawn per trader so that the
per-chain races of the separate game are genuinely independent; the
per-trader laws are chosen so the within-chain difference has exactly the
configured law (the uniform family, which has no such decomposition, draws
the difference directly and splits it antisymmetrically).
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
# (profile, trial) cells raced per block: bounds the temporaries however many
# trials or deviation profiles there are
_BLOCK_CELLS = 1 << 18
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


def _tally(own: np.ndarray, rival: np.ndarray, noise: NoiseModel, trials: int, seed: int):
    """Exact race counts of trader 1's profiles against one rival profile.

    Column ``p`` of the ``(n, P)`` array ``own`` is one per-chain profile of
    trader 1; ``rival`` holds trader 2's ``n`` signals. Each chunk of trials
    draws its uniforms and noise once, and every profile races against those
    same draws, so a profile's counts are exactly those of a one-profile run
    with the same seed. Returns ``captures`` of shape ``(2, P)`` (trials in
    which trader 1, resp. trader 2, won every chain) and ``joint`` of shape
    ``(n, n, P)``, the trials in which trader 1 won both chain ``k`` and
    chain ``l``, so its per-chain wins are the diagonal.
    """
    n, profiles = own.shape
    gap = own - rival[:, None]
    captures = np.zeros((2, profiles), dtype=np.int64)
    joint = np.zeros((n, n, profiles), dtype=np.int64)
    for start in range(0, trials, _CHUNK_TRIALS):
        _race_chunk(gap, noise, seed, start, min(_CHUNK_TRIALS, trials - start), captures, joint)
    for k in range(n):
        for l in range(k + 1, n):
            joint[l, k] = joint[k, l]
    return captures, joint


def _race_chunk(gap: np.ndarray, noise: NoiseModel, seed: int, start: int, m: int,
                captures: np.ndarray, joint: np.ndarray) -> None:
    """Add the counts of trials ``[start, start + m)`` to ``captures`` and
    the upper triangle of ``joint``. A function of its own so the chunk's
    draws are freed before the next chunk draws its own."""
    n, profiles = gap.shape
    words_per_trial = _SLOTS * n
    u = uniform_stream(seed, start * words_per_trial, m * words_per_trial).reshape(m, n, _SLOTS)
    # per chain, contiguous over trials: trader 1's noise, trader 2's (none
    # for the uniform law, whose difference is drawn directly), the coin
    if noise.has_trader_law:
        mine = np.ascontiguousarray(noise.trader_noise(u[:, :, 0]).T)
        theirs = np.ascontiguousarray(noise.trader_noise(u[:, :, 1]).T)
    else:
        mine, theirs = np.ascontiguousarray(noise.quantile(u[:, :, 0]).T), None
    heads = np.ascontiguousarray(u[:, :, 2].T < 0.5)
    block = max(1, _BLOCK_CELLS // m)
    for lo in range(0, profiles, block):
        hi = min(lo + block, profiles)
        cols = slice(lo, hi)
        win = np.empty((n, hi - lo, m), dtype=bool)
        for k in range(n):
            diff = gap[k, cols, None] + mine[k]
            if theirs is not None:
                diff -= theirs[k]
            np.greater(diff, 0.0, out=win[k])
            tie = diff == 0.0
            if tie.any():
                np.copyto(win[k], heads[k], where=tie)
        captures[0, cols] += np.count_nonzero(np.logical_and.reduce(win), axis=1)
        captures[1, cols] += m - np.count_nonzero(np.logical_or.reduce(win), axis=1)
        for k in range(n):
            joint[k, k, cols] += np.count_nonzero(win[k], axis=1)
            for l in range(k + 1, n):
                joint[k, l, cols] += np.count_nonzero(win[k] & win[l], axis=1)


def _payoff_statistics(trials: int, market: MarketConfig, costs, captures: np.ndarray, joint: np.ndarray):
    """One trader's mean payoff and its 95% half-width, from exact counts.

    ``costs[k]`` is the trader's cost on chain ``k``, ``captures`` its
    capture counts and ``joint[k, l]`` the trials in which it won both chains
    ``k`` and ``l``; trailing axes index profiles. A trial pays
    ``v*capture - sum_k costs[k]*(alpha + (1 - alpha)*win_k)``, so the sample
    mean and variance are functions of these counts. The variance is a
    quadratic form in the integer co-moments ``T*N_xy - N_x*N_y`` of the
    indicators rather than ``sum(x**2) - T*mean**2``, which cancels to
    nothing when payoffs are large next to their spread.
    """
    v, alpha = market.v, market.alpha
    wins = [joint[k, k] for k in range(len(costs))]
    spent = 0.0
    for cost, won in zip(costs, wins):
        spent = spent + cost * (won + alpha * (trials - won))
    mean = (v * captures - spent) / trials
    if trials == 1:
        return mean, np.full(mean.shape, math.inf)
    # as Python integers: T*N reaches T**2, which passes int64 beyond 3e9 trials
    caps, counts = captures.astype(object), joint.astype(object)
    slopes = [(1.0 - alpha) * cost for cost in costs]  # payoff lost per chain won, beyond alpha*cost
    moment = v * v * (caps * (trials - caps)).astype(float)
    for k, slope in enumerate(slopes):
        moment = moment - 2.0 * v * slope * (caps * (trials - counts[k, k])).astype(float)
        for l, other in enumerate(slopes):
            moment = moment + slope * other * (trials * counts[k, l] - counts[k, k] * counts[l, l]).astype(float)
    variance = np.maximum(moment, 0.0) / (trials * (trials - 1.0))
    return mean, _Z95 * np.sqrt(variance / trials)


def simulate(spec: SimulationSpec) -> SimulationStats:
    """Run the races and tally captures, per-chain wins, and payoffs.

    Trader ``i`` wins chain ``k`` when signal plus noise strictly exceeds the
    rival's; exact ties fall to a fair coin. A trader captures the arbitrage
    only by winning every chain, pays full cost on chains won and an
    ``alpha`` fraction on chains lost. Only integer counts are kept, so
    memory does not grow with the number of trials.
    """
    market, trials = spec.market, spec.trials
    own, rival = (np.array(row) for row in spec.signals)
    captures, joint = _tally(own[:, None], rival, spec.noise, trials, spec.seed)
    wins = np.array([joint[k, k] for k in range(market.n_chains)])
    # trader 2 wins a chain exactly when trader 1 loses it
    rival_joint = trials - wins[:, None] - wins[None, :] + joint
    mean1, hw1 = _payoff_statistics(trials, market, spec.cost.cost(own[:, None]), captures[0], joint)
    mean2, hw2 = _payoff_statistics(trials, market, spec.cost.cost(rival[:, None]), captures[1], rival_joint)

    capture_counts = tuple(int(c) for c in captures[:, 0])
    p_hat = tuple(c / trials for c in capture_counts)
    return SimulationStats(
        trials=trials,
        capture_counts=capture_counts,
        per_chain_win_counts=(tuple(int(w) for w in wins[:, 0]), tuple(trials - int(w) for w in wins[:, 0])),
        capture_probability=p_hat,
        capture_ci_halfwidth=tuple(_probability_halfwidth(p, trials) for p in p_hat),
        mean_payoff=(float(mean1[0]), float(mean2[0])),
        payoff_ci_halfwidth=(float(hw1[0]), float(hw2[0])),
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
    at once. Monte Carlo mode races the baseline and every profile of both
    families against the same draws of each chunk (common random numbers),
    so each score equals ``simulate`` at that profile and the gain
    comparison is paired. Within a family the first maximum wins, and the
    product grid replaces the equal family's best only when strictly better.
    A positive best gain means the candidate is not a best response; it is
    reported, never suppressed.
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

    families = [(cand,) * n, (grid,) * n]
    if n >= 2:
        # the product grid is dense when payoffs are closed-form and a coarse
        # probe when every point costs a race per trial
        if mode == "analytic":
            axis_points = {2: 61, 3: 31}.get(n, 11)
        else:
            axis_points = {2: 9}.get(n, 5)
        axis = default_deviation_grid(cand, cost, points=axis_points) if deviation_grid is None else grid
        families.append(tuple(axis.reshape([-1 if k == j else 1 for j in range(n)]) for k in range(n)))
    profiles = [np.broadcast_arrays(*own) for own in families]
    if mode == "analytic":
        scores = [np.asarray(analytic_expected_payoff((own, cand), market, cost, noise)) for own in families]
    else:
        # checks trials, seed and the candidate as a one-profile run would;
        # cost.cost rejects any deviation outside the cost's domain
        SimulationSpec((cand, cand), market, cost, noise, trials=trials, seed=seed)
        flat = np.concatenate([np.reshape(family, (n, -1)) for family in profiles], axis=1)
        costs = cost.cost(flat)
        captures, joint = _tally(flat, np.full(n, cand), noise, trials, seed)
        means, halfwidths = _payoff_statistics(trials, market, costs, captures[0], joint)
        offsets = np.cumsum([family[0].size for family in profiles])
        scores = np.split(means, offsets[:-1])

    baseline = float(scores[0].flat[0])
    for f in range(1, len(families)):
        index = int(np.argmax(scores[f]))
        value = float(scores[f].flat[index])
        if f == 1 or value > best_payoff:
            best_payoff, best_family, best_index = value, f, index
    best_profile = tuple(float(x.flat[best_index]) for x in profiles[best_family])

    max_gain = best_payoff - baseline
    if mode == "analytic":
        epsilon = 1e-3 * market.v
    else:
        epsilon = float(halfwidths[offsets[best_family - 1] + best_index])
    return BestResponseCheck(
        max_gain=float(max_gain),
        argmax_deviation=best_profile,
        is_epsilon_equilibrium=max_gain <= epsilon,
        epsilon=float(epsilon),
        baseline_payoff=float(baseline),
        mode=mode,
    )
