"""Stochastic oracle for the arbitrage race.

Simulates the per-chain timestamp races trial by trial, keeps exact integer
counts of captures and chain wins, derives win probabilities, expected
payoffs and their confidence half-widths from those counts, and certifies
(or refutes) best-response properties of computed equilibria by scanning
unilateral deviations against common random numbers. Nothing here reuses
the solvers' algebra beyond the cost function itself, so the estimates are
an independent check on the closed forms.

A race is monotone in trader 1's signal, so the scan does not race each
deviation profile: per (trial, chain) a binary search over the sorted
deviation values finds the first that wins, and every profile's counts
come from histograms of those thresholds. A scan costs
O(trials * chains * log grid) races plus the histograms of the per-chain
mesh, not O(profiles * trials), and its counts are exactly those of the
per-profile race.

A simulation races each chain at one signal gap, and the sign of
``(gap + a) - b`` is all it needs, so it rarely computes the noise: the top
byte of each noise word bounds its noise, a table per gap says which pairs
of bytes win or lose whatever the exact draws, and only the races it leaves
open (about 1% of them) are transformed and raced exactly. Rounded addition
is monotone, so the tables decide exactly as the exact test would.

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
from .equilibrium import EquilibriumResult, MarketConfig, _real
from .errors import ConfigError
from .noise import NoiseModel
from .rng import raw_words, to_uniform

_SLOTS = 3  # per (trial, chain): trader 1 noise, trader 2 noise, tie-break
_CHUNK_TRIALS = 1 << 16
_CHUNK_WORDS = 3 * _SLOTS * (1 << 16)  # the words of a full chunk of 3 chains: the most a chunk draws
_K = 8  # a word's top _K bits are its bin in the decision tables: one byte
_BLOCK = 1 << 14  # analytic scores of a product family are formed this many at a time
#: Most profiles a deviation scan's default product grid may have, per mode. Measured
#: tracemalloc peaks: analytic 30 MB at 11**7 profiles (n = 7), Monte Carlo
#: 33 MB at 5**6 (n = 6, 2,000 trials); each chain more multiplies them by
#: about 11 and 6.
_MAX_PROFILES = {"analytic": 11**7, "montecarlo": 5**6}
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
        if not (_real(self.trials, int) and self.trials >= 1):
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not (_real(self.seed, int) and 0 <= self.seed < 2**64):
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


def _tally(families, rival: np.ndarray, noise: NoiseModel, trials: int, seed: int):
    """Exact race counts of trader 1's deviation profiles against one rival profile.

    Each family is a tuple of trader 1's ``n`` per-chain entries, which
    broadcast against each other: scalars, or arrays that vary along one
    axis each (entries along the same axis hold the same values). Its
    profiles are the points of the broadcast shape. ``rival`` holds trader
    2's ``n`` signals. Each chunk of trials draws its words once for every
    family.

    When no entry varies, every chain races at one gap, and a decision table
    per distinct gap settles almost every race from the top byte of its two
    noise words; only the races it leaves open transform their words.
    Otherwise every word is transformed, and the race being monotone in
    trader 1's signal, per family and (trial, chain) a lockstep binary
    search over the axis's sorted values finds the first one that wins;
    every profile's counts follow from histograms of those thresholds. Both
    ways give exactly the counts of a one-profile run with the same seed.

    Returns ``captures`` of shape ``(2, P)`` (trials in which trader 1,
    resp. trader 2, won every chain) and ``joint`` of shape ``(n, n, P)``,
    the trials in which trader 1 won both chain ``k`` and chain ``l``, so its
    per-chain wins are the diagonal; ``P`` runs over the profiles of every
    family, each family flattened in C order.
    """
    n = len(rival)
    scans = [_Scan(family, rival) for family in families]
    tables = None
    if all(g is None for scan in scans for g in scan.group):
        bounds = _bin_bounds(noise)
        tables = {gap: _decision_table(gap, bounds) for gap in {float(g) for scan in scans for g in scan.gaps}}
    chunk = max(1, min(_CHUNK_TRIALS, _CHUNK_WORDS // (_SLOTS * n)))  # many chains draw fewer trials at once
    for start in range(0, trials, chunk):
        _race_chunk(scans, noise, seed, start, min(chunk, trials - start), tables)
    counts = [scan.counts() for scan in scans]
    captures = np.concatenate([c[:2] for c in counts], axis=1)
    joint = np.empty((n, n, captures.shape[1]), dtype=np.int64)
    pairs = iter(np.concatenate([c[2:] for c in counts], axis=1))
    for k in range(n):
        for l in range(k, n):
            joint[k, l] = joint[l, k] = next(pairs)
    return captures, joint


def _race_chunk(scans, noise: NoiseModel, seed: int, start: int, m: int, tables) -> None:
    """Add the counts of trials ``[start, start + m)`` to every scan. A
    function of its own so the chunk's draws are freed before the next
    chunk draws its own."""
    n = scans[0].n
    words = raw_words(seed, start * _SLOTS * n, m * _SLOTS * n).reshape(m, n, _SLOTS)
    if tables is not None:
        race = _TableRace(words, noise, tables)
    else:
        # the words go before the noise is drawn and the draws once it is: a
        # chunk that holds them to the end peaks past the point where the
        # allocator hands its pages back, and every chunk faults them in anew
        draws, heads = _draws(words, noise)
        del words
        mine, theirs = _noise(draws, noise)
        del draws
        race = _Race(mine, theirs, heads)
    for scan in scans:
        scan.add(race)


def _draws(words: np.ndarray, noise: NoiseModel):
    """The uniforms that drive the noise and the coins (heads when the
    tie-break draw is below 1/2) of ``words`` shaped ``(..., _SLOTS)``.

    The words are converted in place, in memory order; one gather then lays
    trader 1's and trader 2's draws (trader 1's alone for the uniform law,
    which draws the difference) out in rows. The leading axes come reversed,
    so a chunk's rows are per chain and contiguous over trials.
    """
    u = to_uniform(words).T
    slots = u[:2] if noise.has_trader_law else u[:1]
    return np.ascontiguousarray(slots), np.less(u[-1], 0.5, order="C")


def _noise(draws: np.ndarray, noise: NoiseModel):
    """Trader 1's and trader 2's noise (``None`` for the uniform law) from ``_draws``'s rows."""
    if noise.has_trader_law:
        mine, theirs = noise.trader_noise(draws)
        return mine, theirs
    return noise.quantile(draws[0]), None


def _wins(gap, mine: np.ndarray, theirs, heads: np.ndarray) -> np.ndarray:
    """Whether trader 1 wins each race at ``gap`` (own minus rival signal, a
    scalar or one per race): ``(gap + a) - b > 0``, and on an exact tie the
    coin. ``theirs`` is ``None`` when the law draws the difference."""
    diff = gap + mine
    if theirs is not None:
        diff -= theirs
    won = diff > 0.0
    tie = diff == 0.0
    if tie.any():
        won[tie] = heads[tie]
    return won


class _Race:
    """One chunk's exact draws per chain: the win test at any gap."""

    def __init__(self, mine, theirs, heads):
        self.mine, self.theirs, self.heads = mine, theirs, heads

    def wins(self, k: int, gap) -> np.ndarray:
        """Whether trader 1 wins chain ``k`` of each trial at ``gap``."""
        return _wins(gap, self.mine[k], None if self.theirs is None else self.theirs[k], self.heads[k])

    def thresholds(self, k: int, gaps: np.ndarray) -> np.ndarray:
        """Per trial, the index of the first of the non-decreasing ``gaps``
        that wins chain ``k``.

        ``gap + a`` and then ``- b`` round monotonically, so the test is
        monotone in the gap and trader 1 wins at every index from there on.
        A lockstep binary search races each trial ``log2(len(gaps) + 1)``
        times; ``gaps`` holds ``2**j - 1`` entries, the real ones padded
        with ``+inf``, which always wins (an axis of exactly ``2**j - 1``
        values gets no pad). A trial that no real gap wins ends at the
        number of real gaps: the first pad's index, or ``len(gaps)``.
        """
        lost = np.zeros(len(self.mine[k]), dtype=np.intp)
        step = (len(gaps) + 1) // 2
        while step:
            won = self.wins(k, gaps[lost + (step - 1)])
            lost += step * ~won
            step //= 2
        return lost


_OPEN = 2  # a table entry the bounds leave undecided; 0 and 1 are the race's outcome


def _bin_bounds(noise: NoiseModel):
    """Bounds ``(lo_a, hi_a, lo_b, hi_b)`` on trader 1's and trader 2's noise
    in each bin, the bin of a word being its top ``_K`` bits.

    The transform from word to noise is monotone, so a bin's noise lies
    between its values at the bin's first and last word. The computed
    transform need not be monotone in its last bits, so the bounds are
    widened by a slack far beyond its rounding, and then by one more ulp
    for subnormal results. Trader 2's noise is 0 under the uniform law.
    """
    first = np.arange(1 << _K, dtype=np.uint64) << np.uint64(64 - _K)
    ends = to_uniform(np.stack([first, first | np.uint64((1 << (64 - _K)) - 1)]))
    ends = noise.trader_noise(ends) if noise.has_trader_law else noise.quantile(ends)
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    with np.errstate(invalid="ignore"):  # an infinite end leaves the bin open
        lo = np.nextafter(lo - (1e-9 * np.abs(lo) + 1e-12 * noise.param), -np.inf)
        hi = np.nextafter(hi + (1e-9 * np.abs(hi) + 1e-12 * noise.param), np.inf)
    if noise.has_trader_law:
        return lo, hi, lo, hi
    zero = np.zeros(1 << _K)
    return lo, hi, zero, zero


def _decision_table(gap: float, bounds) -> np.ndarray:
    """The race's outcome at ``gap`` for each pair of bins, at index
    ``a | b << _K`` for trader 1's bin ``a`` and trader 2's bin ``b``: 1 when
    every draw in the pair wins, 0 when every one loses, ``_OPEN`` otherwise.

    Trader 1 wins when ``fl(gap + a) > b``, or on a tie and heads, since
    ``fl(x - b) > 0`` exactly when ``x > b``. Rounded addition is monotone,
    so ``fl(gap + lo_a) > hi_b`` wins whatever the draws in the bins and the
    coin, and ``fl(gap + hi_a) < lo_b`` loses likewise.
    """
    lo_a, hi_a, lo_b, hi_b = bounds
    with np.errstate(invalid="ignore"):  # a NaN bound decides nothing
        win = np.less.outer(hi_b, gap + lo_a)
        lose = np.greater.outer(lo_b, gap + hi_a)
    return np.where(win, 1, np.where(lose, 0, _OPEN)).astype(np.uint8).reshape(-1)


class _TableRace:
    """One chunk's words, raced from decision tables: a chain's words are
    transformed only in the races its table leaves open."""

    def __init__(self, words: np.ndarray, noise: NoiseModel, tables: dict):
        self.words, self.noise, self.tables = words, noise, tables
        # each word's top byte, so slot 0's and slot 1's of one race are
        # adjacent and read as one little-endian 16-bit index
        self.top = words.astype("<u8", copy=False).reshape(-1).view(np.uint8)[7::8].copy()

    def wins(self, k: int, gap) -> np.ndarray:
        """Whether trader 1 wins chain ``k`` of each trial at the scalar ``gap``."""
        m, n, _ = self.words.shape
        pairs = np.ndarray((m,), dtype="<u2", buffer=self.top, offset=_SLOTS * k, strides=(_SLOTS * n,))
        won = np.take(self.tables[gap], pairs)
        open_ = np.flatnonzero(won == _OPEN)
        if open_.size:
            draws, heads = _draws(self.words[open_, k], self.noise)
            won[open_] = _wins(gap, *_noise(draws, self.noise), heads)
        return won.view(bool)


_WIN, _LOSE = 0, 1


class _Scan:
    """One family of profiles: its thresholds' histograms over the chunks.

    Chains whose entries vary along the same axis form a group; a profile
    at rank ``r`` of the group's sorted distinct values wins chain ``k``
    exactly when ``r`` reaches the chain's threshold, so it wins every chain
    of the group when ``r`` reaches their max and loses every one when ``r``
    stays below their min. Scalar entries give per-trial booleans instead.
    Each count (trader 1 wins every chain, loses every chain, wins chain
    ``k`` and chain ``l``) is a histogram over the groups' thresholds among
    the trials the scalar chains allow; cumulative sums along each axis turn
    it into the count at every profile.
    """

    def __init__(self, family, rival: np.ndarray):
        entries = [np.asarray(e, dtype=float) for e in family]
        self.n = n = len(entries)
        self.shape = shape = np.broadcast_shapes(*(e.shape for e in entries))
        self.gaps, self.group = [], []  # per chain: gap(s) to the rival, group (None: scalar)
        axes, self.ranks, self.sizes = {}, [], []  # per group: its axis; rank of each position, bins
        for k, e in enumerate(entries):
            if e.size == 1:
                self.group.append(None)
                self.gaps.append(e.reshape(-1)[0] - rival[k])
                continue
            varies = np.flatnonzero(np.array((1,) * (len(shape) - e.ndim) + e.shape) > 1)
            if len(varies) != 1:
                raise ValueError(f"the entry of chain {k} must vary along one axis, got shape {e.shape}")
            axis, flat = int(varies[0]), e.reshape(-1)
            if axis not in axes:
                distinct, rank = np.unique(flat, return_inverse=True)
                # +inf pads up to 2**j - 1 values for the search (none if there are
                # exactly that many), and always wins; rank len(distinct) wins no real gap
                padded = np.full((1 << len(distinct).bit_length()) - 1, np.inf)
                padded[:len(distinct)] = distinct
                axes[axis] = flat, padded, len(self.ranks)
                self.ranks.append(rank.reshape([-1 if a == axis else 1 for a in range(len(shape))]))
                self.sizes.append(len(distinct) + 1)
            first, padded, g = axes[axis]
            if not np.array_equal(flat, first):
                raise ValueError(f"entries along axis {axis} must hold the same values")
            self.group.append(g)
            self.gaps.append(padded - rival[k])
        self.keys = [(_WIN, tuple(range(n))), (_LOSE, tuple(range(n)))]
        self.keys += [(_WIN, (k,) if k == l else (k, l)) for k in range(n) for l in range(k, n)]
        self.hists = [0] * len(self.keys)

    def add(self, race: _Race) -> None:
        won, first = {}, {}
        for k, gap in enumerate(self.gaps):
            if self.group[k] is None:
                won[k] = race.wins(k, gap)
            else:
                first[k] = race.thresholds(k, gap)
        for i, (side, chains) in enumerate(self.keys):
            mask, dims = None, {}
            for k in chains:
                if k in won:
                    w = won[k] if side == _WIN else ~won[k]
                    mask = w if mask is None else mask & w
                else:
                    g, t = self.group[k], first[k]
                    dims[g] = t if g not in dims else (np.maximum if side == _WIN else np.minimum)(dims[g], t)
            self.hists[i] += self._histogram(dims, mask)

    def _histogram(self, dims: dict, mask):
        """Trials the mask allows, binned by the groups' thresholds."""
        if not dims:  # every chain is scalar
            return np.count_nonzero(mask)
        sizes = [self.sizes[g] for g in sorted(dims)]
        index = None
        for g in sorted(dims):
            index = dims[g] if index is None else index * self.sizes[g] + dims[g]
        if mask is not None:
            index = index[mask]
        return np.bincount(index, minlength=math.prod(sizes)).reshape(sizes)

    def counts(self) -> np.ndarray:
        """Every key's count at every profile, shape ``(len(keys), P)``."""
        out = np.empty((len(self.keys), math.prod(self.shape)), dtype=np.int64)
        for row, (side, chains), hist in zip(out, self.keys, self.hists):
            groups = sorted({self.group[k] for k in chains} - {None})
            hist = np.asarray(hist, dtype=np.int64)
            for axis in range(hist.ndim):
                if side == _WIN:  # trials whose thresholds are at or below the ranks
                    hist = np.cumsum(hist, axis=axis)
                else:  # trials whose thresholds are above them
                    hist = np.flip(np.cumsum(np.flip(hist, axis), axis=axis), axis)
            at = tuple(self.ranks[g] + side for g in groups)
            row[:] = np.broadcast_to(hist[at], self.shape).reshape(-1)
        return out


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
    captures, joint = _tally([tuple(own)], rival, spec.noise, trials, spec.seed)
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
    capture, expected_cost = _fold(_chain_terms(own, rival, market, cost, noise))
    # capture is a fresh float or full-shape array, so update it in place
    # rather than hold a third profile-sized array
    capture *= market.v
    capture -= expected_cost
    return capture


def _chain_terms(own, rival, market: MarketConfig, cost: CostModel, noise: NoiseModel):
    """Per chain, trader 1's win probability and its expected cost on the chain."""
    for mine, theirs in zip(own, rival):
        win = noise.cdf(mine - theirs)
        yield win, cost.cost(mine) * (win + market.alpha * (1.0 - win))


def _fold(terms):
    """The capture probability and the expected cost over the chains of ``terms``."""
    capture, expected_cost = 1.0, 0.0
    for win, spent in terms:
        capture = capture * win
        expected_cost = expected_cost + spent
    return capture, expected_cost


def _mesh_best(axes, candidate: float, market: MarketConfig, cost: CostModel, noise: NoiseModel):
    """The first maximum in C order of the analytic payoff over a product
    family (chain ``k``'s entry varies along axis ``k``) and its flat index.

    The capture and cost over chains ``0..n-2`` are formed once, as
    :func:`analytic_expected_payoff` forms them, and the last chain's axis
    is scored in blocks of whole rows of at least ``_BLOCK`` profiles, so
    every score has its bits and no array the size of the mesh is built.
    """
    terms = list(_chain_terms(axes, (candidate,) * len(axes), market, cost, noise))
    capture, expected_cost = (np.reshape(x, (-1, 1)) for x in _fold(terms[:-1]))
    win, spent = (np.reshape(x, -1) for x in terms[-1])
    rows = -(-_BLOCK // win.size)
    tops = []
    for start in range(0, len(capture), rows):
        block = capture[start:start + rows] * win
        block *= market.v
        block -= expected_cost[start:start + rows] + spent
        value, i = _first_max(block)
        tops.append((value, start * win.size + i))
    # the first block that holds the first maximum, as np.argmax over the whole mesh finds it
    return tops[_first_max(np.array([value for value, _ in tops]))[1]]


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


def _first_max(scores: np.ndarray):
    """The first maximum of ``scores`` in C order, and its flat index."""
    i = int(np.argmax(scores))
    return float(np.ravel(scores)[i]), i


@dataclass(frozen=True)
class BestResponseCheck:
    """Outcome of a unilateral-deviation scan against a fixed rival."""

    baseline_payoff: float
    max_gain: float
    argmax_deviation: tuple[float, ...]
    epsilon: float
    is_epsilon_equilibrium: bool
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
    at once. Monte Carlo mode counts the baseline and every profile of both
    families against the same draws of each chunk (common random numbers),
    so each score equals ``simulate`` at that profile and the gain
    comparison is paired. Within a family the first maximum wins, and the
    product grid replaces the equal family's best only when strictly better.
    A positive best gain means the candidate is not a best response; it is
    reported, never suppressed. A default product grid past the mode's
    :data:`_MAX_PROFILES` is a :class:`ConfigError`, raised before the scan
    allocates; a ``deviation_grid`` of the caller's own sets its own size.
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
        # probe in Monte Carlo mode, whose scores carry sampling error
        if mode == "analytic":
            axis_points = {2: 61, 3: 31}.get(n, 11)
        else:
            axis_points = {2: 9}.get(n, 5)
        axis = default_deviation_grid(cand, cost, points=axis_points) if deviation_grid is None else grid
        # the bound is sized on the default axes; a grid of the caller's own sets its own size
        if deviation_grid is None and (count := axis.size**n) > _MAX_PROFILES[mode]:
            raise ConfigError(f"the {mode} deviation scan at chains={n} has {count:,} product-grid profiles, "
                              f"beyond the {_MAX_PROFILES[mode]:,} it allows")
        families.append(tuple(axis.reshape([-1 if k == j else 1 for j in range(n)]) for k in range(n)))
    profiles = [np.broadcast_arrays(*own) for own in families]
    if mode == "analytic":
        baseline = float(analytic_expected_payoff((families[0], cand), market, cost, noise))
        bests = [_first_max(analytic_expected_payoff((families[1], cand), market, cost, noise))]
        if n >= 2:
            bests.append(_mesh_best(families[2], cand, market, cost, noise))
    else:
        # checks trials, seed and the candidate as a one-profile run would;
        # cost.cost rejects any deviation outside the cost's domain
        SimulationSpec((cand, cand), market, cost, noise, trials=trials, seed=seed)
        flat = np.concatenate([np.reshape(family, (n, -1)) for family in profiles], axis=1)
        captures, joint = _tally(families, np.full(n, cand), noise, trials, seed)
        means, halfwidths = _payoff_statistics(trials, market, cost.cost(flat), captures[0], joint)
        offsets = np.cumsum([family[0].size for family in profiles])
        baseline, *scores = np.split(means, offsets[:-1])
        baseline, bests = float(baseline[0]), [_first_max(score) for score in scores]

    best_family = 2 if len(bests) > 1 and bests[1][0] > bests[0][0] else 1
    best_payoff, best_index = bests[best_family - 1]
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
