"""Stochastic oracle for the arbitrage race.

Simulates the per-chain timestamp races trial by trial, keeps exact integer
counts of captures and chain wins, derives win probabilities, expected
payoffs and their confidence half-widths from those counts, and certifies
(or refutes) best-response properties of computed equilibria by scanning
unilateral deviations against common random numbers. Nothing here reuses
the solvers' algebra beyond the cost function itself, so the estimates are
an independent check on the closed forms.

Both checks, closed-form and Monte Carlo, fill one payoff table of the
level family (one value on the first chains, 0 on the rest): under
log-concave noise a best response's interior coordinates share one level,
so ``chains * grid`` profiles stand in for the ``grid ** chains`` of a
product mesh. Its values are the sorted grid with 0 and the candidate always
among them, so the baseline, the candidate on every chain, is read off it.
Both accumulate the rows down the chain axis, adding and multiplying in the
order of a fold over one profile's chains, not folding each row anew.

A race is monotone in trader 1's signal, so the Monte Carlo scan does not
race each deviation profile: per (trial, chain) it finds the first value
that wins, once for every level row, and every profile's counts come from
histograms of those thresholds. The scan races one rival, the candidate on
every chain, so all chains share one array pass per chunk: a bucket index over
the sorted gaps to the rival guesses each threshold from the race's ``b - a``,
two exact races confirm the guesses, and the few trials they leave open are
binary-searched together. A scan costs O(trials * chains) races plus
O(chains**2) histogram entries per trial, not O(profiles * trials), and its
counts are those of the per-profile race.

A simulation races each chain at one signal gap, and the sign of
``(gap + a) - b`` is all it needs, so it rarely computes the noise: the top
byte of each noise word bounds its noise, a table per gap says which pairs
of bytes win or lose whatever the exact draws, and only the races it leaves
open (about 1% of them) are transformed and raced exactly. Rounded addition
is monotone, so the tables decide exactly as the exact test would.

Both tallies count, per group of chains at one cost (a scan's level row at a
value, or a simulation's chains at one pair of signals), the wins and the sum
over trials of the product of two groups' numbers of chains won, which with the
captures is all the statistics need: O(chains * grid) or O(groups**2) counts.
A simulation costs O(trials * chains) plus a groups x groups product per chunk.

Determinism contract: the uniform driving trial ``t``, chain ``k``, slot
``j`` is word ``(t*n + k)*3 + j`` of the counter-based stream keyed by the
seed (slots 0 and 1 feed the two traders' noise, slot 2 breaks ties), so an
identical spec yields bit-identical statistics no matter how trials are
chunked or scheduled: the counts are integers, and the statistics are
computed from the final counts only. Noise is drawn per trader so that the
per-chain races of the separate game are genuinely independent; the
per-trader laws are chosen so the within-chain difference has exactly the
configured law (the uniform family has no such decomposition: trader 1 draws
the whole difference and trader 2's noise is 0, see ``NoiseModel.race_noise``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .cost import CostModel
from .equilibrium import EquilibriumResult, MarketConfig
from .errors import ConfigError, DomainError, _real
from .noise import NoiseModel
from .rng import raw_words, to_uniform

_SLOTS = 3  # per (trial, chain): trader 1 noise, trader 2 noise, tie-break
_CHUNK_TRIALS = 1 << 16
_CHUNK_WORDS = 3 * _SLOTS * (1 << 16)  # the words of a full chunk of 3 chains: the most a chunk draws
MAX_CHAINS = _CHUNK_WORDS // _SLOTS  # the chains whose one trial fills a chunk
_K = 8  # a word's top _K bits are its bin in the decision tables: one byte
_Z95 = 1.96
_BUCKETS = 1 << 14  # equal-width buckets of a gap index: most keys share theirs with no gap


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
        if isinstance(trader, (tuple, list)) or not isinstance(trader, (int, float)) and np.ndim(trader) > 0:
            row = tuple(trader)
            if len(row) != n_chains:
                raise ConfigError(f"expected {n_chains} per-chain signals, got {len(row)}")
        else:
            row = (trader,) * n_chains
        out.append(row)
    return out[0], out[1]


def check_draws(trials, seed) -> None:
    """Refuse a trial count or a seed that no simulation can draw, each an int by ``errors._real``, with no NumPy."""
    if not (_real(trials, int) and trials >= 1):
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    if not (_real(seed, int) and 0 <= seed < 2**64):
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


@dataclass(frozen=True)
class SimulationSpec:
    """One reproducible simulation: who plays what, where, and for how long. At most :data:`MAX_CHAINS` chains,
    refused before the signals are spread per chain: a chunk draws at least one trial, past them too many words."""

    signals: tuple
    market: MarketConfig
    cost: CostModel
    noise: NoiseModel
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_draws(self.trials, self.seed)
        if self.market.n_chains > MAX_CHAINS:
            raise ConfigError(f"a simulation races at most {MAX_CHAINS} chains, got {self.market.n_chains}")
        rows = _per_chain_signals(self.signals, self.market.n_chains)
        object.__setattr__(self, "signals", tuple(tuple(float(s) for s in row) for row in rows))
        for s in self.signals[0] + self.signals[1]:
            if not self.cost.cost(s) < math.inf:  # cost raises DomainError outside the admissible range
                raise DomainError(f"signal {s!r} has a cost beyond float range")
        # each law is monotone in its uniform, so the least and greatest uniforms bound
        # every draw; an infinite one would race inf against -inf
        with np.errstate(over="ignore"):
            draws = self.noise.race_noise(np.array([[2.0**-54, 1.0 - 2.0**-53]] * 2))
        if not np.isfinite(draws).all():
            raise ConfigError(f"{self.noise.spec} noise is too wide to sample: its draws overflow float range")


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


def _probability_halfwidth(count: int, trials: int) -> float:
    """The 95% half-width of a probability seen ``count`` times in ``trials``.

    A count of 0 or ``trials`` leaves no spread to sample: its half-width is
    the distance from that edge to the far end of Wilson's score interval,
    as the payoff's is.
    """
    if count in (0, trials):
        return _Z95**2 / (trials + _Z95**2)
    p = count / trials
    return _Z95 * math.sqrt(p * (1.0 - p) / trials)


def _chunk_trials(n: int) -> int:
    """Trials per chunk at ``n`` chains: many chains draw fewer trials at once, and at most :data:`MAX_CHAINS` one."""
    return min(_CHUNK_TRIALS, _CHUNK_WORDS // (_SLOTS * n))


def _chunk_words(seed: int, start: int, m: int, n: int) -> np.ndarray:
    """The words of trials ``[start, start + m)``, shaped ``(m, n, _SLOTS)``."""
    return raw_words(seed, start * _SLOTS * n, m * _SLOTS * n).reshape(m, n, _SLOTS)


def _table_tally(own: np.ndarray, rival: np.ndarray, noise: NoiseModel, trials: int, seed: int):
    """Exact race counts of one profile ``own`` against ``rival``, ``n`` signals each.

    A decision table per distinct gap settles most races from their words' top
    bytes, and the rest are raced exactly: the counts are those of racing every draw.

    Returns ``captures``, the trials in which trader 1, resp. trader 2, won
    every chain; trader 1's ``wins`` per chain; per chain its ``group``, the
    chains at one (own, rival) pair being one group, numbered in order of first
    use; and ``co_wins``, per pair of groups the sum over trials of the product
    of their numbers of chains won.
    """
    n, numbers = len(rival), {}
    group = np.array([numbers.setdefault(pair, len(numbers)) for pair in zip(own.tolist(), rival.tolist())])
    gaps = [float(gap) for gap in own - rival]
    bounds = _bin_bounds(noise)
    tables = {gap: _decision_table(gap, bounds) for gap in set(gaps)}
    counts = np.zeros(2, np.int64), np.zeros(n, np.int64), np.zeros((len(numbers),) * 2, np.int64)
    chunk = _chunk_trials(n)
    for start in range(0, trials, chunk):
        _table_chunk(counts, gaps, group, tables, noise, seed, start, min(chunk, trials - start))
    return (*counts, group)


def _table_chunk(counts, gaps, group, tables: dict, noise: NoiseModel, seed: int, start: int, m: int) -> None:
    """Add the counts of trials ``[start, start + m)``, a chain's words
    transformed only in the races its table leaves open. A function of its
    own so the chunk's words are freed before the next chunk draws its own."""
    (captures, wins, co_wins), n = counts, len(gaps)
    words = _chunk_words(seed, start, m, n)
    # each word's top byte, so slot 0's and slot 1's of one race are
    # adjacent and read as one little-endian 16-bit index
    top = words.astype("<u8", copy=False).reshape(-1).view(np.uint8)[7::8].copy()
    won = np.zeros((len(co_wins), m), dtype=np.min_scalar_type(n))  # per group and trial, the chains won
    for k, gap in enumerate(gaps):
        pairs = np.ndarray((m,), dtype="<u2", buffer=top, offset=_SLOTS * k, strides=(_SLOTS * n,))
        mine = np.take(tables[gap], pairs)
        open_ = np.flatnonzero(mine == _OPEN)
        if open_.size:
            mine[open_] = _Race.of(words[open_, k:k + 1], noise).wins(gap)[0]
        wins[k] += np.count_nonzero(mine)
        won[group[k]] += mine
    total = won.sum(axis=0, dtype=won.dtype)
    captures += np.count_nonzero(total == n), np.count_nonzero(total == 0)
    won = won.astype(float)  # a float product is exact: every sum stays below 2**53
    co_wins += (won @ won.T).astype(np.int64)


def _level_tally(values: np.ndarray, rival: float, n: int, noise: NoiseModel, trials: int, seed: int):
    """Exact race counts of trader 1's level rows against ``rival`` on each of ``n`` chains.

    Row ``j`` (``1 <= j <= n``) puts one of the sorted distinct ``values``,
    which hold 0, on chains ``0..j-1`` and 0 on the rest. A race is monotone
    in trader 1's signal, so per chunk one pass over every chain finds, per
    trial and chain, the index of the first value that wins, from one
    :class:`_GapIndex` of the gaps to the rival, built once. Row ``j`` at
    value index ``i`` wins chain ``k < j``
    when the chain's threshold ``t_k`` is at most ``i``, and a chain held at
    0 when its threshold is at most 0's index. So it captures when
    ``max(t_0, ..., t_{j-1})`` is at most ``i`` and every chain from ``j`` on
    won at 0, and the square of its number of chains won is the number of
    pairs ``k, l < j`` with ``max(t_k, t_l)`` at most ``i``: chain ``k`` adds
    a one at ``t_k`` and a two at ``max(t_l, t_k)`` for each ``l < k``.
    Histograms of these indices, summed over the chunks, give every count;
    they are exactly those of racing each profile.

    Returns four ``(n, len(values))`` arrays, row ``j - 1`` being row ``j``:
    ``captures``; ``wins``, whose row ``k`` holds chain ``k``'s wins, the
    same in every row that holds the chain at the value; ``s1``, the wins
    summed over the row's value chains; and ``s2``, the sum over trials of
    the squared number of chains won, which is the sum of the row's win
    co-counts over its pairs of value chains.
    """
    size, index = len(values), _GapIndex(values - rival)
    # per row: captures, its last chain's wins, and its last chain's pairs with the earlier ones
    hists = np.zeros((3, n, size + 1), dtype=np.int64)
    zero = int(np.searchsorted(values, 0.0))
    chunk = _chunk_trials(n)
    for start in range(0, trials, chunk):
        _level_chunk(hists, index, zero, noise, seed, start, min(chunk, trials - start))
    captures, wins, pairs = np.cumsum(hists, axis=2)[:, :, :size]
    return captures, wins, np.cumsum(wins, axis=0), np.cumsum(wins + 2 * pairs, axis=0)


def _level_chunk(hists: np.ndarray, index: _GapIndex, zero: int, noise: NoiseModel, seed: int, start: int,
                 m: int) -> None:
    """Add the histograms of trials ``[start, start + m)`` to ``hists``, every
    chain searched in one pass. A function of its own so the chunk's draws
    are freed before the next chunk draws its own."""
    n, size = hists.shape[1:]
    thresholds = _Race.of(_chunk_words(seed, start, m, n), noise).thresholds(index)
    lost = np.zeros((n, m), dtype=bool)  # lost[j]: whether a chain after j lost at 0
    for k in range(n - 1, 0, -1):  # row by row: numpy's accumulate along this axis is many times slower
        np.logical_or(lost[k], thresholds[k] > zero, out=lost[k - 1])
    captured, wins, pairs = hists
    for j, first in enumerate(thresholds):
        highest = np.maximum(highest, first) if j else first
        wins[j] += np.bincount(first, minlength=size)
        # a trial that lost a chain held at 0 captures at no value: the dropped last bin; no chain follows the last row
        reached = np.bincount(highest if j == n - 1 else np.where(lost[j], size - 1, highest), minlength=size)
        captured[j] += reached
        if j:  # at two chains, row 1's pairs max(t_0, t_1) are its highest thresholds, counted above
            pairs[j] += reached if n == 2 else np.bincount(np.maximum(thresholds[:j], first).ravel(), minlength=size)


class _GapIndex:
    """The sorted gaps ``values - signal`` to one rival signal, bucketed.

    Trader 1 wins about where the gap exceeds the race's key ``b - a``, so
    the first winning gap is about ``first[b]``, the number of gaps below
    the key's bucket ``b``: ``_BUCKETS`` equal widths from the first gap to
    the last, which opens bucket ``_BUCKETS``; keys a width past it fall in
    ``_BUCKETS + 1``. ``at[t]`` is gap ``t`` and ``below[t]`` gap ``t - 1``,
    with ``-inf`` and ``+inf`` past the ends; ``padded`` pads the gaps with
    ``+inf`` to ``2**j - 1`` entries for :meth:`_Race.search`.
    """

    def __init__(self, gaps: np.ndarray):
        lo, hi = np.nan_to_num(gaps[[0, -1]])  # an infinite gap bounds no bucket
        with np.errstate(over="ignore", divide="ignore"):
            scale = _BUCKETS / 2 / (0.5 * hi - 0.5 * lo)  # halved: a span past float range stays finite
        # a one-value axis has no width to split, and any finite scale buckets it
        self.scale = float(scale) if np.isfinite(scale) else 1.0
        self.shift = float(lo) * self.scale
        # first is i from the bucket after gap i - 1's to gap i's, made as the one index-sized array:
        # a bincount and cumsum left a hole under it that no chunk's words fit, and each verify
        # then faulted their pages in anew
        edges = np.concatenate(([0], self.bucket(gaps.copy()) + 1, [_BUCKETS + 2]))
        self.first = np.repeat(np.arange(len(gaps) + 1), np.diff(edges))
        size = len(gaps)
        ext = np.full((1 << size.bit_length()) + 1, np.inf)
        ext[0], ext[1:size + 1] = -np.inf, gaps
        self.below, self.at, self.padded = ext[:-1], ext[1:], ext[1:-1]

    def bucket(self, keys: np.ndarray) -> np.ndarray:
        """Each key's bucket, overwriting ``keys``. The scale and shift are
        finite, so no key makes a NaN or an index out of range."""
        with np.errstate(over="ignore"):
            keys *= self.scale
        keys -= self.shift
        np.minimum(keys, _BUCKETS + 1.0, out=keys)
        np.maximum(keys, 0.0, out=keys)
        return keys.astype(np.intp)


class _Race:
    """Exact draws of one chunk's races, per chain and trial: the win test at any gap."""

    def __init__(self, mine, theirs, heads):
        self.mine, self.theirs, self.heads = mine, theirs, heads

    @classmethod
    def of(cls, words: np.ndarray, noise: NoiseModel) -> _Race:
        """The race of ``words`` shaped ``(trials, chains, _SLOTS)``.

        One gather lays the noise slots' words out in rows, per chain and
        contiguous over trials, and only those become uniforms (only trader
        1's under the uniform law, whose ``race_noise`` never reads trader
        2's). The coin is heads when the tie-break word is below ``2**63``:
        exactly when its uniform is below 1/2.
        """
        slots = 1 if noise.family == "uniform" else 2
        draws = to_uniform(np.ascontiguousarray(words[:, :, :slots].transpose(2, 1, 0)))
        heads = np.less(words[:, :, -1].T, np.uint64(1 << 63), order="C")
        # the words go before the noise is drawn and the draws once it is: a chunk that holds
        # them peaks past the allocator's trim point, and every chunk faults them in anew
        del words
        mine, theirs = noise.race_noise(draws)
        del draws
        return cls(mine, theirs, heads)

    def wins(self, gap) -> np.ndarray:
        """Whether trader 1 wins each race at ``gap`` (own minus rival signal,
        a scalar or one per race): the sign of ``(gap + a) - b``, which is
        ``gap + a > b``, and on a tie the coin."""
        x, b = gap + self.mine, self.theirs
        won, tie = x > b, x == b
        if tie.any():
            won[tie] = self.heads[tie]
        return won

    def thresholds(self, index: _GapIndex) -> np.ndarray:
        """Per race, the index of the first of ``index``'s gaps that wins (the
        number of gaps if none does), in one pass over the races.

        ``gap + a`` rounds monotonically, so the race is monotone in the gap:
        where gap ``t``, the guess of the key's bucket, wins and gap ``t - 1``
        loses, ``t`` is the threshold exactly. The few trials left (a gap
        shares the bucket, or rounding moved the win) go to one :meth:`search`.
        """
        t = index.first[index.bucket(self.theirs - self.mine)]  # the key is freed before the races
        won, lower = self.wins(index.at[t]), self.wins(index.below[t])
        open_ = np.flatnonzero(won == lower)  # the race is monotone: where gap t - 1 wins, gap t wins too
        if open_.size:
            race = _Race(*(rows.reshape(-1)[open_] for rows in (self.mine, self.theirs, self.heads)))
            t.reshape(-1)[open_] = race.search(index.padded)
        return t

    def search(self, gaps: np.ndarray) -> np.ndarray:
        """Per race, the index of the first of the non-decreasing ``gaps``
        that wins, by a lockstep binary search that runs each race
        ``log2(len(gaps) + 1)`` times; ``gaps`` holds ``2**j - 1`` entries,
        the real ones padded with ``+inf``, which always wins (an axis of
        exactly ``2**j - 1`` values gets no pad): a race that no real gap
        wins ends at the number of real gaps.
        """
        lost, step = np.zeros(self.mine.shape, dtype=np.intp), (len(gaps) + 1) // 2
        while step:
            lost += step * ~self.wins(gaps[lost + (step - 1)])
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
    for subnormal results.
    """
    first = np.arange(1 << _K, dtype=np.uint64) << np.uint64(64 - _K)
    ends = to_uniform(np.stack([first, first | np.uint64((1 << (64 - _K)) - 1)]))
    ends = np.stack(noise.race_noise(np.stack([ends, ends])))  # trader, bin end, bin
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    with np.errstate(invalid="ignore"):  # an infinite end leaves the bin open
        lo = np.nextafter(lo - (1e-9 * np.abs(lo) + 1e-12 * noise.param), -np.inf)
        hi = np.nextafter(hi + (1e-9 * np.abs(hi) + 1e-12 * noise.param), np.inf)
    return lo[0], hi[0], lo[1], hi[1]


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


def _spent(costs, wins, trials: int, alpha: float) -> np.ndarray:
    """Per chain ``k``, the cost of chains ``0..k`` over the trials, added in chain order."""
    return np.cumsum(costs * (wins + alpha * (trials - wins)), axis=0)


def _payoff_statistics(trials: int, market: MarketConfig, captures, spent, groups, co_wins):
    """Mean payoffs and their 95% half-widths, from exact counts.

    ``captures`` holds the capture counts, ``spent`` the cost summed over the
    chains and trials (see :func:`_spent`), and ``groups`` per group of chains
    at one cost (see the module docstring) that cost, the number of chains and
    their summed wins; ``co_wins[g][h]`` sums the trials won on a chain of
    group ``g`` and one of group ``h`` over their pairs of chains. Trailing
    axes index profiles or traders, the same ones in every group's entries. A
    trial pays ``v*capture - sum_k costs[k]*(alpha + (1 - alpha)*win_k)``, so
    the sample mean and variance are functions of these counts; a chain that
    costs nothing needs no group. The variance is a quadratic form in the
    integer co-moments ``T*N_xy - N_x*N_y`` of the indicators, one per pair of
    groups with the counts summed over their chains, rather than
    ``sum(x**2) - T*mean**2``, which cancels to nothing when payoffs are large
    next to their spread.
    """
    v, alpha = market.v, market.alpha
    mean = (v * captures - spent) / trials
    if trials == 1:
        return mean, np.full(mean.shape, math.inf)

    # every product of counts is below (T*n)**2: int64 holds it exactly up to about 3e9 trial-chains,
    # and Python integers beyond
    kind = np.int64 if (trials * market.n_chains) ** 2 < 2**63 else object
    costs, sizes, won = map(np.array, zip(*groups))
    caps, sizes, won, co = (np.asarray(counts, dtype=kind) for counts in (captures, sizes, won, co_wins))
    slopes = (1.0 - alpha) * costs  # payoff lost per chain won, beyond alpha*cost
    moment = v * v * (caps * (trials - caps)).astype(float)
    # a capture wins every chain, so it co-occurs with each of the group's wins
    lone = -2.0 * v * slopes * (caps * (sizes * trials - won)).astype(float)
    pairs = slopes[:, None] * slopes * (trials * co - won[:, None] * won).astype(float)
    steps = np.concatenate([lone[:, None], pairs], axis=1)  # per group its capture term, then its pair terms
    # accumulate adds in order, rounding as one addition at a time, as a loop over the steps would
    moment = np.cumsum(np.concatenate([moment[None], *steps]), axis=0)[-1]
    variance = np.maximum(moment, 0.0) / (trials * (trials - 1.0))
    halfwidth = _Z95 * np.sqrt(variance / trials)
    # a capture seen in no trial or in every one leaves no spread to sample, however
    # likely the other outcome: floor the half-width at v times the distance from that
    # edge to the far end of Wilson's (1927) score interval
    edge = (captures == 0) | (captures == trials)
    return mean, np.where(edge, np.maximum(halfwidth, v * _Z95**2 / (trials + _Z95**2)), halfwidth)


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
    captures, wins, co_wins, group = _table_tally(own, rival, spec.noise, trials, spec.seed)
    costs = spec.cost.cost(np.stack([own, rival], axis=-1))
    first, size = np.unique(group, return_index=True, return_counts=True)[1:]
    # a trailing axis holds the traders; trader 2 wins a chain exactly when trader 1 loses it,
    # so size - w of a group's chains in a trial where trader 1 wins w of them
    won = np.bincount(group, wins).astype(np.int64)  # exact while trials * chains < 2**53
    lost = trials * size - won
    co = np.stack([co_wins, co_wins + np.outer(size, lost) - np.outer(won, size)], axis=-1)
    groups = zip(costs[first], size[:, None], np.stack([won, lost], axis=-1))
    spent = _spent(costs, np.stack([wins, trials - wins], axis=-1), trials, market.alpha)[-1]
    mean, halfwidth = _payoff_statistics(trials, market, captures, spent, list(groups), co)

    capture_counts = tuple(int(c) for c in captures)
    return SimulationStats(
        trials=trials,
        capture_counts=capture_counts,
        per_chain_win_counts=(tuple(int(w) for w in wins), tuple(trials - int(w) for w in wins)),
        capture_probability=tuple(c / trials for c in capture_counts),
        capture_ci_halfwidth=tuple(_probability_halfwidth(c, trials) for c in capture_counts),
        mean_payoff=tuple(mean.tolist()),
        payoff_ci_halfwidth=tuple(halfwidth.tolist()),
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
    for win, spent in _chain_terms(own, rival, market, cost, noise):
        capture = capture * win
        expected_cost = expected_cost + spent
        del win, spent  # before the next chain's terms are formed
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


def _level_scores(values: np.ndarray, candidate: float, market: MarketConfig, cost: CostModel, noise: NoiseModel):
    """Analytic payoffs against a rival at ``candidate``, laid out as
    :func:`_level_tally`'s counts: row ``j - 1``, column ``i`` puts
    ``values[i]`` on chains ``0..j-1`` and 0 on the rest. The rows accumulate
    down the chain axis in the order :func:`analytic_expected_payoff` folds a
    profile's chains, so each score has its bits; a chain at 0 costs exactly 0."""
    n = market.n_chains
    (win, spent), (win_zero, _) = _chain_terms((values, 0.0), (candidate, candidate), market, cost, noise)
    capture = np.cumprod(win[None].repeat(n, axis=0), axis=0)
    for k in range(1, n):  # row j - 1 has n - j chains at 0
        capture[:n - k] *= win_zero
    capture *= market.v
    capture -= np.cumsum(spent[None].repeat(n, axis=0), axis=0)
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
    near_zero = np.geomspace(max(hi * 1e-8, math.ulp(0.0)), hi, quarter)  # the least float where hi*1e-8 underflows
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

    Both modes fill one table of level rows, laid out as :func:`_level_tally`
    lays out its counts, over the sorted deviation grid, a caller's own
    included, with the candidate and 0 always scored: under log-concave
    noise, as every law here is, a best response's interior coordinates
    share one level (Bagnoli & Bergstrom 2005). The baseline is the table's
    all-chain row at the candidate, so the best gain is never below 0, and
    ties go to the all-chain row and then to the least value. Analytic mode
    scores the rows with :func:`_level_scores`. Monte Carlo mode scores them
    against the same draws of each chunk (common random numbers), so each
    score and its half-width equal ``simulate``'s at that profile. Its epsilon
    is the unpaired 95% half-width of the gain, from the best row's and the
    baseline's. A profile whose capture no trial saw, or every trial
    did, has a half-width of at least ``v`` times the far end of Wilson's
    score interval, so epsilon is never 0. A positive best gain beyond
    epsilon means the candidate is not a best response; it is reported,
    never suppressed.
    """
    if mode not in ("analytic", "montecarlo"):
        raise ConfigError(f"mode must be 'analytic' or 'montecarlo', got {mode!r}")
    cand = float(candidate.signal) if isinstance(candidate, EquilibriumResult) else float(candidate)
    n = market.n_chains
    grid = default_deviation_grid(cand, cost) if deviation_grid is None else np.asarray(deviation_grid, dtype=float)
    # the candidate is the baseline and 0 the signal of the chains a row leaves out: both are scored
    values = np.unique(np.append(grid, (cand, 0.0)))

    if mode == "analytic":
        scores = _level_scores(values, cand, market, cost, noise)
    else:
        # checks trials, seed, the noise and the candidate as a one-profile run
        # would; cost.cost rejects any deviation outside the cost's domain
        SimulationSpec((cand, cand), market, cost, noise, trials=trials, seed=seed)
        costs = cost.cost(values)
        captures, wins, s1, s2 = _level_tally(values, cand, n, noise, trials, seed)
        rows = np.arange(1, n + 1).reshape(-1, 1)  # per row, the chains at the value; the rest cost 0
        spent = _spent(costs, wins, trials, market.alpha)  # row j - 1 sums chains 0..j-1
        scores, halfwidths = _payoff_statistics(trials, market, captures, spent, [(costs, rows, s1)], [[s2]])

    # the first maximum from the all-chain row up, and in a row the least value
    zeros, i = divmod(int(np.argmax(scores[::-1])), values.size)
    best, base = (n - 1 - zeros, i), (n - 1, int(np.searchsorted(values, cand)))
    best_profile = (float(values[i]),) * (n - zeros) + (0.0,) * zeros
    # Monte Carlo: the unpaired half-width of the gain, from both its terms' sampling errors
    epsilon = 1e-3 * market.v if mode == "analytic" else math.hypot(halfwidths[best], halfwidths[base])

    baseline = float(scores[base])
    max_gain = float(scores[best]) - baseline
    return BestResponseCheck(
        max_gain=max_gain,
        argmax_deviation=best_profile,
        is_epsilon_equilibrium=max_gain <= epsilon,
        epsilon=float(epsilon),
        baseline_payoff=baseline,
        mode=mode,
    )
