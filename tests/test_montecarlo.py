import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqlab.montecarlo as mc
from seqlab.cost import CostModel
from seqlab.equilibrium import MarketConfig, Regime, solve_equilibrium
from seqlab.errors import ConfigError, DomainError
from seqlab.montecarlo import (
    SimulationSpec,
    analytic_expected_payoff,
    default_deviation_grid,
    simulate,
    verify_best_response,
)
from seqlab.noise import NoiseModel
from seqlab.rng import to_uniform, uniform_stream

SIGMA_UNIT_F0 = 1.0 / math.sqrt(2.0 * math.pi)
UNIT_NOISE = NoiseModel("normal", SIGMA_UNIT_F0)
POWER_TWO = CostModel.power(2.0)


def _spec(signals, n=1, v=1.0, alpha=1.0, trials=10**5, seed=0, noise=UNIT_NOISE, cost=POWER_TWO):
    return SimulationSpec(signals, MarketConfig(v, n, alpha), cost, noise, trials=trials, seed=seed)


def _ci(p, trials):
    return 1.96 * math.sqrt(p * (1.0 - p) / trials)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_capture_probability(n):
    trials = 10**6
    stats = simulate(_spec((0.3, 0.3), n=n, trials=trials, seed=42))
    target = 0.5**n
    for trader in (0, 1):
        assert abs(stats.capture_probability[trader] - target) <= _ci(target, trials)
    assert sum(stats.capture_counts) <= trials


def test_shifted_signal_win_rate():
    trials = 10**6
    stats = simulate(_spec((1.0, 0.0), trials=trials, seed=3, noise=NoiseModel("normal", 1.0)))
    win_rate = stats.per_chain_win_counts[0][0] / trials
    assert abs(win_rate - 0.8413447) <= 0.0011


@pytest.mark.parametrize("noise", [NoiseModel("logistic", 0.7), NoiseModel("laplace", 1.3), NoiseModel("uniform", 2.0)])
def test_every_family_is_fair_at_equal_signals(noise):
    trials = 2 * 10**5
    stats = simulate(_spec((0.2, 0.2), n=2, trials=trials, seed=9, noise=noise))
    for trader in (0, 1):
        assert abs(stats.capture_probability[trader] - 0.25) <= _ci(0.25, trials)


def test_payoff_at_symmetric_equilibrium():
    stats = simulate(_spec((0.5, 0.5), trials=10**6, seed=7))
    assert abs(stats.mean_payoff[0] - 0.25) <= stats.payoff_ci_halfwidth[0]


def test_payoff_with_zero_signals_is_pure_capture_value():
    stats = simulate(_spec((0.0, 0.0), n=2, v=1.0, trials=10**5, seed=1))
    # no investment: the payoff is exactly v on capture and 0 otherwise
    assert stats.mean_payoff[0] == pytest.approx(stats.capture_probability[0], abs=1e-15)
    assert abs(stats.mean_payoff[0] - 0.25) <= stats.payoff_ci_halfwidth[0]


def test_payoff_with_full_refund():
    golden = 0.618034
    stats = simulate(_spec((golden, golden), alpha=0.0, trials=10**6, seed=13))
    expected = 0.5 * (1.0 - golden**2)  # win half the time, pay nothing on losses
    assert abs(stats.mean_payoff[0] - expected) <= stats.payoff_ci_halfwidth[0]
    assert expected == pytest.approx(0.309017, abs=1e-6)


def test_simulated_payoff_matches_analytic():
    stats = simulate(_spec((0.4, 0.2), n=2, alpha=0.5, trials=4 * 10**5, seed=21))
    (mean1, mean2), (hw1, hw2) = stats.mean_payoff, stats.payoff_ci_halfwidth
    market = MarketConfig(1.0, 2, 0.5)
    assert abs(mean1 - analytic_expected_payoff((0.4, 0.2), market, POWER_TWO, UNIT_NOISE)) <= hw1
    assert abs(mean2 - analytic_expected_payoff((0.2, 0.4), market, POWER_TWO, UNIT_NOISE)) <= hw2


def test_replay_is_bit_identical():
    spec = _spec((0.4, 0.3), n=2, trials=3 * 10**5, seed=11)
    first = simulate(spec)
    second = simulate(spec)
    assert first == second


def test_chunk_layout_does_not_change_results(monkeypatch):
    spec = _spec((0.4, 0.3), n=2, trials=2 * 10**5 + 17, seed=11)
    baseline = simulate(spec)
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    rechunked = simulate(spec)
    assert baseline == rechunked


def test_simulate_memory_does_not_grow_with_trials():
    peaks = []
    for trials in (10**5, 10**6):
        spec = _spec((0.4, 0.3), n=2, trials=trials, seed=3)
        tracemalloc.start()
        try:
            simulate(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_simulate_memory_does_not_grow_with_chains(monkeypatch):
    # a chunk draws at most the words of 2**16 trials of 3 chains, so 30 chains
    # draw about 6,500 trials at a time; the counts do not depend on it
    peaks = []
    for n in (3, 30):
        spec = _spec((0.4, 0.3), n=n, trials=70_000, seed=3)
        tracemalloc.start()
        try:
            stats = simulate(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    assert simulate(spec) == stats


@pytest.mark.parametrize("signal", [1e4, 3e4])
def test_payoff_halfwidth_does_not_cancel(signal):
    # each payoff is -signal**2 plus a 0/1 capture, so the spread is binomial
    # however large the cost; sum(x**2) - T*mean**2 lost it (0.0 at 1e4)
    trials = 200_000
    stats = simulate(_spec((signal, signal), trials=trials, noise=NoiseModel("normal", 1.0)))
    for trader in (0, 1):
        p = stats.capture_probability[trader]
        sample_variance = p * (1.0 - p) * trials / (trials - 1)
        assert stats.payoff_ci_halfwidth[trader] == pytest.approx(1.96 * math.sqrt(sample_variance / trials), rel=1e-9)


def test_per_chain_wins_are_independent():
    trials = 10**6
    stats = simulate(_spec((0.3, 0.3), n=2, trials=trials, seed=17))
    p1 = stats.per_chain_win_counts[0][0] / trials
    p2 = stats.per_chain_win_counts[0][1] / trials
    joint = stats.capture_probability[0]
    se = math.sqrt(joint * (1.0 - joint) / trials)
    assert abs(joint - p1 * p2) <= 3.0 * se


def test_win_rate_monotone_in_own_signal():
    trials = 2 * 10**5
    rates = []
    for s1 in (0.0, 0.25, 0.5, 0.75, 1.0):
        stats = simulate(_spec((s1, 0.5), trials=trials, seed=23))
        rates.append(stats.per_chain_win_counts[0][0] / trials)
    slack = 2.0 * _ci(0.5, trials)
    assert all(b >= a - slack for a, b in zip(rates, rates[1:]))


def test_spec_validation():
    with pytest.raises(ConfigError):
        _spec((0.5, 0.5), trials=0)
    with pytest.raises(ConfigError, match="^trials"):
        _spec((0.5, 0.5), trials=True)
    with pytest.raises(ConfigError, match="^seed"):
        _spec((0.5, 0.5), seed=False)
    with pytest.raises(ConfigError):
        SimulationSpec(((0.1, 0.2, 0.3), 0.5), MarketConfig(1.0, 2), POWER_TWO, UNIT_NOISE, trials=10)
    with pytest.raises(ConfigError):
        _spec((0.5, 0.5), seed=-1)
    with pytest.raises(DomainError):
        SimulationSpec((1.5, 0.5), MarketConfig(1.0, 1), CostModel.timeboost(0.25, 1.0), UNIT_NOISE, trials=10)


def test_analytic_payoff_at_symmetric_points():
    market = MarketConfig(1.0, 1)
    assert analytic_expected_payoff((0.5, 0.5), market, POWER_TWO, UNIT_NOISE) == pytest.approx(0.25, abs=1e-12)
    refund = MarketConfig(1.0, 2, 0.5)
    # capture a quarter of the time, pay (1 + alpha) * C at the symmetric point
    expected = 0.25 - 1.5 * 0.25**2
    assert analytic_expected_payoff((0.25, 0.25), refund, POWER_TWO, UNIT_NOISE) == pytest.approx(expected, abs=1e-12)


BROADCAST_NOISES = [NoiseModel("normal", 0.5), NoiseModel("logistic", 0.7), NoiseModel("laplace", 1.0),
                    NoiseModel("uniform", 2.0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("cost", [POWER_TWO, CostModel.timeboost(0.25, 1.0)], ids=lambda c: c.spec)
@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_broadcast_payoff_equals_scalar_calls(n, alpha, cost, noise):
    # an open mesh of per-chain axes of different lengths, never a (profiles, n) array
    market = MarketConfig(2.0, n, alpha)
    axes = [np.linspace(0.0, 0.9, 3 + k) for k in range(n)]
    mesh = tuple(axis.reshape([-1 if j == k else 1 for j in range(n)]) for k, axis in enumerate(axes))
    rival = tuple(0.2 + 0.1 * k for k in range(n))
    payoff = analytic_expected_payoff((mesh, rival), market, cost, noise)
    assert payoff.shape == tuple(len(axis) for axis in axes)
    for index in np.ndindex(payoff.shape):
        own = tuple(float(axes[k][i]) for k, i in enumerate(index))
        assert payoff[index] == analytic_expected_payoff((own, rival), market, cost, noise)


def test_default_deviation_grid_shape():
    grid = default_deviation_grid(0.5, POWER_TWO)
    assert len(grid) == 301
    assert grid[0] == 0.0
    assert 0.5 in grid
    assert grid[-1] == pytest.approx(2.5)  # 3 * candidate + 1
    assert np.all(np.diff(grid) >= 0.0)
    capped = default_deviation_grid(0.5, CostModel.timeboost(0.25, 1.0))
    assert capped[-1] <= 1.0


def test_best_response_holds_at_equilibrium():
    market = MarketConfig(1.0, 1)
    candidate = solve_equilibrium(market, POWER_TWO, UNIT_NOISE)
    check = verify_best_response(
        candidate, market, POWER_TWO, UNIT_NOISE, deviation_grid=np.arange(0.0, 1.5001, 0.01)
    )
    assert check.max_gain <= 1e-3
    assert check.is_epsilon_equilibrium


def test_best_response_two_chain_product_scan():
    market = MarketConfig(1.0, 2)
    candidate = solve_equilibrium(market, POWER_TWO, UNIT_NOISE)
    check = verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE)
    assert check.max_gain <= 1e-3
    assert len(check.argmax_deviation) == 2


def test_best_response_reports_profitable_deviation():
    # the stationarity candidate passes the payoff test yet loses to a joint
    # upward deviation; the scan must report the gain, not suppress it
    market = MarketConfig(4.0, 3)
    cost = CostModel.power(1.5)
    noise = NoiseModel("normal", 0.5)
    candidate = solve_equilibrium(market, cost, noise)
    assert candidate.regime is Regime.INTERIOR
    check = verify_best_response(candidate, market, cost, noise)
    assert check.max_gain > 1e-3 * market.v
    assert not check.is_epsilon_equilibrium


def test_best_response_grid_of_only_the_candidate():
    market = MarketConfig(1.0, 1)
    check = verify_best_response(0.5, market, POWER_TWO, UNIT_NOISE, deviation_grid=[0.5])
    assert check.max_gain == 0.0
    assert check.argmax_deviation == (0.5,)


@pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
@pytest.mark.parametrize("n", [1, 2])
def test_best_response_first_maximum_wins(n, mode):
    # with no refund, a deviation that surely loses every race costs nothing,
    # so 0.5, 0.0 and 0.8 all tie at payoff exactly 0; the first one listed wins
    market = MarketConfig(0.5, n, 0.0)
    check = verify_best_response(
        1.0, market, POWER_TWO, NoiseModel("uniform", 0.1),
        deviation_grid=[1.2, 0.5, 0.0, 0.5, 0.8], mode=mode, trials=200,
    )
    assert check.argmax_deviation == (0.5,) * n
    assert check.max_gain == -check.baseline_payoff > 0.0


@pytest.mark.parametrize(
    "n, points, cost, noise, alpha",
    [(2, 61, POWER_TWO, UNIT_NOISE, 1.0), (3, 31, CostModel.timeboost(0.3, 2.0), NoiseModel("logistic", 0.7), 0.4),
     (4, 11, CostModel.power(3.5), NoiseModel("laplace", 1.3), 1.0), (5, 11, POWER_TWO, NoiseModel("uniform", 0.2), 0.0),
     (3, 200, CostModel.power(1.2, cap=0.6), UNIT_NOISE, 0.7)],
)
def test_mesh_scan_in_blocks_equals_the_whole_mesh(n, points, cost, noise, alpha):
    # meshes of one block and of 2 to 10; every score keeps its bits, and ties (the uniform
    # law at alpha 0 scores many surely lost profiles at exactly 0) go to the first in C order
    market = MarketConfig(1.3, n, alpha)
    axis = default_deviation_grid(0.25, cost, points=points)
    family = tuple(axis.reshape([-1 if k == j else 1 for j in range(n)]) for k in range(n))
    whole = analytic_expected_payoff((family, 0.25), market, cost, noise)
    index = int(np.argmax(whole))
    value, at = mc._mesh_best(family, 0.25, market, cost, noise)
    assert (at, value.hex()) == (index, float(whole.flat[index]).hex())


def test_analytic_verify_peak_memory_is_a_fraction_of_the_mesh():
    # the 11**6-profile mesh is scored in blocks: well under the 16 B per profile of
    # the whole mesh's score and cost arrays
    market = MarketConfig(2.0, 6)
    candidate = solve_equilibrium(market, POWER_TWO, UNIT_NOISE).signal
    tracemalloc.start()
    try:
        verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 11**6


def test_explicit_grid_is_not_held_to_the_default_grids_bound():
    # the bound is sized on the default per-chain axes: 126 points of the caller's own at
    # n = 2 are 15,876 product-grid profiles, past the Monte Carlo bound, and still run
    grid = np.linspace(0.0, 1.0, 126)
    assert grid.size**2 > mc._MAX_PROFILES["montecarlo"]
    check = verify_best_response(0.25, MarketConfig(1.0, 2), POWER_TWO, UNIT_NOISE, deviation_grid=grid,
                                 mode="montecarlo", trials=200)
    assert check.mode == "montecarlo" and all(x in grid for x in check.argmax_deviation)


def test_best_response_empty_grid_rejected():
    with pytest.raises(ConfigError):
        verify_best_response(0.5, MarketConfig(1.0, 1), POWER_TWO, UNIT_NOISE, deviation_grid=[])


def test_best_response_montecarlo_mode():
    market = MarketConfig(1.0, 1)
    check = verify_best_response(
        0.5, market, POWER_TWO, UNIT_NOISE,
        deviation_grid=[0.0, 0.25, 0.5, 0.75], mode="montecarlo", trials=10**5, seed=2,
    )
    assert check.epsilon > 0.0
    assert check.max_gain <= check.epsilon
    assert check.is_epsilon_equilibrium


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_montecarlo_scan_scores_equal_simulate(n, alpha, noise, monkeypatch):
    # the scan races all its profiles against shared draws; each one raced
    # alone by simulate must give the very same mean payoff and half-width
    market = MarketConfig(1.0, n, alpha)
    seen = {}
    tally, reduce = mc._tally, mc._payoff_statistics

    def spy_tally(families, *args):
        seen["profiles"] = np.concatenate([np.reshape(np.broadcast_arrays(*f), (n, -1)) for f in families], axis=1)
        return tally(families, *args)

    def spy_reduce(*args):
        seen["means"], seen["halfwidths"] = out = reduce(*args)
        return out

    monkeypatch.setattr(mc, "_tally", spy_tally)
    monkeypatch.setattr(mc, "_payoff_statistics", spy_reduce)
    check = verify_best_response(0.4, market, POWER_TWO, noise, deviation_grid=[0.0, 0.3, 0.4, 0.3, 0.9],
                                 mode="montecarlo", trials=1_000, seed=5)
    monkeypatch.undo()
    profiles, means = seen["profiles"], seen["means"]
    assert profiles.shape == (n, 1 + 5 + (5**n if n >= 2 else 0))
    for p in range(profiles.shape[1]):
        spec = SimulationSpec((tuple(profiles[:, p]), 0.4), market, POWER_TWO, noise, trials=1_000, seed=5)
        stats = simulate(spec)
        assert stats.mean_payoff[0] == means[p]
        assert stats.payoff_ci_halfwidth[0] == seen["halfwidths"][p]
    assert check.baseline_payoff == means[0]
    assert check.max_gain == max(means[1:]) - means[0]
    best = list(means[1:]).index(max(means[1:])) + 1
    assert check.argmax_deviation == tuple(profiles[:, best])
    assert check.epsilon == seen["halfwidths"][best]


@pytest.mark.parametrize("n, trials", [(2, 2 * 10**5), (3, 10**5)])
def test_montecarlo_verify_memory_does_not_grow_with_trials(n, trials, monkeypatch):
    # the scan keeps histograms of win thresholds, whatever the trial count;
    # both runs use whole chunks, since a run shorter than a chunk draws less
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 20_000)
    market = MarketConfig(1.0, n)
    candidate = solve_equilibrium(market, POWER_TWO, UNIT_NOISE).signal
    verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE, mode="montecarlo", trials=100)
    peaks = []
    for count in (2 * 10**4, trials):
        tracemalloc.start()
        try:
            verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE, mode="montecarlo", trials=count, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_montecarlo_verify_does_not_depend_on_chunking(monkeypatch):
    market = MarketConfig(1.0, 2, 0.5)
    candidate = solve_equilibrium(MarketConfig(1.0, 2), POWER_TWO, UNIT_NOISE).signal
    run = lambda: verify_best_response(candidate, market, POWER_TWO, NoiseModel("logistic", 0.7),
                                       mode="montecarlo", trials=20_017, seed=4)
    baseline = run()
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    assert run() == baseline


# -- the deviation scan's counts against the per-(profile, trial) race it replaced --

def _reference_tally(own, rival, noise, trials, seed, chunk=1 << 16, block=1 << 18):
    """Race every column of the ``(n, P)`` array ``own`` against every trial
    with ``(gap + a) - b > 0`` and the slot-2 coin ``u < 0.5`` on exact ties,
    as the tally did before it counted from win thresholds."""
    n, profiles = own.shape
    gap = own - rival[:, None]
    captures = np.zeros((2, profiles), dtype=np.int64)
    joint = np.zeros((n, n, profiles), dtype=np.int64)
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        u = uniform_stream(seed, start * 3 * n, m * 3 * n).reshape(m, n, 3)
        if noise.has_trader_law:
            mine = np.ascontiguousarray(noise.trader_noise(u[:, :, 0]).T)
            theirs = np.ascontiguousarray(noise.trader_noise(u[:, :, 1]).T)
        else:
            mine, theirs = np.ascontiguousarray(noise.quantile(u[:, :, 0]).T), None
        heads = np.ascontiguousarray(u[:, :, 2].T < 0.5)
        cells = max(1, block // m)
        for lo in range(0, profiles, cells):
            hi = min(lo + cells, profiles)
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
    for k in range(n):
        for l in range(k + 1, n):
            joint[l, k] = joint[k, l]
    return captures, joint


def _scan_families(cand, n, grid, axis):
    """The families verify_best_response scans: the candidate, the equal
    family over ``grid`` and, with two or more chains, the product mesh."""
    families = [(cand,) * n, (grid,) * n]
    if n >= 2:
        families.append(tuple(axis.reshape([-1 if k == j else 1 for j in range(n)]) for k in range(n)))
    return families


def _assert_tally_equals_reference(families, rival, noise, trials, seed):
    n = len(rival)
    flat = np.concatenate([np.reshape(np.broadcast_arrays(*f), (n, -1)) for f in families], axis=1)
    captures, joint = mc._tally(families, rival, noise, trials, seed)
    expected_captures, expected_joint = _reference_tally(flat, rival, noise, trials, seed)
    assert np.array_equal(captures, expected_captures)
    assert np.array_equal(joint, expected_joint)


GRIDS = {
    "default": None,
    "unsorted": [0.9, 0.0, 0.55, 0.3, 1.4],
    "repeated": [0.4, 0.0, 0.4, 1.1, 0.0],
}


@pytest.mark.parametrize("spread", [0.0, 0.05], ids=["rival-equal", "rival-per-chain"])
@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_tally_equals_per_profile_race(noise, n, grid, spread, monkeypatch):
    # 2,500 trials in chunks of 1,000: the last chunk is partial
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    cand = 0.4
    if GRIDS[grid] is None:
        full = default_deviation_grid(cand, POWER_TWO)
        axis = default_deviation_grid(cand, POWER_TWO, points={2: 9}.get(n, 5))
    else:
        full = axis = np.array(GRIDS[grid])
    rival = cand + spread * np.arange(n)
    _assert_tally_equals_reference(_scan_families(cand, n, full, axis), rival, noise, 2_500, 7)


@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_tally_equals_per_profile_race_at_rounding_boundaries(noise):
    # gaps at fl(b - a) of chosen trials and chains and at their float
    # neighbours: the threshold search meets rounding boundaries and exact ties
    n, trials, seed = 2, 3_000, 11
    u = uniform_stream(seed, 0, trials * 3 * n).reshape(trials, n, 3)
    if noise.has_trader_law:
        mine, theirs = noise.trader_noise(u[:, :, 0]), noise.trader_noise(u[:, :, 1])
    else:
        mine, theirs = noise.quantile(u[:, :, 0]), np.zeros((trials, n))
    edges = theirs[::97] - mine[::97]
    gaps = np.concatenate([np.nextafter(edges, np.inf), edges, np.nextafter(edges, -np.inf),
                           np.nextafter(np.nextafter(edges, np.inf), np.inf)], axis=None)
    diff = (gaps[:, None, None] + mine) - theirs
    assert (diff == 0.0).any()  # the coin decides some races
    rival = np.zeros(n)  # so each gap is exactly the profile's signal
    families = [(gaps,) * n, (gaps[::7, None], gaps[None, 3::11]), (float(gaps[0]), gaps[5::13])]
    families += [(float(g), float(h)) for g, h in zip(gaps[:8], gaps[8:16])]
    _assert_tally_equals_reference(families, rival, noise, trials, seed)


@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_tally_groups_chains_that_share_an_axis(noise):
    # chains 0 and 2 vary along one axis, chain 1 along another, chain 3 not at all
    rival = np.array([0.4, 0.1, 0.6, 0.3])
    first, second = np.array([0.5, 0.0, 0.7, 0.5]), np.array([0.2, 0.9, 0.05])
    families = [(first[:, None], second[None, :], first[:, None], 0.3), (0.1, first, 0.2, first)]
    _assert_tally_equals_reference(families, rival, noise, 1_500, 19)


# -- the decision tables of scalar chains ---------------------------------------

EXTREME_NOISES = [NoiseModel(family, param) for family in ("normal", "logistic", "laplace", "uniform")
                  for param in (1e-300, 1e-3, 1.0, 1e3, 1e300)]
_BIN_SHIFT = np.uint64(64 - mc._K)


def _exact_noise(noise, words):
    """Each word's noise as the race computes it: the law's transform of its uniform."""
    u = to_uniform(np.array(words, dtype=np.uint64))
    return noise.trader_noise(u) if noise.has_trader_law else noise.quantile(u)


def _assert_bounds_hold(noise, words):
    lo_a, hi_a, lo_b, hi_b = mc._bin_bounds(noise)
    x, bins = _exact_noise(noise, words), np.array(words, dtype=np.uint64) >> _BIN_SHIFT
    assert np.all(lo_a[bins] <= x) and np.all(x <= hi_a[bins]), noise.spec
    if noise.has_trader_law:
        assert np.array_equal(lo_b, lo_a) and np.array_equal(hi_b, hi_a)
    else:  # the difference is drawn directly: trader 2's noise is 0
        assert not np.any(lo_b) and not np.any(hi_b)


@pytest.mark.parametrize("noise", EXTREME_NOISES, ids=lambda m: m.spec)
def test_bin_bounds_hold_at_the_ends_of_every_bin(noise):
    first = np.arange(1 << mc._K, dtype=np.uint64) << _BIN_SHIFT
    last = first | ((np.uint64(1) << _BIN_SHIFT) - np.uint64(1))
    one = np.uint64(1)
    # the ends, their inner neighbours and the outer ones, which lie in the adjacent bins
    words = np.concatenate([first, last, first + one, last - one, first[1:] - one, last[:-1] + one])
    _assert_bounds_hold(noise, words)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_bin_bounds_hold_for_any_word(words):
    for noise in EXTREME_NOISES:
        _assert_bounds_hold(noise, words)


def test_noise_of_the_top_and_bottom_words_is_finite_without_warnings():
    # the top 2**11 words once drew exactly 1.0: an infinite normal or
    # logistic noise, and a division by zero in the logistic law's log
    words = [0, 1, 2**11 - 1, 2**11, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1]
    with np.errstate(all="raise", under="ignore"):  # a tiny scale may round draws to 0
        for noise in EXTREME_NOISES:
            assert np.all(np.isfinite(_exact_noise(noise, words))), noise.spec


def _scalar_gaps(noise, n, trials, seed):
    """Gaps 0, gaps beyond every table's range, and fl(b - a) of chosen races
    with their float neighbours, where races tie and the tables leave them open."""
    u = uniform_stream(seed, 0, trials * 3 * n).reshape(trials, n, 3)
    if noise.has_trader_law:
        mine, theirs = noise.trader_noise(u[:, :, 0]), noise.trader_noise(u[:, :, 1])
    else:
        mine, theirs = noise.quantile(u[:, :, 0]), np.zeros((trials, n))
    edges = (theirs[::173] - mine[::173]).reshape(-1)
    huge = 1e3 * noise.param
    gaps = [0.0, huge, -huge, 2.0 * huge]
    for edge in edges[:12]:
        gaps += [float(edge), float(np.nextafter(edge, np.inf)), float(np.nextafter(edge, -np.inf))]
    return np.array(gaps), (mine, theirs)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("noise", EXTREME_NOISES, ids=lambda m: m.spec)
def test_scalar_tally_from_tables_equals_per_profile_race(noise, n, monkeypatch):
    trials, seed = 1_500, 23
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    gaps, (mine, theirs) = _scalar_gaps(noise, n, trials, seed)
    assert ((gaps[:, None, None] + mine) - theirs == 0.0).any()  # the coin decides some races
    rival = np.zeros(n)  # so each gap is exactly the entry
    families = [(float(g),) * n for g in gaps]
    families += [tuple(float(x) for x in np.roll(gaps, k)[:n]) for k in range(0, len(gaps), 5)]
    built = []
    table = mc._decision_table
    monkeypatch.setattr(mc, "_decision_table", lambda gap, bounds: built.append(gap) or table(gap, bounds))
    _assert_tally_equals_reference(families, rival, noise, trials, seed)
    assert len(built) == len(set(gaps.tolist()))  # one table per distinct gap: the table path ran
    wide = table(2.0 * 1e3 * noise.param, mc._bin_bounds(noise))
    assert np.all(wide == 1)  # a gap beyond the noise range decides every pair of bins


@pytest.mark.parametrize("noise", EXTREME_NOISES[2::5] + EXTREME_NOISES[3::5], ids=lambda m: m.spec)
def test_simulate_from_tables_equals_per_profile_race(noise):
    # simulate's counts, through the public entry point, at equal and unequal signals
    for n in (1, 2, 3):
        for own, rival in ((0.3, 0.3), (0.3, 0.3 + 0.01 * noise.param), ((0.2, 0.5, 0.3)[:n], (0.4, 0.1, 0.3)[:n])):
            spec = _spec((own, rival), n=n, trials=3_000, seed=31, noise=noise)
            stats = simulate(spec)
            rows = np.array(spec.signals)
            captures, joint = _reference_tally(rows[0][:, None], rows[1], noise, 3_000, 31)
            assert stats.capture_counts == (captures[0, 0], captures[1, 0])
            assert stats.per_chain_win_counts[0] == tuple(joint[k, k, 0] for k in range(n))
