import math
import tracemalloc

import numpy as np
import pytest

import seqlab.montecarlo as mc
from seqlab.cost import CostModel
from seqlab.equilibrium import MarketConfig, Regime, solve_foc_equilibrium
from seqlab.errors import ConfigError, DomainError
from seqlab.montecarlo import (
    SimulationSpec,
    analytic_expected_payoff,
    default_deviation_grid,
    simulate,
    verify_best_response,
)
from seqlab.noise import NoiseModel

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
    candidate = solve_foc_equilibrium(market, POWER_TWO, UNIT_NOISE)
    check = verify_best_response(
        candidate, market, POWER_TWO, UNIT_NOISE, deviation_grid=np.arange(0.0, 1.5001, 0.01)
    )
    assert check.max_gain <= 1e-3
    assert check.is_epsilon_equilibrium


def test_best_response_two_chain_product_scan():
    market = MarketConfig(1.0, 2)
    candidate = solve_foc_equilibrium(market, POWER_TWO, UNIT_NOISE)
    check = verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE)
    assert check.max_gain <= 1e-3
    assert len(check.argmax_deviation) == 2


def test_best_response_reports_profitable_deviation():
    # the stationarity candidate passes the payoff test yet loses to a joint
    # upward deviation; the scan must report the gain, not suppress it
    market = MarketConfig(4.0, 3)
    cost = CostModel.power(1.5)
    noise = NoiseModel("normal", 0.5)
    candidate = solve_foc_equilibrium(market, cost, noise)
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

    def spy_tally(own, *args):
        seen["profiles"] = own.copy()
        return tally(own, *args)

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


def test_montecarlo_verify_does_not_depend_on_chunking(monkeypatch):
    market = MarketConfig(1.0, 2, 0.5)
    candidate = solve_foc_equilibrium(MarketConfig(1.0, 2), POWER_TWO, UNIT_NOISE).signal
    run = lambda: verify_best_response(candidate, market, POWER_TWO, NoiseModel("logistic", 0.7),
                                       mode="montecarlo", trials=20_017, seed=4)
    baseline = run()
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    assert run() == baseline
