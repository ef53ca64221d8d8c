import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import uniforms

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
from seqlab.rng import to_uniform

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


def test_payoff_halfwidth_of_a_certain_or_unseen_capture_is_wilsons_floor():
    # uniform:0.5 noise never closes a gap of 1: trader 1 captures in every trial and
    # trader 2 in none, so both payoffs are constant; each half-width is v times the
    # distance from its edge to the far end of Wilson's interval, not 0
    stats = simulate(_spec((1.0, 0.0), n=2, v=3.0, trials=400, noise=NoiseModel("uniform", 0.5)))
    assert stats.capture_counts == (400, 0)
    assert stats.payoff_ci_halfwidth == (_wilson_floor(3.0, 400),) * 2


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
    # its cost of 1e600 is past float range: the payoff was once -inf and its half-width NaN
    with pytest.raises(DomainError, match=r"^signal 1e\+300 has a cost beyond float range$"):
        _spec((0.5, 1e300), trials=10)


@pytest.mark.parametrize("n", [mc.MAX_CHAINS + 1, 10**12])
def test_spec_refuses_more_chains_than_one_trial_of_a_chunk_holds(n):
    # refused before the signals are spread per chain: at 10**12 chains that would be two 8 TB tuples
    assert mc.MAX_CHAINS == 196_608 and mc._chunk_trials(mc.MAX_CHAINS) == 1
    message = f"^a simulation races at most 196608 chains, got {n}$"
    with pytest.raises(ConfigError, match=message):
        _spec((0.1, 0.1), n=n, trials=1)
    with pytest.raises(ConfigError, match=message):
        verify_best_response(0.0, MarketConfig(1.0, n), POWER_TWO, UNIT_NOISE, mode="montecarlo", trials=1)


@pytest.mark.parametrize(("noise", "rejected"), [
    (NoiseModel("laplace", 1.7e308), True), (NoiseModel("logistic", 1.7e308), True),
    (NoiseModel("normal", 1.7e308), True), (NoiseModel("laplace", 5e306), True),
    (NoiseModel("laplace", 4.8e306), False), (NoiseModel("logistic", 4.8e306), False),
    (NoiseModel("normal", 3e307), False), (NoiseModel("uniform", 1.7e308), False),
], ids=lambda x: x.spec if isinstance(x, NoiseModel) else None)
def test_spec_rejects_a_law_whose_draws_overflow(noise, rejected):
    # an infinite draw once raced inf + -inf: a reshape error in the scan, a win for trader 2 in simulate
    if rejected:
        with pytest.raises(ConfigError, match=f"^{re.escape(noise.spec)} noise is too wide to sample"):
            _spec((0.5, 0.5), n=2, trials=10, noise=noise)
        return
    spec = _spec(((0.5, 0.2), 0.5), n=2, trials=2_000, noise=noise)
    with np.errstate(all="raise", under="ignore"):
        stats = simulate(spec)
    rows = np.array(spec.signals)
    captures, joint = _reference_tally(rows[0][:, None], rows[1], noise, 2_000, 0)
    assert stats.capture_counts == (captures[0, 0], captures[1, 0])
    assert stats.per_chain_win_counts[0] == (joint[0, 0, 0], joint[1, 1, 0])


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


@pytest.mark.parametrize("cost", [CostModel.power(2.0, cap=1e-320), CostModel.power(2.0, cap=5e-324),
                                  CostModel.timeboost(1.0, 1e-320), CostModel.timeboost(1.0, 1e-316)],
                         ids=lambda cost: cost.spec)
def test_deviation_grid_and_verify_hold_at_a_subnormal_signal_bound(cost):
    # hi * 1e-8 underflows to 0 below about 5e-316, where geomspace once raised
    market = MarketConfig(1.0)
    candidate = solve_equilibrium(market, cost, UNIT_NOISE)
    grid = default_deviation_grid(candidate.signal, cost)
    assert grid[0] == 0.0 and np.all(np.diff(grid) >= 0.0) and grid[-1] == cost.admissible_max()
    cost.cost(grid)  # every deviation lies in the cost's domain
    check = verify_best_response(candidate, market, cost, UNIT_NOISE)
    assert check.max_gain == 0.0 and check.is_epsilon_equilibrium


def test_deviation_grid_keeps_its_bits_where_its_lowest_point_is_positive():
    for hi in (1.0, 1e-300, 1e-315):
        cost = CostModel.power(2.0, cap=hi)
        grid = default_deviation_grid(0.0, cost)
        assert np.isin(np.geomspace(hi * 1e-8, hi, 99), grid).all()


def test_analytic_verify_scores_a_deviation_whose_cost_overflows_as_minus_inf():
    # a deviation of 1e+300 costs 1e+600, past float range; pytest makes an overflow warning an error
    market, cost, noise = MarketConfig(1e308, 1, 0.0), POWER_TWO, NoiseModel("normal", 1.0)
    candidate = solve_equilibrium(market, cost, noise)
    assert np.isneginf(mc._level_scores(np.array([0.0, 1e300]), candidate.signal, market, cost, noise)[0, 1])
    assert verify_best_response(candidate, market, cost, noise).is_epsilon_equilibrium


def test_montecarlo_verify_leaves_out_deviations_past_float_range_and_scores_the_rest_finite():
    # at v = 1e308 the payoff sums over the trials overflow, and deviations past 1.34e154 cost more
    # than float range holds; those deviations are left out and the rest are scored in units of a
    # power of 2, so the run prints finite numbers; pytest makes an overflow or invalid-value warning an error
    market, cost, noise = MarketConfig(1e308, 1, 0.0), POWER_TWO, NoiseModel("normal", 1.0)
    candidate = solve_equilibrium(market, cost, noise)
    check = verify_best_response(candidate, market, cost, noise, mode="montecarlo", trials=1000)
    assert all(map(math.isfinite, (check.baseline_payoff, check.max_gain, check.epsilon)))
    assert check.is_epsilon_equilibrium and check.argmax_deviation[0] < 1.34e154
    # the grid's deviations past float range cannot win, even where they alone would be scored
    beyond = verify_best_response(candidate, market, cost, noise, mode="montecarlo", trials=1000,
                                  deviation_grid=[2e154, 3e154])
    assert beyond.argmax_deviation[0] in (0.0, candidate.signal) and math.isfinite(beyond.max_gain)


def test_best_response_holds_at_equilibrium():
    market = MarketConfig(1.0, 1)
    candidate = solve_equilibrium(market, POWER_TWO, UNIT_NOISE)
    check = verify_best_response(
        candidate, market, POWER_TWO, UNIT_NOISE, deviation_grid=np.arange(0.0, 1.5001, 0.01)
    )
    assert check.max_gain <= 1e-3
    assert check.is_epsilon_equilibrium


def test_best_response_holds_at_a_two_chain_equilibrium():
    # analytic mode over the default grid's level rows
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
    # with no refund, a deviation that surely loses every race costs nothing, so 0.8,
    # 0.5 and 0, which is always scored, all tie at payoff exactly 0: the least value
    # wins, whatever the caller's order
    market = MarketConfig(0.5, n, 0.0)
    check = verify_best_response(
        1.0, market, POWER_TWO, NoiseModel("uniform", 0.1),
        deviation_grid=[1.2, 0.8, 0.5, 0.8], mode=mode, trials=200,
    )
    assert check.argmax_deviation == (0.0,) * n
    assert check.max_gain == -check.baseline_payoff > 0.0


@pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
def test_best_response_scores_the_candidate_off_a_callers_grid(mode):
    # the grid leaves out the candidate, which is the baseline: no best gain falls below 0
    check = verify_best_response(0.5, MarketConfig(1.0, 1), POWER_TWO, NoiseModel("normal", 1.0),
                                 deviation_grid=[1.2], mode=mode, trials=2_000)
    assert check.max_gain >= 0.0 and check.argmax_deviation != (1.2,)


@pytest.mark.parametrize("mode, scan", [("analytic", "_level_scores"), ("montecarlo", "_level_tally")])
def test_best_response_empty_grid_scores_zero_and_the_candidate(mode, scan, monkeypatch):
    scanned, inner = [], getattr(mc, scan)
    monkeypatch.setattr(mc, scan, lambda values, *args: scanned.append(values.tolist()) or inner(values, *args))
    market = MarketConfig(1.0, 2)
    check = verify_best_response(0.5, market, POWER_TWO, UNIT_NOISE, deviation_grid=[], mode=mode, trials=500)
    assert scanned == [[0.0, 0.5]]
    assert check.argmax_deviation in {(0.0, 0.0), (0.5, 0.0), (0.5, 0.5)} and check.max_gain >= 0.0


@pytest.mark.parametrize("n, alpha", [(n, alpha) for n in (*range(1, 7), 12, 64)
                                      for alpha in ((1.0, 0.5) if n <= 2 else (1.0,))])
@pytest.mark.parametrize("cost", [POWER_TWO, CostModel.timeboost(0.25, 1.0)], ids=lambda c: c.spec)
@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_level_rows_equal_the_payoff_of_their_profiles(n, alpha, cost, noise):
    # row j - 1 puts each value on chains 0..j-1 and 0 on the rest, the rows accumulated down
    # the chain axis with the bits of the per-profile fold; the first maximum from
    # the all-chain row up, and in a row the least value, wins: at v = 0.01 the boost fee's
    # best response is 0, which every row holds at its first column
    values = np.unique(default_deviation_grid(0.25, cost, points=41))  # it holds 0 and the candidate
    for v in (1.3, 0.01):
        market = MarketConfig(v, n, alpha)
        rows = mc._level_scores(values, 0.25, market, cost, noise)
        expected = np.array([analytic_expected_payoff(((values,) * j + (0.0,) * (n - j), 0.25), market, cost, noise)
                             for j in range(1, n + 1)])
        assert [x.hex() for x in rows.reshape(-1).tolist()] == [x.hex() for x in expected.reshape(-1).tolist()]
        best = None
        for j in range(n, 0, -1):
            for i, score in enumerate(expected[j - 1].tolist()):
                if best is None or score > best[0]:
                    best = score, j, i
        score, j, i = best
        check = verify_best_response(0.25, market, cost, noise, deviation_grid=values)
        assert check.argmax_deviation == (values[i],) * j + (0.0,) * (n - j)
        baseline = analytic_expected_payoff(((0.25,) * n, 0.25), market, cost, noise)
        assert check.baseline_payoff.hex() == float(baseline).hex()
        assert check.max_gain == score - check.baseline_payoff
        if v == 0.01 and cost.family == "timeboost":
            assert check.argmax_deviation == (0.0,) * n and np.count_nonzero(expected == score) >= n


def _product_mesh_gain(candidate, market, cost, noise):
    """The best gain over the equal family and a per-chain product mesh of
    61 (n = 2) or 31 (n = 3) points a chain; the mesh wins only when strictly better."""
    n = market.n_chains
    baseline = analytic_expected_payoff(((candidate,) * n, candidate), market, cost, noise)
    equal = analytic_expected_payoff(((default_deviation_grid(candidate, cost),) * n, candidate), market, cost, noise)
    axis = default_deviation_grid(candidate, cost, points={2: 61, 3: 31}[n])
    mesh = tuple(axis.reshape([-1 if k == j else 1 for j in range(n)]) for k in range(n))
    product = analytic_expected_payoff((mesh, candidate), market, cost, noise)
    return max(equal.max(), product.max()) - baseline


def test_level_family_keeps_the_product_meshs_verdicts():
    # the interior candidates of power costs and normal noise at n = 2 and 3 and full cost,
    # and every candidate at n = 2 with refunds
    refuted = set()
    for n, alpha, beta, sigma, v in itertools.product((2, 3), (1.0, 0.5, 0.0), (1.2, 1.5, 2.0, 3.0, 5.0),
                                                      (0.1, 0.5, 1.0, 2.0), (0.05, 0.2, 1.0, 5.0, 20.0)):
        if n == 3 and alpha < 1.0:
            continue
        market, cost, noise = MarketConfig(v, n, alpha), CostModel.power(beta), NoiseModel("normal", sigma)
        candidate = solve_equilibrium(market, cost, noise)
        if alpha == 1.0 and candidate.regime is not Regime.INTERIOR:
            continue
        check = verify_best_response(candidate, market, cost, noise)
        gain = _product_mesh_gain(candidate.signal, market, cost, noise)
        assert check.is_epsilon_equilibrium == (gain <= 1e-3 * v), (n, alpha, beta, sigma, v)
        if alpha == 1.0 and not check.is_epsilon_equilibrium:
            refuted.add((n, beta, sigma, v))
    assert refuted == {(2, 1.2, 1.0, 5.0), (2, 1.5, 0.1, 0.2), (2, 1.5, 2.0, 20.0), (3, 1.2, 2.0, 20.0)}


def test_analytic_verify_peak_memory_stays_small_at_many_chains():
    # the level family holds n * 301 scores: 64 chains peak well under 1 MB
    market = MarketConfig(2.0, 64)
    candidate = solve_equilibrium(market, POWER_TWO, UNIT_NOISE).signal
    # a process's first verify imports numpy.ma and inspect: warm up, so the bound holds in any test order
    verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE)
    tracemalloc.start()
    try:
        check = verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(check.argmax_deviation) == 64
    assert peak < 1 << 20


def test_analytic_verify_scans_a_callers_grid_as_level_rows():
    # 301 points of the caller's own at n = 6 are 6 * 301 level profiles, not 301**6
    market = MarketConfig(2.0, 6)
    candidate = solve_equilibrium(market, POWER_TWO, UNIT_NOISE).signal
    grid = np.linspace(0.0, 3.0 * candidate + 1.0, 301)
    verify_best_response(candidate, MarketConfig(2.0, 1), POWER_TWO, UNIT_NOISE, deviation_grid=grid)  # loads SciPy
    start = time.perf_counter()
    check = verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE, deviation_grid=grid)
    assert time.perf_counter() - start < 0.1
    # the candidate, off this grid, is scored too
    assert check.argmax_deviation == (candidate,) * 6 and check.max_gain == 0.0


def test_montecarlo_verify_scans_a_large_callers_grid():
    # 70,000 points of the caller's own at n = 2: the level tally keeps a few counts per
    # row and value, and its reduction is exact on them
    grid = np.linspace(0.0, 1.0, 70_000)
    check = verify_best_response(0.25, MarketConfig(1.0, 2), POWER_TWO, UNIT_NOISE, deviation_grid=grid,
                                 mode="montecarlo", trials=200)
    assert check.mode == "montecarlo" and all(x in grid for x in check.argmax_deviation)


def test_best_response_montecarlo_mode():
    market = MarketConfig(1.0, 1)
    check = verify_best_response(
        0.5, market, POWER_TWO, UNIT_NOISE,
        deviation_grid=[0.0, 0.25, 0.5, 0.75], mode="montecarlo", trials=10**5, seed=2,
    )
    assert check.epsilon > 0.0
    assert check.max_gain <= check.epsilon
    assert check.is_epsilon_equilibrium


def _grouped_halfwidth(trials, market, cost, level, captures, joint):
    """The 95% half-width of a profile that costs ``cost`` on its first ``level``
    chains and nothing on the rest, from its exact counts in Python integers:
    ``v**2*c(T-c) - 2*v*s*c(jT - S1) + s**2*(T*S2 - S1**2)``, ``s`` the slope of the cost."""
    v, t, c = market.v, trials, int(captures)
    s1 = sum(int(joint[k, k]) for k in range(level))
    s2 = sum(int(joint[k, l]) for k in range(level) for l in range(level))
    slope = (1.0 - market.alpha) * cost
    moment = v * v * float(c * (t - c))
    moment = moment - 2.0 * v * slope * float(c * (level * t - s1))
    moment = moment + slope * slope * float(t * s2 - s1 * s1)
    halfwidth = 1.96 * math.sqrt(max(moment, 0.0) / (t * (t - 1.0)) / t)
    return max(halfwidth, _wilson_floor(v, t)) if c in (0, t) else halfwidth


def _wilson_floor(v, trials):
    """``v`` times the distance from 0 to the upper end of Wilson's 95% score interval at 0 of ``trials``."""
    return v * 1.96**2 / (trials + 1.96**2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_montecarlo_scan_scores_equal_simulate(n, alpha, noise, monkeypatch):
    # the scan races all its profiles against shared draws; each one raced alone by
    # simulate must give the very same mean payoff and half-width, the grouped form of
    # the per-profile race's counts
    market, grid, trials = MarketConfig(1.0, n, alpha), [0.0, 0.3, 0.4, 0.3, 0.9], 1_000
    seen = {}
    reduce = mc._payoff_statistics

    def spy_reduce(*args):
        seen["means"], seen["halfwidths"] = out = reduce(*args)
        return out

    monkeypatch.setattr(mc, "_payoff_statistics", spy_reduce)
    check = verify_best_response(0.4, market, POWER_TWO, noise, deviation_grid=grid, mode="montecarlo",
                                 trials=trials, seed=5)
    monkeypatch.undo()
    means, halfwidths = seen["means"], seen["halfwidths"]
    values = np.unique(grid)  # the candidate is on the grid
    costs = POWER_TWO.cost(values)
    assert means.shape == halfwidths.shape == (n, values.size)
    # tally row j - 1 puts each value on chains 0..j-1 and 0 on the rest
    profiles = [(x,) * j + (0.0,) * (n - j) for j in range(1, n + 1) for x in values.tolist()]
    captures, joint = _reference_tally(np.array(profiles).T, np.full(n, 0.4), noise, trials, 5)
    for p, own in enumerate(profiles):
        row, i = divmod(p, values.size)
        stats = simulate(SimulationSpec((own, 0.4), market, POWER_TWO, noise, trials=trials, seed=5))
        assert stats.mean_payoff[0] == means[row, i]
        expected = _grouped_halfwidth(trials, market, costs[i], row + 1, captures[0, p], joint[:, :, p])
        assert halfwidths[row, i] == expected
        assert stats.payoff_ci_halfwidth[0] == expected
    baseline = list(values).index(0.4)
    assert check.baseline_payoff == means[n - 1, baseline]
    # the scan's row r holds the grid on n - r chains: tally row n - r - 1
    scores = [(float(means[n - 1 - r, list(values).index(x)]), r, x) for r in range(n) for x in grid]
    best = max(score for score, _, _ in scores)
    _, r, x = next(item for item in scores if item[0] == best)
    assert check.max_gain == best - means[n - 1, baseline]
    assert check.argmax_deviation == (x,) * (n - r) + (0.0,) * r
    assert check.epsilon == math.hypot(halfwidths[n - 1 - r, list(values).index(x)], halfwidths[n - 1, baseline])


def test_montecarlo_epsilon_counts_the_baselines_sampling_error():
    # a deviation to 0 loses every race of uniform:0.5 noise against 1, so its sampled
    # payoff is constant, 0: no capture is seen, and its half-width is Wilson's floor,
    # not 0; the baseline's own error counts as well
    market, noise = MarketConfig(2.0, 1), NoiseModel("uniform", 0.5)
    candidate = solve_equilibrium(market, POWER_TWO, noise)
    assert verify_best_response(candidate, market, POWER_TWO, noise).is_epsilon_equilibrium
    check = verify_best_response(candidate, market, POWER_TWO, noise, mode="montecarlo", trials=100, seed=1)
    deviation, baseline = (simulate(SimulationSpec((own, candidate.signal), market, POWER_TWO, noise, trials=100,
                                                   seed=1)) for own in (0.0, candidate.signal))
    assert check.argmax_deviation == (0.0,) and deviation.capture_counts[0] == 0
    assert deviation.payoff_ci_halfwidth[0] == _wilson_floor(2.0, 100)
    assert check.max_gain == -baseline.mean_payoff[0] > 0.0
    assert check.epsilon == math.hypot(_wilson_floor(2.0, 100), baseline.payoff_ci_halfwidth[0]) > check.max_gain
    assert check.is_epsilon_equilibrium


@pytest.mark.parametrize("seed", [0, 1])
def test_montecarlo_verify_certifies_a_market_whose_capture_no_trial_sees(seed):
    # at 12 chains the candidate captures with probability 2**-12, so 2,000 trials see
    # no capture at the baseline or at the best deviation; their sampled payoffs barely
    # vary, and a sample half-width of about 0 once refuted the market by its candidate's
    # cost, 1e-7, although analytic mode certifies it
    market, noise = MarketConfig(1.0, 12), NoiseModel("normal", 1.0)
    candidate = solve_equilibrium(market, POWER_TWO, noise)
    assert verify_best_response(candidate, market, POWER_TWO, noise).is_epsilon_equilibrium
    check = verify_best_response(candidate, market, POWER_TWO, noise, mode="montecarlo", trials=2_000, seed=seed)
    assert check.epsilon >= math.hypot(_wilson_floor(1.0, 2_000), _wilson_floor(1.0, 2_000))
    assert 0.0 < check.max_gain <= check.epsilon and check.is_epsilon_equilibrium


def test_montecarlo_verify_searches_each_chains_thresholds_once_per_chunk(monkeypatch):
    # every level row holds chain 0 at the grid, and rows 0..n-k-1 chain k: the rows share
    # one search per chain, n per chunk, not n(n+1)/2; and the chains, which all race the
    # candidate, share one pass
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    n, searched = 3, []
    thresholds = mc._Race.thresholds
    monkeypatch.setattr(mc._Race, "thresholds", lambda race, index:
                        searched.append(race.mine.shape) or thresholds(race, index))
    market = MarketConfig(1.0, n)
    candidate = solve_equilibrium(market, POWER_TWO, UNIT_NOISE)
    verify_best_response(candidate, market, POWER_TWO, UNIT_NOISE, mode="montecarlo", trials=2_500)
    assert searched == [(n, 1_000), (n, 1_000), (n, 500)]  # three chunks: 2,500 trials in chunks of 1,000


def test_montecarlo_verify_races_no_chain_at_a_scalar_gap(monkeypatch):
    # a chain held at 0 wins where its threshold is at most 0's index among the values,
    # which verify adds to a grid without it: the threshold searches race every chain,
    # each race at a gap of its own chain and trial
    gaps, wins = [], mc._Race.wins
    monkeypatch.setattr(mc._Race, "wins", lambda race, gap:
                        gaps.append(np.shape(gap) == race.heads.shape) or wins(race, gap))
    market, spec = MarketConfig(1.0, 3), {"trials": 2_000, "seed": 1}
    check = verify_best_response(0.4, market, POWER_TWO, UNIT_NOISE, deviation_grid=[0.3], mode="montecarlo",
                                 **spec)
    assert gaps and all(gaps)
    monkeypatch.undo()
    # and every row of 0, the grid and the candidate scores as simulate does, from the all-chain row up
    profiles = [(x,) * j + (0.0,) * (3 - j) for j in (3, 2, 1) for x in (0.0, 0.3, 0.4)]
    payoffs = [simulate(SimulationSpec((own, 0.4), market, POWER_TWO, UNIT_NOISE, **spec)).mean_payoff[0]
               for own in profiles]
    baseline = payoffs[profiles.index((0.4,) * 3)]
    assert check.baseline_payoff == baseline
    assert check.max_gain == max(payoffs) - baseline
    assert check.argmax_deviation == profiles[payoffs.index(max(payoffs))]


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


def test_montecarlo_verify_memory_grows_linearly_with_chains():
    # the level tally keeps O(chains * grid) counts; the joint counts it replaced grew as
    # chains**3 and were capped at 12 chains (29 MB at 12 chains and 2,000 trials)
    noise, peaks = NoiseModel("normal", 1.0), {}
    for n in (16, 32):
        market = MarketConfig(1.0, n)
        candidate = solve_equilibrium(market, POWER_TWO, noise).signal
        run = lambda: verify_best_response(candidate, market, POWER_TWO, noise, mode="montecarlo", trials=2_000)
        run()
        start = time.perf_counter()
        check = run()
        seconds = time.perf_counter() - start
        tracemalloc.start()
        try:
            run()
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(check.argmax_deviation) == n
    assert seconds < 0.5
    assert peaks[32] < 10 * 2**20 and peaks[32] <= 2.5 * peaks[16]


def test_montecarlo_verify_does_not_depend_on_chunking(monkeypatch):
    market = MarketConfig(1.0, 2, 0.5)
    candidate = solve_equilibrium(MarketConfig(1.0, 2), POWER_TWO, UNIT_NOISE).signal
    run = lambda: verify_best_response(candidate, market, POWER_TWO, NoiseModel("logistic", 0.7),
                                       mode="montecarlo", trials=20_017, seed=4)
    baseline = run()
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    assert run() == baseline


# -- the tallies' counts against the per-(profile, trial) race they replaced --

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
        u = uniforms(seed, start * 3 * n, m * 3 * n).reshape(m, n, 3)
        if noise.family != "uniform":
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


def _assert_level_tally_equals_reference(grid, rival, n, noise, trials, seed):
    """The level tally's counts at the sorted distinct values of ``grid`` and 0 against
    ``rival`` on ``n`` chains, bit for bit the sums of the per-profile race's counts of
    each row's profiles."""
    values = np.unique(np.append(grid, 0.0))
    size = values.size
    # row j - 1 puts each value on chains 0..j-1 and 0 on the rest
    rows = [[values if k < j else np.zeros(size) for k in range(n)] for j in range(1, n + 1)]
    captures, joint = _reference_tally(np.concatenate(rows, axis=1), np.full(n, rival), noise, trials, seed)
    captures, joint = captures[0].reshape(n, size), joint.reshape(n, n, n, size)  # chain, chain, row, value
    got_captures, wins, s1, s2 = mc._level_tally(values, rival, n, noise, trials, seed)
    assert np.array_equal(got_captures, captures)
    for j in range(1, n + 1):  # every row that holds chain k at the value has its wins
        for k in range(j):
            assert np.array_equal(wins[k], joint[k, k, j - 1])
        assert np.array_equal(s1[j - 1], sum(joint[k, k, j - 1] for k in range(j)))
        assert np.array_equal(s2[j - 1], joint[:j, :j, j - 1].sum(axis=(0, 1)))


def _assert_table_tally_equals_reference(profiles, rival, noise, trials, seed):
    """The table tally of each column of ``profiles``, bit for bit the per-profile race's
    counts: both traders' captures, each chain's wins (the joint table's diagonal), and
    per pair of groups the joint table's block over their chains."""
    captures, joint = _reference_tally(profiles, rival, noise, trials, seed)
    for p in range(profiles.shape[1]):
        got_captures, wins, co_wins, group = mc._table_tally(profiles[:, p], rival, noise, trials, seed)
        assert np.array_equal(got_captures, captures[:, p])
        assert np.array_equal(wins, np.diagonal(joint[:, :, p]))
        # groups hold the chains of one (own, rival) pair, numbered in order of first use
        pairs = list(zip(profiles[:, p].tolist(), rival.tolist()))
        assert group.tolist() == [list(dict.fromkeys(pairs)).index(pair) for pair in pairs]
        members = [group == g for g in range(co_wins.shape[0])]
        blocks = [[joint[np.ix_(rows, cols)][..., p].sum() for cols in members] for rows in members]
        assert np.array_equal(co_wins, blocks)


GRIDS = {
    "default": None,
    "unsorted": [0.9, 0.0, 0.55, 0.3, 1.4],
    "repeated": [0.4, 0.0, 0.4, 1.1, 0.0],
}


@pytest.mark.parametrize("rival", [0.4, 0.43], ids=["rival-candidate", "rival-off-the-values"])
@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_tally_equals_per_profile_race(noise, n, grid, rival, monkeypatch):
    # 2,500 trials in chunks of 1,000: the last chunk is partial; a rival off the values
    # leaves no gap of exactly 0 on the index
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    cand = 0.4
    full = default_deviation_grid(cand, POWER_TWO) if GRIDS[grid] is None else np.array(GRIDS[grid])
    _assert_level_tally_equals_reference(np.append(full, cand), rival, n, noise, 2_500, 7)


@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_tally_equals_per_profile_race_at_rounding_boundaries(noise, monkeypatch):
    # gaps at fl(b - a) of chosen trials and chains and at their float
    # neighbours: the threshold search meets rounding boundaries and exact ties
    searched = _spy_on_search(monkeypatch)
    n, trials, seed = 2, 3_000, 11
    u = uniforms(seed, 0, trials * 3 * n).reshape(trials, n, 3)
    if noise.family != "uniform":
        mine, theirs = noise.trader_noise(u[:, :, 0]), noise.trader_noise(u[:, :, 1])
    else:
        mine, theirs = noise.quantile(u[:, :, 0]), np.zeros((trials, n))
    edges = theirs[::97] - mine[::97]
    gaps = np.concatenate([np.nextafter(edges, np.inf), edges, np.nextafter(edges, -np.inf),
                           np.nextafter(np.nextafter(edges, np.inf), np.inf)], axis=None)
    diff = (gaps[:, None, None] + mine) - theirs
    assert (diff == 0.0).any()  # the coin decides some races
    # the rival at 0, so each gap is exactly the profile's signal
    _assert_level_tally_equals_reference(gaps, 0.0, n, noise, trials, seed)
    _assert_level_tally_equals_reference(gaps[3::11], 0.0, n, noise, trials, seed)
    assert sum(searched) > 0  # where rounding moves a win, the bucket's guess fails
    _assert_table_tally_equals_reference(np.array([gaps[:8], gaps[8:16]]), np.zeros(n), noise, trials, seed)


@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_tally_groups_chains_that_share_an_axis(noise):
    # the value chains of every row share one unsorted axis with a repeated value,
    # raced against a rival off the axis
    _assert_level_tally_equals_reference(np.array([0.5, 0.0, 0.7, 0.5]), 0.3, 4, noise, 1_500, 19)


@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_tally_equals_per_profile_race_at_rivals_on_the_axis(noise, monkeypatch):
    # one run per rival, each a value of the axis, in chunks of 1,000 trials
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    for rival in (0.4, 0.45):
        _assert_level_tally_equals_reference(np.array([0.0, 0.3, 0.4, 0.45, 0.9]), rival, 3, noise, 2_500, 23)


@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_tally_equals_per_profile_race_at_many_chains(noise):
    # 24 chains go through one pass per chunk
    grid = np.append(default_deviation_grid(0.4, POWER_TWO, points=11), 0.4)
    _assert_level_tally_equals_reference(grid, 0.4, 24, noise, 400, 37)


@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_race_coin_is_the_tie_break_uniform_below_one_half(noise):
    # heads exactly when the slot-2 word's uniform is below 1/2, at the words about 2**63
    edge = [2**63 - 1, 2**63, 2**63 - 2**11, 2**63 + 2**11]
    coins = np.concatenate([np.array(edge, dtype=np.uint64), mc._chunk_words(41, 0, 500, 1)[:, 0, 2]])
    words = mc._chunk_words(43, 0, coins.size, 1)
    words[:, 0, 2] = coins
    heads = mc._Race.of(words, noise).heads[0]
    assert np.array_equal(heads, to_uniform(coins.copy()) < 0.5)
    assert heads[:4].tolist() == [True, False, True, False]


# -- the decision tables of scalar chains ---------------------------------------

EXTREME_NOISES = [NoiseModel(family, param) for family in ("normal", "logistic", "laplace", "uniform")
                  for param in (1e-300, 1e-3, 1.0, 1e3, 1e300)]
_BIN_SHIFT = np.uint64(64 - mc._K)


def _exact_noise(noise, words):
    """Each word's noise as the race computes it: the law's transform of its uniform."""
    u = to_uniform(np.array(words, dtype=np.uint64))
    return noise.trader_noise(u) if noise.family != "uniform" else noise.quantile(u)


def _assert_bounds_hold(noise, words):
    lo_a, hi_a, lo_b, hi_b = mc._bin_bounds(noise)
    x, bins = _exact_noise(noise, words), np.array(words, dtype=np.uint64) >> _BIN_SHIFT
    assert np.all(lo_a[bins] <= x) and np.all(x <= hi_a[bins]), noise.spec
    if noise.family != "uniform":
        assert np.array_equal(lo_b, lo_a) and np.array_equal(hi_b, hi_a)
    else:  # the difference is drawn directly: trader 2's noise is 0, inside its bounds' slack
        assert np.all(lo_b < 0.0) and np.all(hi_b > 0.0)


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
    u = uniforms(seed, 0, trials * 3 * n).reshape(trials, n, 3)
    if noise.family != "uniform":
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
    profiles = [(float(g),) * n for g in gaps]
    profiles += [tuple(float(x) for x in np.roll(gaps, k)[:n]) for k in range(0, len(gaps), 5)]
    built = []
    table = mc._decision_table
    monkeypatch.setattr(mc, "_decision_table", lambda gap, bounds: built.append(gap) or table(gap, bounds))
    _assert_table_tally_equals_reference(np.array(profiles).T, rival, noise, trials, seed)
    # one table per distinct gap of each profile: the table path ran
    assert sorted(built) == sorted(gap for own in profiles for gap in set(own))
    wide = table(2.0 * 1e3 * noise.param, mc._bin_bounds(noise))
    assert np.all(wide == 1)  # a gap beyond the noise range decides every pair of bins


@pytest.mark.parametrize("noise", BROADCAST_NOISES, ids=lambda m: m.spec)
def test_table_tally_groups_chains_that_race_one_pair(noise, monkeypatch):
    # chains 0 and 2 race one pair of signals and chain 1 another at the same gap, and
    # chain 3 races at gap 0: three groups, [0, 1, 0, 2], and one table per distinct gap
    own, rival = np.array([0.5, 0.6, 0.5, 0.2]), np.array([0.4, 0.5, 0.4, 0.2])
    assert own[0] - rival[0] == own[1] - rival[1]
    monkeypatch.setattr(mc, "_CHUNK_TRIALS", 1_000)
    built, table = [], mc._decision_table
    monkeypatch.setattr(mc, "_decision_table", lambda gap, bounds: built.append(gap) or table(gap, bounds))
    _assert_table_tally_equals_reference(own[:, None], rival, noise, 2_500, 13)
    assert sorted(built) == [0.0, own[0] - rival[0]]


def test_simulate_tallies_chains_at_one_pair_as_one_group(monkeypatch):
    # 1,024 chains at one pair of signals are one group: the reducer gets one group and a
    # 1 x 1 co-win table per trader, not one entry per pair of chains, and the run's time
    # and memory grow as the chain count, not its square
    seen, reduce = [], mc._payoff_statistics
    monkeypatch.setattr(mc, "_payoff_statistics", lambda *args: seen.append(args) or reduce(*args))
    spec = _spec((0.5, 0.5), n=1024, alpha=0.5, trials=1_000, seed=3)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        stats = simulate(spec)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (*_, groups, co_wins), = seen
    assert len(groups) == 1 and np.shape(co_wins) == (1, 1, 2)
    assert len(stats.per_chain_win_counts[0]) == 1024
    assert peak < 10 * 2**20
    assert seconds < 5.0


def _pair_loop_payoff_statistics(trials, market, captures, chains, groups, co_wins):
    """The reducer as a loop over pairs of groups on Python integers: the reference for its order of additions."""
    v, alpha = market.v, market.alpha
    spent = 0.0
    for cost, won in chains:
        spent = spent + cost * (won + alpha * (trials - won))
    mean = (v * captures - spent) / trials

    def exact(counts):
        return np.asarray(counts).astype(object)

    caps, wins = exact(captures), [exact(won) for _, _, won in groups]
    slopes = [(1.0 - alpha) * cost for cost, _, _ in groups]
    moment = v * v * (caps * (trials - caps)).astype(float)
    for (_, size, _), won, slope, row in zip(groups, wins, slopes, co_wins):
        moment = moment - 2.0 * v * slope * (caps * (exact(size) * trials - won)).astype(float)
        for other_won, other, pairs in zip(wins, slopes, row):
            moment = moment + slope * other * (trials * exact(pairs) - won * other_won).astype(float)
    variance = np.maximum(moment, 0.0) / (trials * (trials - 1.0))
    halfwidth = mc._Z95 * np.sqrt(variance / trials)
    edge = (captures == 0) | (captures == trials)
    return mean, np.where(edge, np.maximum(halfwidth, v * mc._Z95**2 / (trials + mc._Z95**2)), halfwidth)


def _assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_payoff_statistics_keeps_the_bits_of_the_pair_loop(monkeypatch):
    # 40 chains at 40 distinct signal pairs are 40 groups, plus a Monte Carlo verify's level
    # rows, whose row j - 1 costs the value on chains 0..j-1 and nothing on the rest; the
    # reference folds the chains one at a time from the costs and wins that _spent sums
    calls, reduce, spent = [], mc._payoff_statistics, mc._spent
    monkeypatch.setattr(mc, "_spent", lambda costs, wins, *rest:
                        calls.append((costs, wins)) or spent(costs, wins, *rest))

    def both(trials, market, captures, summed, groups, co_wins):
        got = reduce(trials, market, captures, summed, groups, co_wins)
        costs, wins = calls.pop()
        if costs.ndim == wins.ndim:  # simulate: per chain, both traders' costs and wins
            chains = zip(costs, wins)
        else:
            rows = np.arange(1, len(wins) + 1).reshape(-1, 1)
            chains = ((np.where(k < rows, costs, 0.0), won) for k, won in enumerate(wins))
        _assert_same_bits(got, _pair_loop_payoff_statistics(trials, market, captures, chains, groups, co_wins))
        calls.append(len(groups))
        return got

    monkeypatch.setattr(mc, "_payoff_statistics", both)
    own = tuple(0.2 + 0.015 * k for k in range(40))
    simulate(_spec((own, own[::-1]), n=40, v=3.0, alpha=0.3, trials=2_000, seed=5))
    verify_best_response(0.4, MarketConfig(2.0, 3, 0.5), POWER_TWO, UNIT_NOISE, mode="montecarlo",
                         trials=2_000, seed=5, deviation_grid=np.linspace(0.0, 1.0, 11))
    assert calls == [40, 1]


def test_payoff_statistics_past_int64_keeps_the_bits_of_the_pair_loop():
    # at 10**10 trials T*N passes int64, so the co-moments are formed from Python integers
    trials, market = 10**10, MarketConfig(5.0, 3, 0.25)
    captures = np.array([1_234_567_891, 987_654_321])
    wins = np.array([[4_000_000_001, 6_000_000_003], [5_500_000_000, 4_500_000_000], [7_000_000_007, 3_000_000_001]])
    costs = np.array([[0.09, 0.16], [0.25, 0.04], [0.09, 0.16]])
    groups = [(costs[0], np.array([2]), wins[0] + wins[2]), (costs[1], np.array([1]), wins[1])]
    co_wins = np.array([[[2 * 10**10, 10**10], [9 * 10**9, 4 * 10**9]],
                        [[9 * 10**9, 4 * 10**9], [5_500_000_000, 4_500_000_000]]])
    spent = mc._spent(costs, wins, trials, market.alpha)[-1]
    got = mc._payoff_statistics(trials, market, captures, spent, groups, co_wins)
    _assert_same_bits(got, _pair_loop_payoff_statistics(trials, market, captures, zip(costs, wins), groups, co_wins))


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


# -- the gap index's guesses against the first winning gap ------------------------

def _spy_on_search(monkeypatch):
    """A list that gets the number of races of every lockstep binary search."""
    searched, search = [], mc._Race.search
    monkeypatch.setattr(mc._Race, "search",
                        lambda race, gaps: searched.append(race.heads.size) or search(race, gaps))
    return searched


def _first_winning_gap(gaps, mine, theirs, heads):
    """Per trial, the index of the first of ``gaps`` that wins, raced at every gap."""
    diff = (gaps[:, None] + mine) - theirs
    won = (diff > 0.0) | ((diff == 0.0) & heads)
    return np.where(won.any(axis=0), np.argmax(won, axis=0), len(gaps))


def _assert_thresholds_are_the_first_winning_gap(gaps, mine, theirs, heads):
    race, index = mc._Race(mine, theirs, heads), mc._GapIndex(gaps)
    with np.errstate(invalid="raise", over="ignore"):  # bucketing makes no NaN and casts no infinity
        expected = [_first_winning_gap(gaps, mine[k], theirs[k], heads[k]) for k in range(len(mine))]
        assert np.array_equal(race.thresholds(index), expected)


FRAGILE_AXES = {
    "one-value": [0.3],
    "ulps-around-a-candidate": [np.nextafter(0.4, 1.0) - 0.4, 0.0, 0.4 - np.nextafter(0.4, 0.0),
                                float(np.spacing(0.4)) * 3, -float(np.spacing(0.4)) * 3],
    "up-to-1e300": np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 41)]),
    "span-past-float-range": [-1.5e308, -1e300, -1.0, 0.0, 1e-300, 1.0, 1e300, 1.5e308],
    "infinite-ends": [-np.inf, -1.0, 0.0, 1.0, np.inf],  # values - signal past float range
    "default": default_deviation_grid(0.4, POWER_TWO) - 0.4,
}


@pytest.mark.parametrize("axis", FRAGILE_AXES, ids=str)
@pytest.mark.parametrize("noise", EXTREME_NOISES, ids=lambda m: m.spec)
def test_gap_index_thresholds_are_the_first_winning_gap(noise, axis):
    n, trials = 2, 1_500
    race = mc._Race.of(mc._chunk_words(29, 0, trials, n), noise)
    mine, theirs, heads = race.mine, race.theirs, race.heads
    gaps = np.unique(FRAGILE_AXES[axis])
    _assert_thresholds_are_the_first_winning_gap(gaps, mine, theirs, heads)
    # and runs of consecutive floats about some keys: where a's ulp dwarfs the key's, several
    # gaps about a key tie by rounding and the coin decides them
    keys = (theirs[0] - mine[0])[::50]
    run, up, down = [keys], keys, keys
    for _ in range(12):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        run += [up, down]
    _assert_thresholds_are_the_first_winning_gap(np.unique(run), mine, theirs, heads)


def test_gap_index_settles_keys_that_overflow():
    # logistic noise near the edge of float range: every draw is finite, but b - a of
    # the extreme draws is +-inf; the bucket clips it, and no NaN or stray index arises
    noise = NoiseModel("logistic", 4.8e306)
    u = np.concatenate([[2.0**-54, 1.0 - 2.0**-53, 0.5, 2.0**-40, 1.0 - 2.0**-40], np.linspace(0.01, 0.99, 95)])
    # trials 0 and 1 pair the least draw with the greatest
    mine, theirs = noise.trader_noise(u), noise.trader_noise(np.concatenate([u[1::-1], u[:1:-1]]))
    assert np.isfinite(mine).all() and np.isfinite(theirs).all()
    with np.errstate(over="ignore"):
        assert (theirs - mine)[:2].tolist() == [np.inf, -np.inf]
    heads = np.arange(u.size) % 2 == 0
    for axis in ([0.0], [-1e308, 0.0, 1e308], [-1.5e308, -1e300, 0.0, 1e300, 1.5e308]):
        _assert_thresholds_are_the_first_winning_gap(np.array(axis), mine[None], theirs[None], heads[None])


@pytest.mark.parametrize("heads", [True, False])
def test_gap_index_finds_ties_below_the_key(heads):
    # fl(g + a) rounds to b for a few gaps g below b - a, which win on heads. On an axis
    # from 0 to 1, b - a = 0.5 or 0.75 opens a bucket, so the gaps just below it sit in
    # the bucket before and only the race at gap t - 1 shows the guess t too high
    for a, b in ((1.0, 1.5), (-3.0, -2.5), (1e6, 1e6 + 0.75), (1.0, 1.2)):
        key = b - a
        run, up, down = [0.0, key, 1.0], key, key
        for _ in range(12):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            run += [up, down]
        gaps = np.unique(run)
        assert sum((gaps + a) - b == 0.0) > 1
        _assert_thresholds_are_the_first_winning_gap(gaps, np.array([[a]]), np.array([[b]]), np.array([[heads]]))


@pytest.mark.parametrize("axis", FRAGILE_AXES, ids=str)
def test_gap_index_buckets_every_key_in_range(axis):
    gaps = np.unique(FRAGILE_AXES[axis])
    index = mc._GapIndex(gaps)
    assert np.isfinite(index.scale) and index.scale > 0.0 and np.isfinite(index.shift)
    assert len(index.first) == mc._BUCKETS + 2 and np.all(np.diff(index.first) >= 0)
    tiny = np.finfo(float).tiny
    keys = np.array([-np.inf, -np.finfo(float).max, -1e300, -1.0, -tiny, -5e-324, 0.0, 5e-324, tiny, 1.0, 1e300,
                     np.finfo(float).max, np.inf, *gaps])
    with np.errstate(invalid="raise"):
        buckets = index.bucket(keys.copy())
    assert buckets.min() >= 0 and buckets.max() <= mc._BUCKETS + 1
    assert np.all(np.diff(index.bucket(np.sort(keys))) >= 0)  # monotone, so first is a valid guess


FRAGILE_VALUES = {
    "one-value": [0.3],
    "ulps-around-the-candidate": 0.4 + np.arange(-3, 4) * np.spacing(0.4),
    "span-past-float-range": FRAGILE_AXES["span-past-float-range"],
}


@pytest.mark.parametrize("values", FRAGILE_VALUES, ids=str)
@pytest.mark.parametrize("noise", BROADCAST_NOISES + EXTREME_NOISES[::4], ids=lambda m: m.spec)
def test_tally_equals_per_profile_race_on_fragile_axes(noise, values):
    for rival in (0.4, 0.45):  # the candidate, and a rival whose gaps sit elsewhere
        _assert_level_tally_equals_reference(np.asarray(FRAGILE_VALUES[values], dtype=float), rival, 2, noise, 1_200,
                                             31)


def test_few_trials_reach_the_binary_search_on_the_default_grid(monkeypatch):
    # n = 2, normal:1, 20,000 trials on the default grid: the buckets settle all but
    # the trials whose bucket a gap shares, under 2% of the chain-trials
    searched = _spy_on_search(monkeypatch)
    market, noise, trials = MarketConfig(1.0, 2), NoiseModel("normal", 1.0), 20_000
    candidate = solve_equilibrium(market, POWER_TWO, noise)
    verify_best_response(candidate, market, POWER_TWO, noise, mode="montecarlo", trials=trials, seed=1)
    assert 0 < sum(searched) < 0.02 * 2 * trials
