"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import ast
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import closed_forms
from seqlab import equilibrium
from seqlab.analysis import ValueDistribution, compare_expenditure, optimal_c
from seqlab.cli import main
from seqlab.cost import CostModel
from seqlab.equilibrium import MarketConfig, Regime, solve_equilibrium
from seqlab.montecarlo import (
    SimulationSpec,
    analytic_expected_payoff,
    simulate,
    verify_best_response,
)
from seqlab.noise import NoiseModel
from seqlab.numerics import bisect_root

# criterion-1 grid: a superset of the required values, 240 tuples >= 200
BETAS = (1.5, 2.0, 3.0, 5.0, 8.0)
VALUES = (0.1, 0.5, 1.0, 2.0)
SIGMAS = (0.1, 0.5, 1.0, 2.0)
CHAINS = (1, 2, 3)

SIGMA_UNIT_F0 = 1.0 / math.sqrt(2.0 * math.pi)
UNIT_NOISE = NoiseModel("normal", SIGMA_UNIT_F0)


def _grid():
    return list(itertools.product(BETAS, VALUES, SIGMAS, CHAINS))


def _solve_grid():
    """Criterion 1's grid, each tuple solved by the FOC solver and by the closed form, and the time taken."""
    rows = []
    start = time.perf_counter()
    for beta, v, sigma, n in _grid():
        via_solver = solve_equilibrium(MarketConfig(v, n), CostModel.power(beta), NoiseModel("normal", sigma))
        via_formula = closed_forms.power(v, n, beta, closed_forms.peak_density("normal", sigma))
        rows.append((beta, v, sigma, n, via_solver, via_formula))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def _disagreements(rows):
    """Labels of the tuples where solver and closed form differ in signal or cost past 1e-9, or in regime."""
    return [
        f"beta={beta} v={v} sigma={sigma} n={n}"
        for beta, v, sigma, n, via_solver, via_formula in rows
        if abs(via_formula.signal - via_solver.signal) > 1e-9
        or abs(via_formula.total_cost - via_solver.total_cost) > 1e-9
        or via_formula.regime != via_solver.regime.value
    ]


@pytest.fixture(scope="module")
def solved_grid():
    return _solve_grid()


def test_criterion_1_closed_form_oracle_agreement(solved_grid):
    rows, elapsed = solved_grid
    assert len(rows) >= 200
    assert _disagreements(rows) == []
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS: closed form vs FOC solver agree to 1e-9 on "
          f"{len(rows)} tuples in {elapsed:.3f}s")


def test_criterion_1_catches_a_doubled_stake(monkeypatch):
    # a stake of f0*v/2**(n-2) in place of f0*v/2**(n-1) must not pass the closed-form check
    stake = equilibrium._stake
    monkeypatch.setattr(equilibrium, "_stake", lambda f0, v, n: 2.0 * stake(f0, v, n))
    rows, _ = _solve_grid()
    assert _disagreements(rows)


def test_closed_form_oracle_imports_only_the_standard_library():
    tree = ast.parse(Path(closed_forms.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.add(node.module.partition(".")[0])
    assert imported and imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


def test_criterion_2_waste_ratio(solved_grid):
    rows, _ = solved_grid
    checked = 0
    by_key = {(beta, v, sigma, n): r for beta, v, sigma, n, r, _ in rows}
    for (beta, v, sigma, n), shared in by_key.items():
        if n != 1 or shared.regime is not Regime.INTERIOR:
            continue
        separate = by_key[(beta, v, sigma, 2)]
        if separate.regime is not Regime.INTERIOR:
            continue
        ratio = shared.total_cost / separate.total_cost
        expected = 2.0 ** (1.0 / (beta - 1.0))
        assert abs(ratio - expected) <= 1e-9, f"beta={beta} v={v} sigma={sigma}"
        assert ratio >= 1.0
        checked += 1
    assert checked > 0
    print(f"\n[criterion 2] PASS: shared/separate cost ratio equals 2^(1/(beta-1)) "
          f"on {checked} interior pairs")


# criterion-3 points: each noise law at unit scale, at (g, v) with g*f0 <= 0.75, so that both sides
# pass the participation test at the flip (the separate side's holds there for g*f0 up to about 1.03)
FLIP_POINTS = [(law, g, v) for law in ("normal", "logistic", "laplace", "uniform")
               for g, v in ((1.0, 1.0), (0.5, 0.2), (1.5, 7.0))]


def _revenue_flips():
    """Per criterion-3 point, the c/g where the solver's separate revenue per bidder meets the shared one.

    Each row also carries the oracle's line at that point.
    """
    rows = []
    for law, g, v in FLIP_POINTS:
        noise, f0 = NoiseModel(law, 1.0), closed_forms.peak_density(law, 1.0)

        def gap(c_over_g):
            report = compare_expenditure(v, CostModel.timeboost(c_over_g * g, g), noise)
            return report.separate_total_expenditure - report.shared_total_expenditure

        # separate sequencing earns more at a tiny fee, and nothing from c/g = f0*v/2 on, where its signal is 0
        flip = bisect_root(gap, 1e-6 * f0 * v, 0.5 * f0 * v)
        rows.append((law, g, v, flip, closed_forms.revenue_threshold(f0, v)))
    return rows


def _flip_disagreements(rows):
    """Labels of the points where the solver's flip and the oracle's line differ past 1e-12 relative."""
    return [f"{law} g={g} v={v}: flip {flip!r}, line {line!r}"
            for law, g, v, flip, line in rows if abs(flip - line) > 1e-12 * line]


def test_criterion_3_revenue_threshold_constant():
    rows = _revenue_flips()
    assert _flip_disagreements(rows) == []
    # the paper prints the normal-noise line as c/g = 0.068447 * v/sigma
    normal_line = closed_forms.revenue_threshold(closed_forms.peak_density("normal", 1.0), 1.0)
    assert abs(normal_line - 0.068447) <= 1e-5
    worst = max(abs(flip - line) / line for *_, flip, line in rows)
    print(f"\n[criterion 3] PASS: the solver's revenue flip meets (3-2*sqrt(2))*f0*v to {worst:.1e} "
          f"relative at {len(rows)} points under 4 noise laws; the normal line {normal_line:.7f} "
          f"matches the printed 0.068447 to 1e-5")


def test_criterion_3_catches_a_doubled_stake(monkeypatch):
    # a stake of f0*v/2**(n-2) in place of f0*v/2**(n-1) doubles the flip, which must not pass the check
    stake = equilibrium._stake
    monkeypatch.setattr(equilibrium, "_stake", lambda f0, v, n: 2.0 * stake(f0, v, n))
    rows = _revenue_flips()
    assert len(_flip_disagreements(rows)) == len(rows)
    # where twice g*f0 is at most 1, both sides still pass the participation test at the doubled flip
    doubled = [(flip, line) for law, g, _, flip, line in rows if 2.0 * g * closed_forms.peak_density(law, 1.0) <= 1.0]
    assert len(doubled) == 9
    assert all(abs(flip - 2.0 * line) <= 1e-12 * line for flip, line in doubled)


def test_criterion_4_optimal_c_equivalence():
    distributions = [
        ("point mass at 1", ValueDistribution.point_masses([(1.0, 1.0)])),
        ("exponential(1)", ValueDistribution.exponential(1.0)),
        ("lognormal(0, 0.5)", ValueDistribution.lognormal(0.0, 0.5)),
    ]
    lines = []
    for label, dist in distributions:
        start = time.perf_counter()
        shared = optimal_c(dist, 1.0, 1.0, "shared")
        separate = optimal_c(dist, 1.0, 1.0, "separate")
        elapsed = time.perf_counter() - start
        assert abs(shared.ex_ante_revenue - separate.ex_ante_revenue) <= 1e-6, label
        assert abs(separate.c_star - shared.c_star / 2.0) <= 1e-6 * shared.c_star, label
        assert elapsed < 5.0, label
        lines.append(f"{label}: revenue {shared.ex_ante_revenue:.9f}, "
                     f"c* {shared.c_star:.9f}/{separate.c_star:.9f}, {elapsed:.2f}s")
    print("\n[criterion 4] PASS: optimally tuned fee revenue matches across modes; "
          + "; ".join(lines))


def test_criterion_5_refund_extension():
    cost = CostModel.power(2.0)
    # alpha = 1 reproduces the baseline; alpha just below 1 takes the bisection path
    base_shared = solve_equilibrium(MarketConfig(1.0, 1), cost, UNIT_NOISE)
    base_separate = solve_equilibrium(MarketConfig(1.0, 2), cost, UNIT_NOISE)
    for alpha in (1.0, 1.0 - 1e-9):
        refund_shared = solve_equilibrium(MarketConfig(1.0, 1, alpha), cost, UNIT_NOISE)
        assert abs(refund_shared.signal - base_shared.signal) <= 1e-9, alpha
        refund_separate = solve_equilibrium(MarketConfig(1.0, 2, alpha), cost, UNIT_NOISE)
        assert abs(refund_separate.signal - base_separate.signal) <= 1e-9, alpha

    # alpha = 0 closed-form roots
    full_refund_shared = solve_equilibrium(MarketConfig(1.0, 1, 0.0), cost, UNIT_NOISE)
    assert abs(full_refund_shared.signal - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-9
    full_refund_separate = solve_equilibrium(MarketConfig(1.0, 2, 0.0), cost, UNIT_NOISE)
    assert abs(full_refund_separate.signal - (math.sqrt(3.0) - 1.0) / 2.0) <= 1e-9

    # monotone in alpha for each elasticity
    alphas = [round(0.1 * k, 1) for k in range(11)]
    for beta in (2.0, 3.0, 5.0):
        model = CostModel.power(beta)
        shared_signals = [
            solve_equilibrium(MarketConfig(1.0, 1, a), model, UNIT_NOISE).signal
            for a in alphas
        ]
        separate_signals = [
            solve_equilibrium(MarketConfig(1.0, 2, a), model, UNIT_NOISE).signal
            for a in alphas
        ]
        assert all(hi >= lo - 1e-12 for hi, lo in zip(shared_signals, shared_signals[1:])), beta
        assert all(hi >= lo - 1e-12 for hi, lo in zip(separate_signals, separate_signals[1:])), beta
    print("\n[criterion 5] PASS: refund equilibria match the baseline at alpha=1 and 1-1e-9, hit the "
          "alpha=0 roots to 1e-9, and are non-increasing in alpha for beta in {2, 3, 5}")


def test_criterion_6_monte_carlo_calibration():
    lines = []
    for n in (1, 2, 3):
        target = 0.5**n
        start = time.perf_counter()
        spec = SimulationSpec(
            (0.25, 0.25), MarketConfig(1.0, n), CostModel.power(2.0), UNIT_NOISE,
            trials=10**6, seed=42,
        )
        stats = simulate(spec)
        elapsed = time.perf_counter() - start
        halfwidth = 1.96 * math.sqrt(target * (1.0 - target) / 10**6)
        error = abs(stats.capture_probability[0] - target)
        assert error <= halfwidth, f"n={n}: error {error} exceeds {halfwidth}"
        assert elapsed < 10.0
        lines.append(f"n={n}: {stats.capture_probability[0]:.6f} vs {target} "
                     f"(ci {halfwidth:.6f}, {elapsed:.2f}s)")
    print("\n[criterion 6] PASS: capture probabilities within the binomial CI at 1e6 trials; "
          + "; ".join(lines))


def test_criterion_7_best_response_verification(solved_grid):
    rows, _ = solved_grid
    checked = 0
    worst = -math.inf
    for beta, v, sigma, n, via_solver, _ in rows:
        if via_solver.regime is not Regime.INTERIOR:
            continue
        market = MarketConfig(v, n)
        check = verify_best_response(
            via_solver, market, CostModel.power(beta), NoiseModel("normal", sigma)
        )
        assert check.max_gain <= 1e-3 * v, (
            f"beta={beta} v={v} sigma={sigma} n={n}: gain {check.max_gain} at {check.argmax_deviation}"
        )
        worst = max(worst, check.max_gain / v)
        checked += 1
    assert checked > 0
    print(f"\n[criterion 7] PASS: analytic deviation scans (the 301-point grid's level "
          f"rows) certify {checked} interior equilibria; "
          f"worst relative gain {worst:.2e}")


def test_criterion_8_payoff_oracle_consistency():
    rng = np.random.default_rng(8)
    inside = 0
    for i in range(20):
        n = 1 + (i % 2)
        alpha = (1.0, 0.5)[(i // 2) % 2]
        signals = tuple(rng.uniform(0.0, 1.0, size=2).round(6))
        market = MarketConfig(1.0, n, alpha)
        spec = SimulationSpec(
            signals, market, CostModel.power(2.0), UNIT_NOISE, trials=10**6, seed=100 + i
        )
        stats = simulate(spec)
        analytic = analytic_expected_payoff(signals, market, CostModel.power(2.0), UNIT_NOISE)
        if abs(stats.mean_payoff[0] - analytic) <= stats.payoff_ci_halfwidth[0]:
            inside += 1
    assert inside >= 18
    print(f"\n[criterion 8] PASS: analytic payoff inside the 95% CI in {inside}/20 "
          f"random signal configurations at 1e6 trials")


def test_criterion_9_reproducibility(capsys, tmp_path):
    invocations = [
        ["equilibrium", "--v", "1", "--chains", "2", "--cost", "power:2",
         "--noise", "normal:0.5", "--format", "json"],
        ["simulate", "--v", "1", "--chains", "2", "--signals", "0.25,0.25",
         "--cost", "power:2", "--noise", "normal:0.5", "--trials", "50000",
         "--seed", "9", "--format", "json"],
        ["simulate", "--v", "1", "--chains", "2", "--signals", "0.25,0.25",
         "--cost", "power:2", "--noise", "normal:0.5", "--trials", "50000",
         "--seed", "9", "--format", "csv"],
        ["sweep", "--cost", "power:2", "--noise", "normal:1.0",
         "--grid", "v=0.5:0.5:2", "--format", "csv"],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], argv
    print("\n[criterion 9] PASS: repeated invocations are byte-identical in json and csv")
