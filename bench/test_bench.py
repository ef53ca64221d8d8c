"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

They check the tracer against work of known size, that tracing changes no
checked output, and that the traced run's counts repeat exactly.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_simulate_draws_one_stream_call_per_chunk():
    from seqlab import CostModel, MarketConfig, NoiseModel, SimulationSpec, montecarlo

    trials = 200_000
    spec = SimulationSpec((0.3, 0.2), MarketConfig(1.0, 2), CostModel.power(2.0), NoiseModel("normal", 1.0),
                          trials=trials, seed=5)
    tracer = Tracer().install()
    try:
        montecarlo.simulate(spec)
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    chunks = math.ceil(trials / 65536)
    assert names.count("rng.uniform_stream") == chunks
    assert names.count("rng.raw_words") == chunks
    assert tracer.counts["rng.words"] == trials * 2 * 3
    assert tracer.distinct_words() == trials * 2 * 3
    assert montecarlo.simulate is not None and not hasattr(montecarlo.simulate, "__wrapped__")


def test_self_time_subtracts_children_and_distinct_words_merge():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    tracer.intervals[7] = [(0, 10), (5, 15), (20, 30)]
    tracer.intervals[8] = [(0, 10)]
    assert tracer.distinct_words() == 15 + 10 + 10


@pytest.mark.parametrize("workload", ["grid-solve", "mc-oracle"])
def test_tracing_changes_no_checked_output(workload):
    inp = inputs.ROUNDS[workload](3, 0)
    run_round = run.run_grid_round if workload == "grid-solve" else run.run_mc_round
    plain, traced = run.Tally(), run.Tally()
    run_round(inp, plain)
    tracer = Tracer().install()
    try:
        run_round(inp, traced, tracer)
    finally:
        tracer.remove()
    assert plain.failed == 0 and plain.attempted > 0
    assert (plain.attempted, plain.failed, plain.refuted) == (traced.attempted, traced.failed, traced.refuted)


@pytest.mark.parametrize("workload", ["grid-solve", "mc-oracle"])
def test_count_metrics_repeat_exactly(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_ROUNDS", {**run.TRACE_ROUNDS, workload: 1})
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    counts = []
    for _ in range(2):
        report = run.trace(workload, 4, tmp_path, run.Tally())
        counts.append({name: value for name, value, unit, _ in report.rows if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["cost.calls"] > 0
    if workload == "mc-oracle":
        assert counts[0]["rng.words_drawn"] > 0


def test_refutation_is_a_finding_not_a_failure():
    # the payoff is not concave for n >= 2: the scan finds a deviation gaining about 0.051
    case = {"n": 2, "v": 5.0, "alpha": 1.0, "cost": {"family": "power", "beta": 1.2},
            "noise": {"family": "normal", "param": 1.0}}
    tally = run.Tally()
    result, check = run._certify(case)
    assert result.regime.value == "interior" and check.max_gain > 0.05
    tally.record(oracles.check_certification(result.signal, vars(check), case), "refuted candidate")
    assert tally.failed == 0 and not check.is_epsilon_equilibrium


def test_stratified_draws_cover_each_slice_once_per_block():
    for k in range(3):
        slices = []
        for r in range(8, 8 + inputs.STRATA):
            rng = inputs._Stratified(5, r, "grid-solve")
            for _ in range(k):
                rng.uniform(0.0, 1.0)
            slices.append(int(rng.uniform(0.0, 1.0) * inputs.STRATA))
        assert sorted(slices) == list(range(inputs.STRATA))
    assert inputs.grid_round(5, 9) == inputs.grid_round(5, 9) != inputs.grid_round(6, 9)


def test_normalisation_divides_times_and_keeps_counts():
    times = {"foc": 2.0, "refund": 4.0, "certify": 1.0, "optc": [0.5, 1.0], "foc_points": 64, "refund_points": 32}
    assert run.scaled(times, 2.0) == {"foc": 1.0, "refund": 2.0, "certify": 0.5, "optc": [0.25, 0.5],
                                      "foc_points": 64, "refund_points": 32}
    speed = run.Speed()
    assert speed.normalize(1.0) > 0.0 and len(speed.samples) == 1
