"""Build ``recorded.json``: the simulate and optimal-c cases with their outputs.

The cases come from a fixed generator; the outputs are those of the seqlab
checkout this script runs against. The benchmark's oracle later demands the
recorded simulate counts exactly (the determinism contract fixes them) and
the recorded optimal-c values, or the closed-form optimum, to 1e-6.

    python3 bench/record.py            # rewrites bench/recorded.json

Re-record only when the model itself changes, never to absorb a regression.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from inputs import FAMILIES, POOL_PATH, cost_spec, noise_spec  # noqa: E402
from oracles import ex_ante_revenue_exact, f0  # noqa: E402

MASTER_SEED = 20231004
MC_TRIALS = 1_000_000
MC_VARIANTS = 4
CLI_TRIALS = 20_000
CLI_SIM_CASES = 16
OPTC_CASES = 12  # per value law


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _short(x):
    return float(f"{x:.6g}")


def _simulate(case: dict) -> dict:
    from seqlab import CostModel, MarketConfig, NoiseModel, SimulationSpec, simulate

    spec = SimulationSpec(
        tuple(case["signals"]), MarketConfig(case["v"], case["n"], case["alpha"]),
        CostModel.power(case["cost"]["beta"]), NoiseModel(**case["noise"]),
        trials=case["trials"], seed=case["seed"],
    )
    stats = simulate(spec)
    return dict(case, capture_counts=list(stats.capture_counts),
                per_chain_win_counts=[list(row) for row in stats.per_chain_win_counts])


def simulate_pool(rng) -> list[dict]:
    cases = []
    for family in FAMILIES:
        for n in (1, 2, 3):
            for alpha in (1.0, 0.5):
                for _ in range(MC_VARIANTS):
                    s1 = float(rng.uniform(0.05, 0.6))
                    cases.append(_simulate({
                        "noise": {"family": family, "param": _log_uniform(rng, 0.3, 2.0)},
                        "n": n, "alpha": alpha, "v": _log_uniform(rng, 0.5, 5.0),
                        "cost": {"family": "power", "beta": float(rng.uniform(1.5, 3.0))},
                        "signals": [s1, s1 * float(rng.uniform(0.7, 1.3))],
                        "trials": MC_TRIALS, "seed": int(rng.integers(2**63)),
                    }))
    return cases


def cli_simulate_pool(rng) -> list[dict]:
    cases = []
    for i in range(CLI_SIM_CASES):
        case = _simulate({
            "noise": {"family": FAMILIES[i % 4], "param": _short(_log_uniform(rng, 0.3, 2.0))},
            "n": 1 + i % 2, "alpha": (1.0, 0.5)[(i // 4) % 2], "v": _short(_log_uniform(rng, 0.5, 5.0)),
            "cost": {"family": "power", "beta": _short(rng.uniform(1.5, 3.0))},
            "signals": [_short(rng.uniform(0.05, 0.6)), _short(rng.uniform(0.05, 0.6))],
            "trials": CLI_TRIALS, "seed": int(rng.integers(2**31)),
        })
        case["argv"] = [
            "simulate", "--v", f"{case['v']}", "--chains", str(case["n"]), "--alpha", f"{case['alpha']}",
            "--signals", f"{case['signals'][0]},{case['signals'][1]}", "--cost", cost_spec(case["cost"]),
            "--noise", noise_spec(case["noise"]), "--trials", str(case["trials"]), "--seed", str(case["seed"]),
            "--format", "json",
        ]
        cases.append(case)
    return cases


def _exact_optimum(dist: dict, g: float, fz: float, mode: str) -> tuple[float, float]:
    """Golden-section search of the closed-form revenue over log c."""
    lo, hi = math.log(1e-8 * g * fz), math.log(1e4 * g * fz)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def revenue(u):
        return ex_ante_revenue_exact(dist, g, fz, mode, math.exp(u))

    a, b = lo, hi
    while b - a > 1e-12:
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        if revenue(c) >= revenue(d):
            b = d
        else:
            a = c
    u = 0.5 * (a + b)
    return math.exp(u), revenue(u)


def optimal_c_pool(rng) -> list[dict]:
    from seqlab import ValueDistribution, optimal_c

    cases = []
    for family in ("exp", "lognormal"):
        for _ in range(OPTC_CASES):
            if family == "exp":
                dist = {"family": "exp", "rate": _short(_log_uniform(rng, 0.3, 3.0))}
                law, text = ValueDistribution.exponential(dist["rate"]), f"exp:{dist['rate']}"
            else:
                dist = {"family": "lognormal", "mu": _short(rng.uniform(-1.0, 1.0)),
                        "sigma_log": _short(rng.uniform(0.3, 1.2))}
                law = ValueDistribution.lognormal(dist["mu"], dist["sigma_log"])
                text = f"lognormal:{dist['mu']},{dist['sigma_log']}"
            noise = {"family": FAMILIES[int(rng.integers(4))], "param": _short(_log_uniform(rng, 0.3, 2.0))}
            g = _short(rng.uniform(0.5, 2.0))
            expected = {}
            for mode in ("shared", "separate"):
                fee = optimal_c(law, g, f0(noise), mode)
                c_exact, r_exact = _exact_optimum(dist, g, f0(noise), mode)
                expected[mode] = {"c_star": fee.c_star, "revenue": fee.ex_ante_revenue,
                                  "c_star_exact": c_exact, "revenue_exact": r_exact}
            argv = ["optimal-c", "--cost", f"timeboost:g={g}", "--noise", noise_spec(noise),
                    "--value-dist", text, "--format", "json"]
            cases.append({"dist": dist, "g": g, "noise": noise, "argv": argv, "expected": expected})
    return cases


def main() -> None:
    rng = np.random.default_rng(MASTER_SEED)
    pool = {
        "simulate": simulate_pool(rng),
        "cli_simulate": cli_simulate_pool(rng),
        "optimal_c": optimal_c_pool(rng),
    }
    with open(POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=1)
        handle.write("\n")
    for case in pool["optimal_c"]:
        for mode, e in case["expected"].items():
            print(f"{case['dist']} {mode}: c* rel diff {abs(e['c_star'] / e['c_star_exact'] - 1):.2e}, "
                  f"revenue rel diff {abs(e['revenue'] / e['revenue_exact'] - 1):.2e}")


if __name__ == "__main__":
    main()
