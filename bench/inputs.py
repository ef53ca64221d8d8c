"""Seeded inputs for the benchmark workloads.

Inputs are a pure function of ``(seed, round)``: the same seed gives the same
inputs, and seqlab receives only the generated values. Simulate and
optimal-c cases are drawn from ``recorded.json``, a pool whose outputs were
recorded when the benchmark was defined (see ``record.py``), so their oracle
can demand exact counts; the seed picks which pool entries a round uses.

Numbers handed to the command line carry six significant digits, so that the
12-digit echo in ``--format json`` replays the identical run.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

FAMILIES = ("normal", "logistic", "laplace", "uniform")
POOL_PATH = Path(__file__).with_name("recorded.json")

MC_VERIFY_TRIALS = 20_000
# chains per family in an mc-oracle round; rotating it keeps every round at
# the same family mix and the same number of races
MC_CHAIN_PATTERN = (1, 2, 3, 2)
CERT_CHAINS = (1, 2, 3, 4, 5)

_STREAM = {"cli-cold": 1, "grid-solve": 2, "mc-oracle": 3}


def _rng(seed: int, r: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, r, _STREAM[workload]])


STRATA = 8


class _Stratified:
    """Uniform draws for round ``r``, stratified over blocks of STRATA rounds.

    The k-th draw of the rounds of one block falls once into each of STRATA
    equal slices of its range, in a seeded order. Every block thus covers
    each parameter's range evenly, and a run's median round cost depends
    little on the seed. Offers the two ``Generator`` methods the round
    builders use.
    """

    def __init__(self, seed: int, r: int, workload: str) -> None:
        block, self._slot = divmod(r, STRATA)
        self._block = [seed, block, _STREAM[workload]]
        self._jitter = _rng(seed, r, workload)
        self._k = 0

    def _unit(self) -> float:
        order = np.random.default_rng([*self._block, self._k]).permutation(STRATA)
        self._k += 1
        return (order[self._slot] + self._jitter.random()) / STRATA

    def uniform(self, lo: float, hi: float, size=None):
        if size is None:
            return lo + (hi - lo) * self._unit()
        return np.array([self.uniform(lo, hi) for _ in range(size)])

    def integers(self, high: int) -> int:
        return int(self._unit() * high)


def _log_uniform(rng, lo: float, hi: float, size=None):
    out = np.exp(rng.uniform(math.log(lo), math.log(hi), size))
    return out.tolist() if size is not None else float(out)


def _short(x: float) -> float:
    return float(f"{x:.6g}")


@lru_cache(maxsize=1)
def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _pick(rng, items: list):
    return items[int(rng.integers(len(items)))]


# -- specs -------------------------------------------------------------------

def cost_spec(model: dict) -> str:
    if model["family"] == "power":
        return f"power:{model['beta']:.12g}"
    return f"timeboost:c={model['c']:.12g},g={model['g']:.12g}"


def noise_spec(noise: dict) -> str:
    return f"{noise['family']}:{noise['param']:.12g}"


# Family choices rotate with the round instead of being drawn, so every round
# costs about the same and a run's medians barely depend on the seed.

def _cost(rng, which: int, beta_lo: float, beta_hi: float, short: bool = False) -> dict:
    fmt = _short if short else float
    if which == 0:
        return {"family": "power", "beta": fmt(rng.uniform(beta_lo, beta_hi))}
    return {"family": "timeboost", "c": fmt(_log_uniform(rng, 0.02, 0.5)), "g": fmt(rng.uniform(0.5, 2.0))}


def _noise(rng, which: int, lo: float, hi: float, short: bool = False) -> dict:
    fmt = _short if short else float
    return {"family": FAMILIES[which], "param": fmt(_log_uniform(rng, lo, hi))}


# -- grid-solve --------------------------------------------------------------

def grid_round(seed: int, r: int) -> dict:
    """FOC and refund sweeps over both cost families and all noise families,
    one certification per chain count 1-5, and two optimal-c searches."""
    rng = _Stratified(seed, r, "grid-solve")
    foc, refund = [], []
    for cost_family in ("power", "timeboost"):
        for family in FAMILIES:
            noise = {"family": family, "param": 1.0}
            if cost_family == "power":
                base = {"family": "power", "beta": 2.0}
                shape = {"beta": sorted(rng.uniform(1.5, 4.0, 2).tolist())}
                refund_shape = {"beta": [float(rng.uniform(1.5, 4.0))]}
            else:
                base = {"family": "timeboost", "c": 0.1, "g": 1.0}
                shape = {"c": sorted(_log_uniform(rng, 0.02, 0.5, 2)), "g": [float(rng.uniform(0.5, 2.0))]}
                refund_shape = {"c": [_log_uniform(rng, 0.02, 0.5)], "g": [float(rng.uniform(0.5, 2.0))]}
            foc.append({
                "cost": base, "noise": noise, "alpha": 1.0,
                "axes": {"v": sorted(_log_uniform(rng, 0.2, 20.0, 4)), **shape,
                         "sigma": sorted(_log_uniform(rng, 0.2, 2.0, 2)), "chains": [1, 2]},
            })
            refund.append({
                "cost": base, "noise": noise, "alpha": 1.0,
                "axes": {"v": sorted(_log_uniform(rng, 0.2, 20.0, 2)), **refund_shape,
                         "sigma": [_log_uniform(rng, 0.2, 2.0)],
                         "alpha": [float(rng.uniform(0.05, 0.95))], "chains": [1, 2]},
            })
    certs = [
        {"n": n, "v": _log_uniform(rng, 0.05, 20.0), "alpha": 1.0,
         "cost": _cost(rng, (n + r) % 2, 1.2, 5.0), "noise": _noise(rng, (n + r) % 4, 0.1, 2.0)}
        for n in CERT_CHAINS
    ]
    pool = load_pool()["optimal_c"]
    optc = []
    for i, family in enumerate(("exp", "lognormal")):
        case = _pick(rng, [c for c in pool if c["dist"]["family"] == family])
        optc.append({"case": case, "mode": ("shared", "separate")[(i + r) % 2]})
    return {"foc": foc, "refund": refund, "certs": certs, "optc": optc}


def sweep_points(call: dict) -> int:
    return math.prod(len(values) for values in call["axes"].values())


# -- mc-oracle ---------------------------------------------------------------

def mc_round(seed: int, r: int) -> dict:
    """One simulate per noise family (chains 1-3, alpha 1 or 0.5, from the
    recorded pool) and one Monte Carlo verification at n = 2."""
    rng = _rng(seed, r, "mc-oracle")
    pool = load_pool()["simulate"]
    sims = []
    for i, family in enumerate(FAMILIES):
        n = MC_CHAIN_PATTERN[(i + r) % len(MC_CHAIN_PATTERN)]
        alpha = (1.0, 0.5)[(i + r // 2) % 2]
        sims.append(_pick(rng, [c for c in pool if (c["noise"]["family"], c["n"], c["alpha"]) == (family, n, alpha)]))
    verify = {
        "n": 2, "v": _log_uniform(rng, 0.5, 5.0), "alpha": (1.0, 0.5)[r % 2],
        "cost": {"family": "power", "beta": float(rng.uniform(1.5, 3.0))},
        "noise": _noise(rng, r % 4, 0.3, 2.0), "trials": MC_VERIFY_TRIALS,
        "seed": int(rng.integers(2**63)),
    }
    return {"sims": sims, "verify": verify}


# -- cli-cold ----------------------------------------------------------------

def _malformed(rng, v: float) -> list[str]:
    """An invocation that must end with exit code 2."""
    good = ["--cost", "power:2", "--noise", "normal:1", "--format", "json"]
    kinds = [
        ["equilibrium", "--v", f"{v}", "--cost", "power:0.5", "--noise", "normal:1", "--format", "json"],
        ["equilibrium", "--v", f"{v}", "--cost", "power:2", "--noise", "gauss:1", "--format", "json"],
        ["compare", "--v", f"{-v}", *good],
        ["sweep", "--grid", f"v={v}:-0.5:{v + 1}", *good],
        ["simulate", "--v", f"{v}", "--signals", "0.1,0.2,0.3", *good],
        ["verify", "--v", f"{v}", "--cost", "timeboost:c=0.1", "--noise", "normal:1", "--format", "json"],
        ["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1", "--value-dist", f"exp:{-v}",
         "--format", "json"],
        ["equilibrium", "--v", f"{v}", "--g", "1", *good],
    ]
    return _pick(rng, kinds)


def cli_round(seed: int, r: int) -> list[dict]:
    """Six first runs (one per subcommand, each replayed from its JSON by the
    runner) and one malformed run."""
    rng = _rng(seed, r, "cli-cold")
    pool = load_pool()
    ops = []

    def solve_case(n: int, k: int) -> dict:
        return {"v": _short(_log_uniform(rng, 0.2, 10.0)), "n": n, "alpha": 1.0,
                "cost": _cost(rng, (k + r) % 2, 1.5, 4.0, short=True),
                "noise": _noise(rng, (k + r) % 4, 0.2, 2.0, short=True)}

    def solve_argv(command: str, case: dict) -> list[str]:
        return [command, "--v", f"{case['v']}", "--chains", str(case["n"]), "--cost", cost_spec(case["cost"]),
                "--noise", noise_spec(case["noise"]), "--format", "json"]

    case = solve_case(1 + r % 2, 0)
    ops.append({"command": "equilibrium", "argv": solve_argv("equilibrium", case), "case": case})
    case = solve_case(2, 1)
    ops.append({"command": "compare", "argv": solve_argv("compare", case), "case": case})

    case = solve_case(2 - r % 2, 2)
    start, step, count = _short(_log_uniform(rng, 0.2, 2.0)), _short(rng.uniform(0.1, 1.0)), 5
    case.update(points=count, chains=case["n"])
    argv = ["sweep", "--cost", cost_spec(case["cost"]), "--noise", noise_spec(case["noise"]),
            "--chains", str(case["n"]), "--grid", f"v={start}:{step}:{start + (count - 0.5) * step:.6g}",
            "--format", "json"]
    ops.append({"command": "sweep", "argv": argv, "case": case})

    sim = _pick(rng, pool["cli_simulate"])
    ops.append({"command": "simulate", "argv": sim["argv"], "case": sim})

    case = solve_case(1 + r % 2, 3)
    ops.append({"command": "verify", "argv": solve_argv("verify", case), "case": case})

    opt = _pick(rng, pool["optimal_c"])
    ops.append({"command": "optimal-c", "argv": opt["argv"], "case": opt})

    ops.append({"command": "malformed", "argv": _malformed(rng, _short(_log_uniform(rng, 0.2, 10.0))), "case": None})
    return ops


ROUNDS = {"cli-cold": cli_round, "grid-solve": grid_round, "mc-oracle": mc_round}


def generate(workload: str, seed: int, rounds: int) -> list:
    """The first ``rounds`` rounds of a workload's inputs."""
    return [ROUNDS[workload](seed, r) for r in range(rounds)]
