"""Correctness oracles for the benchmark's operations.

Every check compares an output with an independent oracle, not with a byte
digest, so a legitimate numeric improvement still passes:

* FOC (stationarity-condition) equilibria against the closed forms, to 1e-9;
* refund equilibria against the refund stationarity conditions, re-derived
  here from the cost functions;
* best-response certifications against payoffs recomputed here, with a
  refutation counted as a successful certification;
* ``simulate`` counts against the counts recorded when the benchmark was
  defined, exactly, since the determinism contract fixes them;
* ``optimal_c`` against recorded values, or the closed-form optimum, to 1e-6.

Nothing here imports seqlab: the formulas are written out from the model.
"""

from __future__ import annotations

import math

SQRT_2PI = math.sqrt(2.0 * math.pi)
REL = 1e-9


def close(a: float, b: float, rel: float = REL, scale: float = 1e-3) -> bool:
    """``a`` within ``rel`` of ``b``, relative to ``|b|`` floored at ``scale``."""
    return abs(a - b) <= rel * max(abs(b), scale)


# -- model pieces ------------------------------------------------------------

def f0(noise: dict) -> float:
    b = noise["param"]
    if noise["family"] == "normal":
        return 1.0 / (SQRT_2PI * b)
    if noise["family"] == "logistic":
        return 0.25 / b
    return 0.5 / b


def cdf(noise: dict, x: float) -> float:
    b, family = noise["param"], noise["family"]
    if family == "normal":
        return 0.5 * math.erfc(-x / (b * math.sqrt(2.0)))
    if family == "logistic":
        z = x / b
        return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
    if family == "laplace":
        return 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)
    return min(max((x + b) / (2.0 * b), 0.0), 1.0)


def cost(model: dict, s: float) -> float:
    if model["family"] == "power":
        return s ** model["beta"]
    return model["c"] * s / (model["g"] - s)


def marginal(model: dict, s: float) -> float:
    if model["family"] == "power":
        return model["beta"] * s ** (model["beta"] - 1.0)
    return model["c"] * model["g"] / (model["g"] - s) ** 2


def payoff(profile, rival: float, v: float, alpha: float, model: dict, noise: dict) -> float:
    """Trader 1's expected payoff at per-chain signals ``profile``."""
    capture, spend = 1.0, 0.0
    for d in profile:
        win = cdf(noise, d - rival)
        capture *= win
        spend += cost(model, d) * (win + alpha * (1.0 - win))
    return v * capture - spend


def symmetric_profit(signal: float, v: float, n: int, alpha: float, model: dict) -> float:
    return v * 0.5**n - n * 0.5 * (1.0 + alpha) * cost(model, signal)


# -- equilibria --------------------------------------------------------------

def closed_form(model: dict, noise: dict, v: float, n: int) -> tuple[float, float, str]:
    """``(signal, total cost per trader, regime)`` of the full-cost game."""
    fz = f0(noise)
    if model["family"] == "power":
        beta = model["beta"]
        base = fz * v / (2.0 ** (n - 1) * beta)
        signal, per_chain = base ** (1.0 / (beta - 1.0)), base ** (beta / (beta - 1.0))
    else:
        c, g = model["c"], model["g"]
        if n not in (1, 2):
            raise ValueError("boost-fee closed forms cover 1 or 2 chains")
        if v <= n * c / (g * fz):
            return 0.0, 0.0, "zero_investment"
        signal = g - math.sqrt(n * c * g / (fz * v))
        per_chain = max(math.sqrt(n * c * g * fz * v) - n * c, 0.0) / n
    if v * 0.5**n - n * per_chain < 0.0:
        return 0.0, 0.0, "zero_investment"
    return signal, n * per_chain, "interior"


def check_foc(side: dict, model: dict, noise: dict, v: float, n: int) -> bool:
    """``side`` holds ``signal``, ``total_cost`` and ``regime``."""
    signal, total, regime = closed_form(model, noise, v, n)
    return (side["regime"] == regime and close(side["signal"], signal)
            and close(side["total_cost"], total))


def refund_residual(model: dict, noise: dict, v: float, n: int, alpha: float, s: float) -> float:
    fz, c, dc = f0(noise), cost(model, s), marginal(model, s)
    if n == 1:
        return fz * v - (1.0 - alpha) * (fz * c + 0.5 * dc) - alpha * dc
    return fz * (v - 2.0 * c) - (1.0 + alpha) * dc + 2.0 * alpha * fz * c


def check_refund(side: dict, model: dict, noise: dict, v: float, n: int, alpha: float) -> bool:
    """An interior refund signal is a root of its stationarity condition."""
    profit = side["expected_profit"]
    if side["regime"] == "zero_investment":
        return side["signal"] == 0.0 and close(profit, symmetric_profit(0.0, v, n, alpha, model), scale=v)
    s = side["signal"]
    if side["regime"] != "interior" or not s > 0.0:
        return False
    if not close(profit, symmetric_profit(s, v, n, alpha, model), scale=v) or profit < 0.0:
        return False
    if abs(refund_residual(model, noise, v, n, alpha, s)) <= REL * f0(noise) * v:
        return True
    # a steep residual can stop on bracket width; then the root must lie within 1e-9
    lo = refund_residual(model, noise, v, n, alpha, s * (1.0 - REL))
    hi = refund_residual(model, noise, v, n, alpha, s * (1.0 + REL))
    return (lo > 0.0) != (hi > 0.0)


def sweep_point_model(row: dict, base: dict) -> tuple[dict, dict]:
    """The cost and noise a sweep row was solved with."""
    model = dict(base["cost"])
    for key in ("beta", "c", "g"):
        if key in row:
            model[key] = row[key]
    noise = dict(base["noise"], param=row.get("sigma", base["noise"]["param"]))
    return model, noise


def _side(row: dict, prefix: str) -> dict:
    return {
        "signal": row[f"{prefix}_signal"],
        "total_cost": row[f"{prefix}_total_cost"],
        "expected_profit": row[f"{prefix}_expected_profit"],
        "regime": row[f"{prefix}_regime"],
    }


def check_sweep_row(row: dict, call: dict) -> bool:
    model, noise = sweep_point_model(row, call)
    v, n = row.get("v", call.get("v", 1.0)), int(row.get("chains", call.get("chains", 2)))
    alpha = row.get("alpha", call.get("alpha", 1.0))
    sides = ((_side(row, "shared"), 1), (_side(row, "separate"), n))
    if alpha == 1.0:
        return all(check_foc(side, model, noise, v, k) for side, k in sides)
    return all(check_refund(side, model, noise, v, k, alpha) for side, k in sides)


# -- certification -----------------------------------------------------------

def check_certification(s: float, check: dict, inp: dict) -> bool:
    """Baseline and best deviation payoffs recomputed here.

    ``s`` is the candidate signal and ``check`` holds the fields of a
    ``BestResponseCheck``. A positive gain is a finding, not a failure.
    """
    v, n, alpha = inp["v"], inp["n"], inp.get("alpha", 1.0)
    model, noise = inp["cost"], inp["noise"]
    baseline = payoff((s,) * n, s, v, alpha, model, noise)
    best = payoff(check["argmax_deviation"], s, v, alpha, model, noise)
    return (
        check["max_gain"] >= 0.0
        and close(check["baseline_payoff"], baseline, scale=v)
        and close(check["baseline_payoff"] + check["max_gain"], best, scale=v)
        and close(check["epsilon"], 1e-3 * v)
        and check["is_epsilon_equilibrium"] == (check["max_gain"] <= check["epsilon"])
    )


def check_mc_verification(s: float, check: dict, inp: dict) -> bool:
    """Monte Carlo baseline within five standard errors of the exact payoff.

    The payoff lies in ``[-n*C(s), v]``, so its standard deviation is at most
    half that range; the reported epsilon belongs to the best deviation and
    is 0 when that deviation wins every race, so it cannot serve here.
    """
    v, n, alpha = inp["v"], inp["n"], inp["alpha"]
    exact = payoff((s,) * n, s, v, alpha, inp["cost"], inp["noise"])
    max_sd = 0.5 * (v + n * cost(inp["cost"], s))
    return (
        check["mode"] == "montecarlo"
        and check["max_gain"] >= 0.0
        and abs(check["baseline_payoff"] - exact) <= 5.0 * max_sd / math.sqrt(inp["trials"])
        and check["is_epsilon_equilibrium"] == (check["max_gain"] <= check["epsilon"])
    )


# -- recorded outputs --------------------------------------------------------

def check_simulation(capture_counts, win_counts, case: dict) -> bool:
    return (list(capture_counts) == case["capture_counts"]
            and [list(row) for row in win_counts] == case["per_chain_win_counts"])


def check_optimal_c(c_star: float, revenue: float, expected: dict) -> bool:
    """Recorded value, or the closed-form optimum, to 1e-6 relative."""
    c_ok = any(close(c_star, expected[key], rel=1e-6) for key in ("c_star", "c_star_exact"))
    r_ok = any(close(revenue, expected[key], rel=1e-6) for key in ("revenue", "revenue_exact"))
    return c_ok and r_ok


def ex_ante_revenue_exact(dist: dict, g: float, fz: float, mode: str, c: float) -> float:
    """Closed-form expected revenue per bidder for the exp and lognormal laws."""
    k = 1.0 if mode == "shared" else 2.0
    if c <= 0.0:
        return 0.0
    lower = k * c / (g * fz)
    root = math.sqrt(k * c * g * fz)
    if dist["family"] == "exp":
        lam = dist["rate"]
        # E[sqrt(V); V > L] = Gamma(3/2, lam*L) / sqrt(lam)
        x = lam * lower
        upper_gamma = math.sqrt(x) * math.exp(-x) + 0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(x))
        return root * upper_gamma / math.sqrt(lam) - k * c * math.exp(-x)
    mu, sig = dist["mu"], dist["sigma_log"]
    log_l = math.log(lower)

    def phi(z: float) -> float:
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    return (root * math.exp(0.5 * mu + sig * sig / 8.0) * phi((mu + 0.5 * sig * sig - log_l) / sig)
            - k * c * phi((mu - log_l) / sig))


# -- command line ------------------------------------------------------------

def check_cli_result(command: str, result: dict, case: dict) -> bool:
    """Oracle for the ``result`` object of a ``--format json`` run."""
    if command == "equilibrium":
        return check_foc(result, case["cost"], case["noise"], case["v"], case["n"])
    if command == "compare":
        return (check_foc(result["shared"], case["cost"], case["noise"], case["v"], 1)
                and check_foc(result["separate"], case["cost"], case["noise"], case["v"], case["n"]))
    if command == "sweep":
        rows = result["rows"]
        return len(rows) == case["points"] and all(check_sweep_row(row, case) for row in rows)
    if command == "simulate":
        return (result["trials"] == case["trials"]
                and check_simulation(result["capture_counts"], result["per_chain_win_counts"], case))
    if command == "verify":
        signal, _, regime = closed_form(case["cost"], case["noise"], case["v"], case["n"])
        return (result["regime"] == regime and close(result["candidate_signal"], signal)
                and check_certification(result["candidate_signal"], result, case))
    if command == "optimal-c":
        return all(
            check_optimal_c(result[mode]["c_star"], result[mode]["ex_ante_revenue"], case["expected"][mode])
            for mode in ("shared", "separate")
        )
    raise ValueError(f"no oracle for {command!r}")
