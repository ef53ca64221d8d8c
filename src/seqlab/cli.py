"""Command-line surface.

Subcommands: ``equilibrium``, ``compare``, ``sweep``, ``simulate``,
``verify``, ``optimal-c``. Each emits a table (default), JSON, or CSV.

JSON output is a single object with stable keys ``command``, ``params``, and
``result``; reals carry 12 significant digits, and feeding an emitted JSON
file back through ``--config`` reproduces the identical run byte for byte.
Config files may also be flat ``key = value`` lines (flag names without the
leading dashes, ``#`` comments, repeated ``grid`` lines allowed).

Exit codes: 0 success, 1 solver failure, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import replace

from . import analysis, montecarlo
from .cost import CostModel, parse_cost, tokenize_cost
from .equilibrium import MarketConfig, solve_equilibrium
from .errors import ConfigError, DomainError, ParameterError, SolverError
from .noise import parse_noise

COMMANDS = ("equilibrium", "compare", "sweep", "simulate", "verify", "optimal-c")

_REJECTED_FLAG_HELP = "rejected; pass TimeBoost parameters via --cost timeboost:c=...,g=..."

# every sweep row is a full shared-vs-separate solve; larger grids are typos
_MAX_SWEEP_ROWS = 10**6


class _CliParser(argparse.ArgumentParser):
    """Argparse that raises ConfigError instead of exiting on bad input."""

    def error(self, message):
        raise ConfigError(message)


#: add_argument options of the flags commands pick from, in help order
_FLAGS = {
    "v": dict(type=float, help="arbitrage value of the trade (required)"),
    "chains": dict(type=int, help="number of chains that must be won"),
    "alpha": dict(type=float, help="fraction of cost paid on losing (default 1)"),
    "cost": dict(metavar="SPEC", help="cost spec: power:BETA or timeboost:c=C,g=G, optional ,cap=CAP "
                                      "(required; simulate defaults to power:2.0)"),
    "noise": dict(metavar="SPEC", help="noise spec: normal:SIGMA, logistic:S, laplace:S, uniform:HALFWIDTH "
                                       "(required; simulate defaults to normal:1.0)"),
    "cap": dict(type=float, help="hard cap on the signal (overrides the cost spec)"),
    "signals": dict(help="comma-separated signals: one per trader, or trader-major one per trader per chain"),
    "trials": dict(type=int, help="Monte Carlo trials (default 100000)"),
    "seed": dict(type=int, help="64-bit seed for counter-based randomness (default 0)"),
    "grid": dict(action="append", metavar="AXIS=START:STEP:STOP",
                 help="sweep axis (repeatable); AXIS=VALUE gives a single point"),
    "value_dist": dict(metavar="SPEC", help="trade-value law: exp:RATE, lognormal:MU,SIGMA, points:V1@W1,V2@W2 "
                                            "(required)"),
}


def _add_common(parser: _CliParser, *flags: str) -> None:
    arg = parser.add_argument
    for name, options in _FLAGS.items():
        if name in flags:
            arg("--" + name.replace("_", "-"), default=None, **options)
    arg("--format", choices=("table", "json", "csv"), default=None, help="output format (default table)")
    arg("--out", default=None, help="output path (default standard output)")
    arg("--config", default=None, help="config file: flat key=value lines or a previously emitted JSON run")
    arg("--g", type=float, default=None, help=_REJECTED_FLAG_HELP)
    arg("--c", type=float, default=None, help=_REJECTED_FLAG_HELP)


_COMMAND_FLAGS = {
    "equilibrium": ("v", "chains", "alpha", "cost", "noise", "cap"),
    "compare": ("v", "chains", "alpha", "cost", "noise", "cap"),
    "sweep": ("v", "chains", "alpha", "cost", "noise", "cap", "grid"),
    "simulate": ("v", "chains", "alpha", "cost", "noise", "cap", "signals", "trials", "seed"),
    "verify": ("v", "chains", "alpha", "cost", "noise", "cap", "trials", "seed"),
    "optimal-c": ("cost", "noise", "value_dist"),
}

_DEFAULTS = {
    "equilibrium": {"chains": 1, "alpha": 1.0},
    "compare": {"chains": 2, "alpha": 1.0},
    "sweep": {"v": 1.0, "chains": 2, "alpha": 1.0},
    "simulate": {"chains": 1, "alpha": 1.0, "trials": 100_000, "seed": 0,
                 "cost": "power:2.0", "noise": "normal:1.0"},
    "verify": {"chains": 1, "alpha": 1.0, "trials": 100_000, "seed": 0, "mode": "analytic"},
    "optimal-c": {"mode": "both"},
}


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="seqlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} computation")
        _add_common(p, *_COMMAND_FLAGS[command])
        if command == "verify":
            p.add_argument("--mode", choices=("analytic", "montecarlo"), default=None,
                           help="payoff evaluation mode for the deviation scan")
        if command == "optimal-c":
            p.add_argument("--mode", choices=("shared", "separate", "both"), default=None,
                           help="which sequencing mode(s) to optimize")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed JSON: {exc}") from None
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{path}: 'params' must be a JSON object, got {params!r}")
        if "command" in payload:
            params["command"] = payload["command"]
        return params
    params: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key == "grid":
            params.setdefault("grid", []).append(value)
        else:
            params[key] = value
    return params


_CASTS = {
    "v": float, "alpha": float, "cap": float, "chains": int,
    "trials": int, "seed": int,
}


def _merge_config(args: argparse.Namespace, params: dict) -> None:
    for key, value in params.items():
        if key == "command":
            continue
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"config key {key!r} is not a flag of the {args.command} command")
        if getattr(args, attr) is None:
            if attr == "grid" and not isinstance(value, list):
                value = [value]
            elif attr in _CASTS and isinstance(value, (str, bool)):
                kind = "an integer" if _CASTS[attr] is int else "a number"
                if isinstance(value, bool):  # JSON true and false are ints to Python
                    raise ConfigError(f"config key {key!r} needs {kind}, got {json.dumps(value)}")
                try:
                    value = _CASTS[attr](value)
                except ValueError:
                    raise ConfigError(f"config key {key!r} needs {kind}, got {value!r}") from None
            setattr(args, attr, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required for {args.command!r}")


def _resolve_cost(args: argparse.Namespace) -> CostModel:
    model = parse_cost(args.cost)
    return model if args.cap is None else replace(model, cap=args.cap)


def _parse_signals(text: str, n_chains: int):
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad --signals list {text!r}") from None
    if len(values) == 2:
        return values[0], values[1]
    if len(values) == 2 * n_chains:
        return tuple(values[:n_chains]), tuple(values[n_chains:])
    raise ConfigError(
        f"--signals needs 2 values (one per trader) or {2 * n_chains} (trader-major per chain), got {len(values)}"
    )


def _parse_grid(specs: list[str]) -> dict:
    """Axis value lists from ``axis=start:step:stop`` or ``axis=value`` specs.

    The row count is checked against :data:`_MAX_SWEEP_ROWS` before any list
    is built.
    """
    ranges: dict = {}  # axis -> (start, step or None for a single value, count)
    for spec in specs:
        axis, sep, rng = spec.partition("=")
        axis = axis.strip().replace("-", "_")
        if not sep:
            raise ConfigError(f"grid spec {spec!r} must look like axis=start:step:stop")
        parts = rng.split(":")
        try:
            if len(parts) == 1:
                ranges[axis] = (float(parts[0]), None, 1)
            elif len(parts) == 3:
                start, step, stop = (float(p) for p in parts)
                if step <= 0 or stop < start:
                    raise ConfigError(f"grid spec {spec!r} needs step > 0 and stop >= start")
                ranges[axis] = (start, step, int((stop - start) / step + 1e-9) + 1)
            else:
                raise ValueError(rng)
        except (ValueError, OverflowError):
            raise ConfigError(f"bad grid range {rng!r} in {spec!r}") from None
    rows = math.prod(count for _, _, count in ranges.values())
    if rows > _MAX_SWEEP_ROWS:
        raise ConfigError(f"the sweep grid has {rows} rows; at most {_MAX_SWEEP_ROWS} are allowed")
    return {
        axis: [start] if step is None else [start + i * step for i in range(count)]
        for axis, (start, step, count) in ranges.items()
    }


def _equilibrium_dict(result) -> dict:
    return {
        "signal": result.signal,
        "per_chain_cost": result.per_chain_cost,
        "total_cost": result.total_cost_per_trader,
        "capture_probability": result.capture_probability,
        "expected_profit": result.expected_profit,
        "regime": result.regime.value,
        "participation": result.participation_satisfied,
    }


def _comparison_dict(report) -> dict:
    out = {
        "shared": _equilibrium_dict(report.shared_result),
        "separate": _equilibrium_dict(report.separate_result),
        "shared_total_expenditure": report.shared_total_expenditure,
        "separate_total_expenditure": report.separate_total_expenditure,
        "ratio": report.expenditure_ratio,
        "interpretation": report.interpretation,
        "capture_probability_shared": report.capture_probability_shared,
        "capture_probability_separate": report.capture_probability_separate,
        "displayed_thresholds": report.displayed_thresholds,
    }
    if report.cap_condition_holds is not None:
        out["cap_condition_holds"] = report.cap_condition_holds
        out["separate_exceeds_shared"] = report.separate_exceeds_shared
    return out


def _run_equilibrium(args) -> dict:
    _require(args, "v", "cost", "noise")
    market = MarketConfig(args.v, args.chains, args.alpha)
    result = solve_equilibrium(market, _resolve_cost(args), parse_noise(args.noise))
    return _equilibrium_dict(result)


def _run_compare(args) -> dict:
    _require(args, "v", "cost", "noise")
    report = analysis.compare_expenditure(
        args.v, _resolve_cost(args), parse_noise(args.noise), args.alpha,
        separate_chains=args.chains,
    )
    return _comparison_dict(report)


def _run_sweep(args) -> dict:
    _require(args, "cost", "noise", "grid")
    axes = _parse_grid(args.grid)
    rows = analysis.sweep(
        axes, v=args.v, cost=_resolve_cost(args), noise=parse_noise(args.noise),
        alpha=args.alpha, chains=args.chains,
    )
    return {"rows": rows}


def _run_simulate(args) -> dict:
    _require(args, "v", "cost", "noise", "signals")
    market = MarketConfig(args.v, args.chains, args.alpha)
    signals = _parse_signals(args.signals, market.n_chains)
    spec = montecarlo.SimulationSpec(
        signals, market, _resolve_cost(args), parse_noise(args.noise),
        trials=args.trials, seed=args.seed,
    )
    stats = montecarlo.simulate(spec)
    return {
        "trials": stats.trials,
        "capture_counts": list(stats.capture_counts),
        "per_chain_win_counts": [list(row) for row in stats.per_chain_win_counts],
        "capture_probability": list(stats.capture_probability),
        "capture_ci_halfwidth": list(stats.capture_ci_halfwidth),
        "mean_payoff": list(stats.mean_payoff),
        "payoff_ci_halfwidth": list(stats.payoff_ci_halfwidth),
    }


def _run_verify(args) -> dict:
    _require(args, "v", "cost", "noise")
    market = MarketConfig(args.v, args.chains, args.alpha)
    cost = _resolve_cost(args)
    noise = parse_noise(args.noise)
    candidate = solve_equilibrium(market, cost, noise)
    check = montecarlo.verify_best_response(
        candidate, market, cost, noise, mode=args.mode, trials=args.trials, seed=args.seed,
    )
    return {
        "candidate_signal": candidate.signal,
        "regime": candidate.regime.value,
        "baseline_payoff": check.baseline_payoff,
        "max_gain": check.max_gain,
        "argmax_deviation": list(check.argmax_deviation),
        "epsilon": check.epsilon,
        "is_epsilon_equilibrium": check.is_epsilon_equilibrium,
        "mode": check.mode,
    }


def _run_optimal_c(args) -> dict:
    _require(args, "cost", "noise", "value_dist")
    # c is the decision variable, so only g is read from the cost spec
    family, fields, positional = tokenize_cost(args.cost)
    g = fields.get("g", 0.0)
    if family != "timeboost" or positional or not g > 0.0:
        raise ConfigError(f"optimal-c needs a timeboost cost spec with a positive g like 'timeboost:g=1.0', "
                          f"got {args.cost!r}")
    f0 = parse_noise(args.noise).density_at_zero()
    dist = analysis.parse_value_dist(args.value_dist)
    modes = ("shared", "separate") if args.mode == "both" else (args.mode,)
    fees = (analysis.optimal_c(dist, g, f0, mode) for mode in modes)
    return {fee.mode: {"c_star": fee.c_star, "ex_ante_revenue": fee.ex_ante_revenue} for fee in fees}


_RUNNERS = {
    "equilibrium": _run_equilibrium,
    "compare": _run_compare,
    "sweep": _run_sweep,
    "simulate": _run_simulate,
    "verify": _run_verify,
    "optimal-c": _run_optimal_c,
}

_PARAM_KEYS = ("v", "chains", "alpha", "cost", "noise", "cap", "signals",
               "trials", "seed", "grid", "value_dist", "mode", "format")


def _round12(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}_{key}" if prefix else key, sub, out)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}_{i}", sub, out)
    else:
        out[prefix] = value


def _emit_csv(result: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    rows = result.get("rows")
    if rows is not None:
        header: list[str] = []
        flat_rows = []
        for row in rows:
            flat: dict = {}
            _flatten("", row, flat)
            for key in flat:
                if key not in header:
                    header.append(key)
            flat_rows.append(flat)
        writer.writerow(header)
        for flat in flat_rows:
            writer.writerow([_fmt_cell(flat.get(key)) for key in header])
    else:
        flat = {}
        _flatten("", result, flat)
        writer.writerow(list(flat))
        writer.writerow([_fmt_cell(v) for v in flat.values()])
    return buffer.getvalue()


def _emit_table(result: dict) -> str:
    rows = result.get("rows")
    if rows is not None:
        return _emit_csv(result)
    flat: dict = {}
    _flatten("", result, flat)
    width = max((len(k) for k in flat), default=0)
    lines = [f"{key.ljust(width)}  {_fmt_cell(value)}" for key, value in flat.items()]
    return "\n".join(lines) + "\n"


def _emit(args, command: str, result: dict) -> None:
    fmt = args.format or "table"
    if fmt == "json":
        params = {}
        for key in _PARAM_KEYS:
            value = getattr(args, key, None)
            if value is not None:
                params[key.replace("_", "-") if key == "value_dist" else key] = value
        payload = {"command": command, "params": _round12(params), "result": _round12(result)}
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        text = _emit_csv(_round12(result))
    else:
        text = _emit_table(_round12(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        if not argv or argv[0].startswith("-"):
            command = _peek_config_command(argv)
            if command is None:
                parser.error("a command is required (one of: " + ", ".join(COMMANDS) + ")")
            argv.insert(0, command)
        args = parser.parse_args(argv)
        if args.g is not None or args.c is not None:
            flag = "--g" if args.g is not None else "--c"
            raise ConfigError(f"{flag} is ambiguous here; pass TimeBoost parameters via --cost timeboost:c=...,g=...")
        if args.config:
            _merge_config(args, _load_config(args.config))
        for key, value in _DEFAULTS[args.command].items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        result = _RUNNERS[args.command](args)
        _emit(args, args.command, result)
        return 0
    except (ConfigError, ParameterError, DomainError) as exc:
        print(f"seqlab: config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"seqlab: solver error: {exc}", file=sys.stderr)
        return 1


def _peek_config_command(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return _load_config(argv[i + 1]).get("command")
        if token.startswith("--config="):
            return _load_config(token.split("=", 1)[1]).get("command")
    return None


if __name__ == "__main__":
    sys.exit(main())
