"""Command-line surface.

Subcommands: ``equilibrium``, ``compare``, ``sweep``, ``simulate``,
``verify``, ``optimal-c``. Each emits a table (default), JSON, or CSV.

JSON output is a single object with stable keys ``command``, ``params``, and
``result``; reals carry 12 significant digits, and feeding an emitted JSON
file back through ``--config`` reproduces the identical run byte for byte.
Table and CSV cells print each real once with ``.12g``, booleans as
``true``/``false`` and a missing value as an empty cell.
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
from dataclasses import asdict, replace

# analysis and montecarlo are imported by the runners that use them, so no other command compiles them
from .cost import CostModel, parse_cost, tokenize_cost
from .equilibrium import MarketConfig, solve_equilibrium
from .errors import ConfigError, DomainError, ParameterError, SolverError
from .noise import parse_noise

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


#: marks a flag that has no default, so every run must set it
_REQUIRED = object()

#: each command's flags in help order, with their defaults; --mode follows the common flags
_COMMANDS = {
    "equilibrium": {"v": _REQUIRED, "chains": 1, "alpha": 1.0, "cost": _REQUIRED, "noise": _REQUIRED, "cap": None},
    "compare": {"v": _REQUIRED, "chains": 2, "alpha": 1.0, "cost": _REQUIRED, "noise": _REQUIRED, "cap": None},
    "sweep": {"v": 1.0, "chains": 2, "alpha": 1.0, "cost": _REQUIRED, "noise": _REQUIRED, "cap": None,
              "grid": _REQUIRED},
    "simulate": {"v": _REQUIRED, "chains": 1, "alpha": 1.0, "cost": "power:2.0", "noise": "normal:1.0", "cap": None,
                 "signals": _REQUIRED, "trials": 100_000, "seed": 0},
    "verify": {"v": _REQUIRED, "chains": 1, "alpha": 1.0, "cost": _REQUIRED, "noise": _REQUIRED, "cap": None,
               "trials": 100_000, "seed": 0, "mode": "analytic"},
    "optimal-c": {"cost": _REQUIRED, "noise": _REQUIRED, "value_dist": _REQUIRED, "mode": "both"},
}
COMMANDS = tuple(_COMMANDS)

#: --mode choices and help, per command that takes it
_MODES = {
    "verify": (("analytic", "montecarlo"), "payoff evaluation mode for the deviation scan"),
    "optimal-c": (("shared", "separate", "both"), "which sequencing mode(s) to optimize"),
}

_FORMATS = ("table", "json", "csv")
_CASTS = {name: options["type"] for name, options in _FLAGS.items() if "type" in options}
_PARAM_KEYS = (*_FLAGS, "mode", "format")


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="seqlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for command, flags in _COMMANDS.items():
        arg = sub.add_parser(command, help=f"run the {command} computation").add_argument
        for name in flags:
            if name in _FLAGS:
                arg("--" + name.replace("_", "-"), default=None, **_FLAGS[name])
        arg("--format", choices=_FORMATS, default=None, help="output format (default table)")
        arg("--out", default=None, help="output path (default standard output)")
        arg("--config", default=None, help="config file: flat key=value lines or a previously emitted JSON run")
        arg("--g", type=float, default=None, help=_REJECTED_FLAG_HELP)
        arg("--c", type=float, default=None, help=_REJECTED_FLAG_HELP)
        if command in _MODES:
            choices, text = _MODES[command]
            arg("--mode", choices=choices, default=None, help=text)
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
    else:
        params = {}
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
    if "command" in params and params["command"] not in COMMANDS:
        raise ConfigError(f"config key 'command' needs one of {', '.join(COMMANDS)}, got {params['command']!r}")
    return params


def _merge_config(args: argparse.Namespace, params: dict) -> None:
    for key, value in params.items():
        if key == "command":
            continue
        attr = key.replace("-", "_")
        if attr in ("g", "c") or not hasattr(args, attr):
            raise ConfigError(f"config key {key!r} is not a flag of the {args.command} command")
        if getattr(args, attr) is not None or value is None:
            continue
        if attr in _CASTS:
            kind = "an integer" if _CASTS[attr] is int else "a number"
            if isinstance(value, str):
                try:
                    value = _CASTS[attr](value)
                except ValueError:
                    raise ConfigError(f"config key {key!r} needs {kind}, got {value!r}") from None
            elif isinstance(value, bool) or not isinstance(value, (int, float)):  # JSON true is an int to Python
                raise ConfigError(f"config key {key!r} needs {kind}, got {json.dumps(value)}")
        else:
            if attr == "grid" and not isinstance(value, list):
                value = [value]
            if not all(isinstance(part, str) for part in (value if attr == "grid" else [value])):
                raise ConfigError(f"config key {key!r} needs a string, got {json.dumps(value)}")
            if attr in ("format", "mode"):  # the choices argparse checks on the command line
                choices = _FORMATS if attr == "format" else _MODES[args.command][0]
                if value not in choices:
                    raise ConfigError(f"config key {attr!r} needs one of {', '.join(choices)}, got {value!r}")
        setattr(args, attr, value)


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
    """Axis value lists from ``axis=start:step:stop`` or ``axis=value`` specs, one per axis.

    The row count is checked against :data:`_MAX_SWEEP_ROWS` before any list
    is built.
    """
    ranges: dict = {}  # axis -> (start, step or None for a single value, count)
    for spec in specs:
        axis, sep, rng = spec.partition("=")
        axis = axis.strip().replace("-", "_")
        if not sep:
            raise ConfigError(f"grid spec {spec!r} must look like axis=start:step:stop")
        if axis in ranges:
            raise ConfigError(f"grid axis {axis!r} is given more than once")
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
    return {
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


def _run_equilibrium(args) -> dict:
    market = MarketConfig(args.v, args.chains, args.alpha)
    result = solve_equilibrium(market, _resolve_cost(args), parse_noise(args.noise))
    return _equilibrium_dict(result)


def _run_compare(args) -> dict:
    cost, noise = _resolve_cost(args), parse_noise(args.noise)
    from . import analysis

    report = analysis.compare_expenditure(args.v, cost, noise, args.alpha, separate_chains=args.chains)
    return _comparison_dict(report)


def _run_sweep(args) -> dict:
    axes, cost, noise = _parse_grid(args.grid), _resolve_cost(args), parse_noise(args.noise)
    from . import analysis

    return {"rows": analysis.sweep(axes, v=args.v, cost=cost, noise=noise, alpha=args.alpha, chains=args.chains)}


def _run_simulate(args) -> dict:
    market = MarketConfig(args.v, args.chains, args.alpha)
    signals = _parse_signals(args.signals, market.n_chains)
    cost, noise = _resolve_cost(args), parse_noise(args.noise)
    from . import montecarlo

    spec = montecarlo.SimulationSpec(signals, market, cost, noise, trials=args.trials, seed=args.seed)
    return asdict(montecarlo.simulate(spec))


def _run_verify(args) -> dict:
    market = MarketConfig(args.v, args.chains, args.alpha)
    cost, noise = _resolve_cost(args), parse_noise(args.noise)
    from . import montecarlo

    if args.mode == "montecarlo":  # before the candidate's solve loads NumPy
        montecarlo.check_draws(args.trials, args.seed)
    candidate = solve_equilibrium(market, cost, noise)
    check = montecarlo.verify_best_response(
        candidate, market, cost, noise, mode=args.mode, trials=args.trials, seed=args.seed,
    )
    return {"candidate_signal": candidate.signal, "regime": candidate.regime.value, **asdict(check)}


def _run_optimal_c(args) -> dict:
    # c is the decision variable, so only g is read from the cost spec
    family, fields, positional = tokenize_cost(args.cost)
    g = fields.get("g", 0.0)
    if family != "timeboost" or positional or not g > 0.0:
        raise ConfigError(f"optimal-c needs a timeboost cost spec with a positive g like 'timeboost:g=1.0', "
                          f"got {args.cost!r}")
    extra = sorted(set(fields) - {"c", "g"})
    if extra:
        raise ConfigError(f"optimal-c takes only g, and an ignored c, from its cost spec; got {', '.join(extra)} "
                          f"in {args.cost!r}")
    f0 = parse_noise(args.noise).density_at_zero()
    from . import analysis

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


def _round12(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):  # JSON has no infinity or NaN: a non-finite value is null
        return float(f"{value:.12g}") if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _cells(value, prefix: str = "", out: dict | None = None) -> dict:
    """Each leaf of a result under its ``key_subkey_index`` name, formatted once as a cell."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, sub in value.items():
            _cells(sub, f"{prefix}_{key}" if prefix else key, out)
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            _cells(sub, f"{prefix}_{i}", out)
    elif value is None:
        out[prefix] = ""
    elif isinstance(value, bool):
        out[prefix] = "true" if value else "false"
    else:
        out[prefix] = f"{value:.12g}" if isinstance(value, float) else str(value)
    return out


def _emit_text(result: dict, table: bool) -> str:
    """A result as CSV, one row per sweep row; a table lists a single result's cells one per line."""
    rows = [_cells(row) for row in result.get("rows", [result])]
    if table and "rows" not in result:
        width = max(map(len, rows[0]), default=0)
        return "".join(f"{key.ljust(width)}  {cell}\n" for key, cell in rows[0].items())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])  # every row of a sweep has the same columns
    writer.writerows(row.values() for row in rows)
    return buffer.getvalue()


def _emit(args, result: dict) -> None:
    fmt = args.format or "table"
    if fmt == "json":
        params = {key.replace("_", "-"): getattr(args, key) for key in _PARAM_KEYS
                  if getattr(args, key, None) is not None}
        payload = {"command": args.command, "params": _round12(params), "result": _round12(result)}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _emit_text(result, table=fmt == "table")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {args.out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        if not argv or argv[0].startswith("-"):
            command = _peek_config_command(argv)
            if command is not None:
                argv.insert(0, command)
            elif not {"-h", "--help"} & set(argv):
                parser.error("a command is required (one of: " + ", ".join(COMMANDS) + ")")
        args = parser.parse_args(argv)
        if args.g is not None or args.c is not None:
            flag = "--g" if args.g is not None else "--c"
            raise ConfigError(f"{flag} is ambiguous here; pass TimeBoost parameters via --cost timeboost:c=...,g=...")
        if args.config:
            _merge_config(args, _load_config(args.config))
        for name, default in _COMMANDS[args.command].items():
            if getattr(args, name) is None:
                if default is _REQUIRED:
                    raise ConfigError(f"--{name.replace('_', '-')} is required for {args.command!r}")
                setattr(args, name, default)
        _emit(args, _RUNNERS[args.command](args))
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
