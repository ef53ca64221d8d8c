import json
import math
import os
import subprocess
import sys
import tomllib
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seqlab import montecarlo
from seqlab.analysis import ComparisonReport, sweep
from seqlab.cli import COMMANDS, _parse_grid, main
from seqlab.cost import CostModel
from seqlab.equilibrium import EquilibriumResult, Regime
from seqlab.errors import ConfigError
from seqlab.noise import NoiseModel

EQ_ARGS = ["equilibrium", "--v", "1", "--chains", "1", "--cost", "power:2",
           "--noise", "normal:0.3989422804"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _field_names(record) -> list[str]:
    return [field.name for field in fields(record)]


def test_equilibrium_json_schema(capsys):
    code, out, _ = _run(capsys, EQ_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "equilibrium"
    assert payload["params"]["cost"] == "power:2"
    result = payload["result"]
    assert set(result) == {
        "signal", "per_chain_cost", "total_cost", "capture_probability",
        "expected_profit", "regime",
    }
    assert list(result) == _field_names(EquilibriumResult)  # the record, printed as it is
    assert result["signal"] == pytest.approx(0.5, abs=1e-6)
    assert result["regime"] == "interior"


@pytest.mark.parametrize("cost", ["power:2", "timeboost:c=0.25,g=1"])
def test_compare_prints_its_record_as_named(cost, capsys):
    code, out, _ = _run(capsys, ["compare", "--v", "1", "--cost", cost, "--noise", "normal:1", "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert list(result) == _field_names(ComparisonReport)
    assert "displayed_thresholds" not in result  # the sides' regimes alone say who invests
    assert list(result["shared"]) == list(result["separate"]) == _field_names(EquilibriumResult)


REGIME_ARGS = {
    Regime.INTERIOR: EQ_ARGS,
    Regime.CAP_BINDING: EQ_ARGS + ["--cap", "0.1"],
    Regime.ZERO_INVESTMENT: ["equilibrium", "--v", "1", "--cost", "timeboost:c=10,g=1", "--noise", "normal:1"],
}


@pytest.mark.parametrize("regime", Regime, ids=str)
def test_each_regime_prints_its_value(regime, capsys):
    assert str(regime) == format(regime) == f"{regime}" == regime.value
    assert json.dumps(regime) == json.dumps(regime.value)
    cells = {}
    for fmt in ("json", "csv", "table"):
        code, out, _ = _run(capsys, REGIME_ARGS[regime] + ["--format", fmt])
        assert code == 0
        if fmt == "json":
            cells[fmt] = json.loads(out)["result"]["regime"]
        elif fmt == "csv":
            header, row = out.splitlines()
            cells[fmt] = dict(zip(header.split(","), row.split(",")))["regime"]
        else:
            cells[fmt] = dict(line.split(None, 1) for line in out.splitlines())["regime"]
    assert cells == dict.fromkeys(("json", "csv", "table"), regime.value)


def test_compare_csv_ratio(capsys):
    code, out, _ = _run(capsys, ["compare", "--v", "1", "--cost", "power:2",
                                 "--noise", "normal:0.3989422804", "--format", "csv"])
    assert code == 0
    header, row = out.strip().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert float(record["ratio"]) == pytest.approx(2.0, abs=1e-9)
    assert record["interpretation"] == "waste"


def test_simulate_spec_example(capsys):
    # defaults fill in cost and noise; capture probability is family-free
    code, out, _ = _run(capsys, ["simulate", "--v", "1", "--chains", "2",
                                 "--signals", "0.25,0.25", "--trials", "1000000",
                                 "--seed", "42", "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["capture_probability"][0] - 0.25) <= 0.0013


def test_verify_json(capsys):
    code, out, _ = _run(capsys, ["verify", "--v", "1", "--chains", "2", "--cost", "power:2",
                                 "--noise", "normal:0.3989422804", "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["is_epsilon_equilibrium"] is True
    assert result["max_gain"] <= 1e-3
    assert len(result["argmax_deviation"]) == 2


@pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
def test_verify_at_cap_zero_scans_the_one_point_grid(mode, capsys, monkeypatch):
    # a cap of 0 admits the signal 0 alone: the candidate invests nothing, the default
    # deviation grid is [0.0], and the one deviation, the candidate itself, gains nothing
    grids, grid_of = [], montecarlo.default_deviation_grid
    monkeypatch.setattr(montecarlo, "default_deviation_grid", lambda *a: grids.append(grid_of(*a)) or grids[-1])
    code, out, err = _run(capsys, ["verify", "--v", "1", "--cost", "power:2", "--noise", "normal:1", "--cap", "0",
                                   "--mode", mode, "--trials", "2000", "--seed", "1", "--format", "json"])
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert [grid.tolist() for grid in grids] == [[0.0]]
    assert (result["candidate_signal"], result["regime"]) == (0.0, "zero_investment")
    assert result["argmax_deviation"] == [0.0] and result["max_gain"] == 0.0
    assert result["is_epsilon_equilibrium"] is True


def test_optimal_c_json(capsys):
    code, out, _ = _run(capsys, ["optimal-c", "--cost", "timeboost:g=1.0",
                                 "--noise", "normal:0.3989422804",
                                 "--value-dist", "points:1@1", "--format", "json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["shared"]["c_star"] == pytest.approx(0.25, abs=1e-6)
    assert result["separate"]["c_star"] == pytest.approx(0.125, abs=1e-6)
    assert result["shared"]["ex_ante_revenue"] == pytest.approx(0.25, abs=1e-9)


def test_sweep_csv(capsys):
    code, out, _ = _run(capsys, ["sweep", "--cost", "power:2", "--noise", "normal:1.0",
                                 "--grid", "v=0.5:0.5:2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header plus four grid points
    assert lines[0].startswith("v,")


def test_json_round_trip_through_config(capsys, tmp_path):
    path = tmp_path / "run.json"
    code, out, _ = _run(capsys, EQ_ARGS + ["--format", "json", "--out", str(path)])
    assert code == 0
    first = path.read_text()
    code, _, _ = _run(capsys, ["--config", str(path), "--out", str(tmp_path / "again.json")])
    assert code == 0
    assert (tmp_path / "again.json").read_text() == first


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("flags", [["--config", "/dev/stdin"], ["--config=/dev/stdin"]])
@pytest.mark.parametrize("argv", [EQ_ARGS, ["compare", "--v", "1", "--cost", "power:2", "--noise", "normal:1"]],
                         ids=lambda argv: argv[0])
def test_piped_json_run_through_config_prints_the_same_run(argv, flags, capsys):
    # with no command on the line, the config names it; a pipe can be read only once, so its params must be kept
    code, emitted, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    piped = subprocess.run([sys.executable, "-m", "seqlab", *flags], input=emitted, capture_output=True, text=True,
                           env=env)
    assert (piped.returncode, piped.stderr, piped.stdout) == (0, "", emitted)


_RUNS = {
    "run": ["equilibrium", "--v", "1", "--cost", "power:2", "--noise", "normal:1"],
    "cmp": ["compare", "--v", "2", "--cost", "power:2", "--noise", "normal:1"],
    "sweep": ["sweep", "--cost", "power:2", "--noise", "normal:1", "--grid", "v=1:1:3"],
    "oc": ["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1", "--value-dist", "exp:1"],
}


@pytest.mark.parametrize(("command", "flags"), [
    ("compare", ["--config", "{tmp}/run.json", "--config", "{tmp}/cmp.json", "--format", "csv"]),
    ("equilibrium", ["--config={tmp}/cmp.json", "--config={tmp}/run.json", "--format", "csv"]),
    ("equilibrium", ["--conf", "{tmp}/run.json", "--format", "csv"]),
    ("compare", ["--con={tmp}/cmp.json"]),
    ("sweep", ["--config", "{tmp}/sweep.json", "--format", "csv"]),
    ("sweep", ["--format", "csv", "--grid", "v=4", "--config", "{tmp}/sweep.json"]),
    ("optimal-c", ["--config", "{tmp}/oc.json", "--mode", "shared"]),
    ("optimal-c", ["--config", "{tmp}/oc.json", "--v", "exp:2", "--format", "csv"]),  # --v abbreviates --value-dist
], ids=["last-config", "last-config-equals", "abbreviated", "abbreviated-equals", "sweep-format", "sweep-grid",
        "optimal-c-mode", "optimal-c-abbreviated-value-dist"])
def test_commandless_run_reads_the_config_argparse_reads(command, flags, capsys, tmp_path):
    # the command and the params come from one file, the one argparse reads: the last --config, abbreviated or not
    for name, argv in _RUNS.items():
        assert _run(capsys, argv + ["--format", "json", "--out", str(tmp_path / f"{name}.json")])[0] == 0
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    named = _run(capsys, [command, *flags])
    assert named[0] == 0 and named[1]
    assert _run(capsys, flags) == named


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_config_error(target, capsys, tmp_path):
    path = tmp_path / "missing" / "run.json" if target == "missing-directory" else tmp_path
    code, out, err = _run(capsys, EQ_ARGS + ["--format", "json", "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("seqlab: config error: cannot write output file")


def test_flat_config_file(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# baseline shared race\n"
        "v = 1\n"
        "chains = 1\n"
        "cost = power:2\n"
        "noise = normal:0.3989422804\n"
        "format = json\n"
    )
    code, out, _ = _run(capsys, ["equilibrium", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["result"]["signal"] == pytest.approx(0.5, abs=1e-6)


def test_flags_override_config(capsys, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("v = 1\ncost = power:2\nnoise = normal:0.3989422804\n")
    code, out, _ = _run(capsys, ["equilibrium", "--v", "2", "--config", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["params"]["v"] == 2.0


def test_identical_invocations_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        for fmt in ("json", "csv"):
            code, out, _ = _run(capsys, ["simulate", "--v", "1", "--chains", "2",
                                         "--signals", "0.25,0.25", "--trials", "20000",
                                         "--seed", "7", "--format", fmt])
            assert code == 0
            outputs.append(out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


def test_console_script_prints_what_python_m_seqlab_prints():
    # the installed ``seqlab`` script imports its [project.scripts] target and exits with what it returns
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as handle:
        module, _, attr = tomllib.load(handle)["project"]["scripts"]["seqlab"].partition(":")
    script = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    runs = [subprocess.run([sys.executable, *entry, *EQ_ARGS, "--format", "json"], capture_output=True, env=env)
            for entry in (["-c", script], ["-m", "seqlab"])]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 2
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["command"] == "equilibrium"


def test_unknown_flag_is_config_error(capsys):
    code, _, err = _run(capsys, EQ_ARGS + ["--volatility", "1"])
    assert code == 2
    assert "volatility" in err


def test_malformed_cost_names_the_token(capsys):
    code, _, err = _run(capsys, ["equilibrium", "--v", "1", "--cost", "power:abc",
                                 "--noise", "normal:1"])
    assert code == 2
    assert "abc" in err


def test_out_of_domain_parameter(capsys):
    code, _, err = _run(capsys, ["equilibrium", "--v", "-1", "--cost", "power:2",
                                 "--noise", "normal:1"])
    assert code == 2
    assert "-1" in err


def test_bare_g_and_c_rejected(capsys):
    for flag in ("--g", "--c"):
        code, _, err = _run(capsys, ["equilibrium", "--v", "1", "--cost", "power:2",
                                     "--noise", "normal:1", flag, "0.5"])
        assert code == 2
        assert "timeboost:c=...,g=..." in err


def test_missing_required_flag(capsys):
    code, _, err = _run(capsys, ["equilibrium", "--v", "1", "--noise", "normal:1"])
    assert code == 2
    assert "--cost" in err


def test_missing_command(capsys):
    code, _, err = _run(capsys, ["--v", "1"])
    assert code == 2
    assert "command" in err


def test_refund_needs_two_chains_at_most(capsys):
    code, _, err = _run(capsys, ["equilibrium", "--v", "1", "--chains", "3", "--alpha", "0.5",
                                 "--cost", "power:2", "--noise", "normal:1"])
    assert code == 2


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_every_accepted_flag(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    from seqlab.cli import _COMMANDS
    flag_names = {
        "v": "--v", "chains": "--chains", "alpha": "--alpha", "cost": "--cost",
        "noise": "--noise", "cap": "--cap", "signals": "--signals", "trials": "--trials",
        "seed": "--seed", "grid": "--grid", "value_dist": "--value-dist", "mode": "--mode",
    }
    expected = {flag_names[name] for name in _COMMANDS[command]}
    expected |= {"--format", "--out", "--config", "--g", "--c"}
    assert ("--mode" in expected) == (command in ("verify", "optimal-c"))
    for flag in expected:
        assert flag in text


def test_table_output_runs(capsys):
    code, out, _ = _run(capsys, EQ_ARGS)
    assert code == 0
    assert "signal" in out and "0.5" in out


def test_solver_failure_maps_to_exit_one(capsys, monkeypatch):
    import seqlab.cli as cli
    from seqlab.errors import SolverError

    def explode(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli, "solve_equilibrium", explode)
    code, _, err = _run(capsys, EQ_ARGS)
    assert code == 1
    assert "solver error" in err


@pytest.mark.parametrize(
    ("command", "content"),
    [
        ([], None),
        (["equilibrium"], None),
        ([], '{"command": "equilibrium", "params": {"v": 1'),
        ([], '{"command": "equilibrium", "params": 5}'),
        (["simulate"], "v = 1\nsignals = 0.5,0.5\ntrials = abc\n"),
        (["simulate"], "v = 1\nsignals = 0.5,0.5\nchains = 2.5\n"),
        (["sweep"], "cost = power:2\nnoise = normal:1\ngrid = v=1:1:3\ngrid = v=2\n"),
    ],
    ids=["missing-peek", "missing", "malformed-json", "params-not-object", "trials-not-int", "chains-not-int",
         "repeated-grid-axis"],
)
def test_bad_config_file_is_config_error(command, content, capsys, tmp_path):
    path = tmp_path / "run.cfg"
    if content is not None:
        path.write_text(content)
    code, out, err = _run(capsys, command + ["--config", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("seqlab: config error")


@pytest.mark.parametrize(
    ("params", "reason"),
    [
        ({"command": "simulate", "params": {"v": 1, "signals": "0.5,0.5", "trials": True, "seed": False}},
         "config key 'trials' needs an integer, got true"),
        ({"command": "simulate", "params": {"v": 1, "signals": "0.5,0.5", "seed": False}},
         "config key 'seed' needs an integer, got false"),
        ({"command": "equilibrium", "params": {"v": True, "chains": True, "cost": "power:2", "noise": "normal:1"}},
         "config key 'v' needs a number, got true"),
        ({"command": "equilibrium", "params": {"v": 1, "chains": True, "cost": "power:2", "noise": "normal:1"}},
         "config key 'chains' needs an integer, got true"),
        ({"command": "compare", "params": {"v": 1, "alpha": False, "cost": "power:2", "noise": "normal:1"}},
         "config key 'alpha' needs a number, got false"),
        ({"command": "equilibrium", "params": {"v": 1, "cap": True, "cost": "power:2", "noise": "normal:1"}},
         "config key 'cap' needs a number, got true"),
    ],
    ids=["trials-seed", "seed", "v-chains", "chains", "alpha", "cap"],
)
def test_boolean_config_value_is_config_error(params, reason, capsys, tmp_path):
    # JSON true and false are ints to Python; none of them is a count or a real
    path = tmp_path / "run.json"
    path.write_text(json.dumps(params))
    assert _run(capsys, ["--config", str(path)]) == (2, "", f"seqlab: config error: {reason}\n")


@pytest.mark.parametrize("config", [
    {"command": "equilibrium", "params": {"v": 1, "cost": 2, "noise": "normal:1"}},
    {"command": "equilibrium", "params": {"v": 1, "cost": "power:2", "noise": ["normal:1"]}},
    {"command": "sweep", "params": {"cost": "power:2", "noise": "normal:1", "grid": [1]}},
    {"command": "sweep", "params": {"cost": "power:2", "noise": "normal:1", "grid": ["v=1", 2]}},
    {"command": "simulate", "params": {"v": 1, "signals": 0.5}},
    {"command": "optimal-c", "params": {"cost": "timeboost:g=1", "noise": "normal:1", "value-dist": 3}},
    {"command": "verify", "params": {"v": 1, "cost": "power:2", "noise": "normal:1", "mode": 1}},
    {"command": "equilibrium", "params": {"v": 1, "cost": "power:2", "noise": "normal:1", "out": 5}},
    {"command": "equilibrium", "params": {"v": 1, "cost": "power:2", "noise": "normal:1", "cap": [1]}},
    {"command": "equilibrium", "params": {"v": 1, "cost": "power:2", "noise": "normal:1", "g": 1}},
    {"command": 3, "params": {}},
    {"command": "frobnicate", "params": {}},
    {"command": "equilibrium", "params": {"v": 1, "cost": "power:2", "noise": "normal:1", "format": "xml"}},
], ids=["cost-number", "noise-list", "grid-number", "grid-mixed", "signals-number", "value-dist-number",
        "mode-number", "out-number", "cap-list", "rejected-g", "command-number", "command-unknown", "format-xml"])
def test_config_value_of_the_wrong_type_is_config_error(config, capsys, tmp_path):
    # once an AttributeError, a TypeError, a write to file descriptor 5 or a silent table
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(capsys, ["--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("seqlab: config error")


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_top_level_help_lists_every_command(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([flag])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: seqlab")
    for command in COMMANDS:
        assert f"run the {command} computation" in text


@pytest.mark.parametrize("flags", [["--config", "{path}", "--help"], ["-h", "--config={path}"]])
def test_help_with_a_config_alone_is_the_configs_command_help(flags, capsys, tmp_path):
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps({"command": "compare", "params": {"v": 2}}))
    texts = []
    for argv in (["compare", "--help"], [flag.format(path=path) for flag in flags]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith("usage: seqlab compare") and texts[1] == texts[0]


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-2.225073858507201e-308)
@example(1e-310)
@example(1.7976931348623157e308)
def test_twelve_digit_cells_need_one_format_pass(x):
    # CSV and table cells format each real once; JSON rounds first, and both agree
    assert f"{float(f'{x:.12g}'):.12g}" == f"{x:.12g}"


@pytest.mark.parametrize(
    ("value_dist", "expected", "reason"),
    [
        ("points:inf@1", 2, "point-mass values must be finite"),
        ("lognormal:1500,1", 2, "beyond float range"),
        ("points:1", 2, "'1' is not VALUE@WEIGHT"),
        ("lognormal:800,1", 1, "c* rounds to inf"),
        ("lognormal:-800,1", 1, "c* rounds to 0.0"),
        ("lognormal:0,40", 1, "tails underflow"),
        ("lognormal:-2000,80", 1, "tails underflow"),
    ],
)
def test_optimal_c_unusable_value_law_exit_code(value_dist, expected, reason, capsys):
    code, out, err = _run(capsys, ["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1",
                                   "--value-dist", value_dist, "--format", "json"])
    assert code == expected
    assert out == ""
    assert err.startswith("seqlab: config error" if expected == 2 else "seqlab: solver error")
    assert reason in err


@pytest.mark.parametrize(
    ("value_dist", "c_star"), [("points:1e20@1", 2.5e19), ("points:1e-12@1", 2.5e-13), ("exp:1e-300", None),
                               ("exp:1e300", None)],
)
def test_optimal_c_past_the_old_search_range(value_dist, c_star, capsys):
    # once outside [1e-8, 1e4]*g*f0 and exit 1; with normal:1, g*f0 = 1/sqrt(2*pi)
    code, out, err = _run(capsys, ["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1",
                                   "--value-dist", value_dist, "--format", "json"])
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["separate"]["c_star"] == pytest.approx(result["shared"]["c_star"] / 2, rel=1e-11)
    if c_star is not None:
        assert result["shared"]["c_star"] == pytest.approx(c_star / math.sqrt(2.0 * math.pi), rel=1e-11)


def test_optimal_c_at_a_tiny_peak_density(capsys):
    # f0 = 1/(sqrt(2*pi)*1e200): the one product k*c*g*f0 underflowed to 0,
    # which ended in "c* rounds to 1.127e-201, its revenue to 0.0"
    code, out, err = _run(capsys, ["optimal-c", "--cost", "timeboost:c=0.1,g=1", "--noise", "normal:1e200",
                                   "--value-dist", "exp:1", "--format", "json"])
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    f0 = 1.0 / (math.sqrt(2.0 * math.pi) * 1e200)
    for mode in ("shared", "separate"):
        assert result[mode]["ex_ante_revenue"] == pytest.approx(0.2130273172711493 * f0, rel=1e-11)


def test_optimal_c_zero_value_law_earns_nothing(capsys):
    code, out, err = _run(capsys, ["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1",
                                   "--value-dist", "points:0@1", "--format", "json"])
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    for mode in ("shared", "separate"):
        assert (result[mode]["c_star"], result[mode]["ex_ante_revenue"]) == (0.0, 0.0)


def test_sweep_grid_size_limit():
    assert [len(values) for values in _parse_grid(["v=1:1:1000", "beta=1:1:1000"]).values()] == [1000, 1000]
    # over the limit by a product of small axes, so a missing check stays cheap
    with pytest.raises(ConfigError, match="1002001 rows"):
        _parse_grid(["v=1:1:1001", "beta=2:1:1002"])
    # a second spec for an axis would silently replace the first
    with pytest.raises(ConfigError, match="grid axis 'v' is given more than once"):
        _parse_grid(["v=1:1:3", "beta=2", "v=2"])


def test_oversized_sweep_exits_before_solving(capsys, monkeypatch):
    from seqlab import analysis

    def refuse(*args, **kwargs):
        raise AssertionError("sweep ran on an oversized grid")

    monkeypatch.setattr(analysis, "sweep", refuse)
    code, out, err = _run(capsys, ["sweep", "--cost", "power:2", "--noise", "normal:1",
                                   "--grid", "v=1:1:1001", "--grid", "beta=2:1:1002"])
    assert code == 2
    assert out == ""
    assert "at most 1000000" in err


@pytest.mark.parametrize(
    ("cost", "grid", "extra", "message"),
    [
        ("power:2", "v=-1", [], "trade value must be positive and finite, got -1.0"),
        ("power:2", "alpha=1.5", [], "refund fraction alpha must lie in [0, 1], got 1.5"),
        ("power:2", "chains=2.5", [], "chains axis values must be integers, got 2.5"),
        ("power:2", "beta=0.5", [], "power cost needs elasticity beta >= 1.000001, got 0.5"),
        ("power:2", "sigma=-1", [], "normal noise needs a positive finite parameter, got -1.0"),
        ("power:2", "chains=3", ["--alpha", "0.5"], "refund equilibria are available for 1 or 2 chains only"),
        ("timeboost:c=0.25,g=1", "c=0", [], "timeboost cost needs positive finite c, got 0.0"),
        ("timeboost:c=0.25,g=1", "cap=1.5", [], "cap 1.5 must lie below the boost bound g=1.0"),
    ],
    ids=["v", "alpha", "chains-fraction", "beta", "sigma", "refund-chains", "timeboost-c", "timeboost-cap"],
)
def test_malformed_sweep_grid_keeps_its_message(cost, grid, extra, message, capsys):
    code, out, err = _run(capsys, ["sweep", "--cost", cost, "--noise", "normal:1", "--grid", grid, *extra])
    assert (code, out, err) == (2, "", f"seqlab: config error: {message}\n")


@pytest.mark.parametrize("command", ["equilibrium", "sweep"])
@pytest.mark.parametrize(
    ("value", "cost", "reason"),
    [
        # (m/beta)**(1/(beta-1)) overflows a float
        ("1e16", "power:1.05", "the power:1.05 signal with marginal cost 3.98942e+15 lies beyond float range"),
        # g - sqrt(c*g/m) rounds up to g although every input is valid
        ("1e33", "timeboost:c=0.25,g=1", "the signal rounds to the boost bound g=1.0 at v=1e+33"),
    ],
    ids=["power-overflow", "boost-bound"],
)
def test_signal_beyond_float_resolution_is_solver_error(command, value, cost, reason, capsys):
    point = ["--v", value] if command == "equilibrium" else ["--grid", f"v={value}"]
    code, out, err = _run(capsys, [command, "--cost", cost, "--noise", "normal:1", *point])
    assert (code, out) == (1, "")
    assert err == f"seqlab: solver error: {reason}\n"


def test_chain_counts_past_1024_solve_or_name_the_chain_count(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["equilibrium", "--v", "1e10", "--chains", "1030", "--cost", "power:2",
                                       "--noise", "normal:1", "--format", "json"])
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        # power:2 signal M/2 with M = f0*v/2**1029
        assert result["signal"] == pytest.approx(math.ldexp(1e10 / math.sqrt(2.0 * math.pi), -1030), rel=1e-11)
        assert result["regime"] == "interior"
        # M = f0/2**1099 lies below the smallest float, and so does the capture probability 2**-1100
        stake, capture = "the stake f0*v/2**(n-1)", "the capture probability 2**-n"
        for argv, reason in [
            (["equilibrium", "--v", "1", "--chains", "1100"], f"{stake} underflows to 0 at chains=1100, v=1"),
            (["sweep", "--v", "1", "--grid", "chains=1:1:1100"], f"{stake} underflows to 0 at chains=1075, v=1"),
            (["equilibrium", "--v", "1e10", "--chains", "1100"], f"{capture} underflows to 0 at chains=1100"),
            (["sweep", "--v", "1e10", "--grid", "chains=1070:1:1100"], f"{capture} underflows to 0 at chains=1075"),
        ]:
            code, out, err = _run(capsys, [*argv, "--cost", "power:2", "--noise", "normal:1"])
            assert (code, out, err) == (2, "", f"seqlab: config error: {reason}\n")


@pytest.mark.parametrize("argv, code, reason", [
    (["equilibrium", "--v", "1e300", "--chains", "40"], 1,
     "solver error: the power:2 cost of the signal 3.62836e+297 lies beyond float range at chains=40, v=1e+300"),
    (["equilibrium", "--v", "1e300", "--chains", "1"], 2,
     "config error: the stake f0*v/2**(n-1) overflows at chains=1, v=1e+300"),
    # a sweep solves the one-chain side as well, whose stake overflows first
    (["sweep", "--grid", "v=1e300", "--chains", "40"], 2,
     "config error: the stake f0*v/2**(n-1) overflows at chains=1, v=1e+300"),
    (["sweep", "--grid", "v=1e300", "--chains", "1"], 2,
     "config error: the stake f0*v/2**(n-1) overflows at chains=1, v=1e+300"),
], ids=["equilibrium-40", "equilibrium-1", "sweep-40", "sweep-1"])
def test_stake_past_float_range_ends_with_a_message(argv, code, reason, capsys):
    # f0*v is about 4e309: no overflow warning leaks, and no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = _run(capsys, [*argv, "--cost", "power:2", "--noise", "normal:1e-10"])
    assert result == (code, "", f"seqlab: {reason}\n")


@pytest.mark.parametrize(("argv", "law"), [
    (["verify", "--mode", "montecarlo", "--v", "1e300", "--chains", "2", "--trials", "2000"], "laplace:1.7e+308"),
    (["simulate", "--v", "1", "--signals", "0.5,0.5"], "logistic:1.7e+308"),
], ids=["verify-laplace", "simulate-logistic"])
def test_noise_whose_draws_overflow_is_config_error(argv, law, capsys):
    # the verify scan once failed to reshape its histogram, and simulate gave trader 2 every inf - inf race
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = _run(capsys, [*argv, "--cost", "power:2", "--noise", law])
    assert result == (2, "", f"seqlab: config error: {law} noise is too wide to sample: its draws overflow float range\n")


def test_refund_root_whose_bracket_end_cost_overflows(capsys):
    # at v = 1e200 the cost of the bracket end C'(s) = 2M/(1+alpha) overflows, the root
    # near 1e100 and its cost do not: the residual's -inf there is a valid negative sign
    cost, noise = ["--cost", "power:2"], ["--noise", "normal:1"]
    f0 = 1.0 / math.sqrt(4.0 * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run(capsys, ["equilibrium", "--v", "1e200", "--chains", "1", "--alpha", "0",
                                       *cost, *noise, "--format", "json"])
        assert (code, err) == (0, "")
        shared = json.loads(out)["result"]
        # at alpha = 0.5 participation fails at every scale of v, as it does here
        code, out, err = _run(capsys, ["equilibrium", "--v", "1e200", "--chains", "2", "--alpha", "0.5",
                                       *cost, *noise, "--format", "json"])
        assert (code, err, json.loads(out)["result"]["regime"]) == (0, "", "zero_investment")
        code, out, err = _run(capsys, ["sweep", "--grid", "v=1e200:1e200:3e200", "--chains", "2", "--alpha", "0",
                                       *cost, *noise, "--format", "json"])
        assert (code, err) == (0, "")
        rows = sweep({"v": [1e200, 2e200, 3e200]}, cost=CostModel.power(2.0), noise=NoiseModel("normal", 1.0),
                     alpha=0.0, chains=2)  # the rows the command printed to 12 digits
    assert [row["v"] for row in json.loads(out)["result"]["rows"]] == [1e200, 2e200, 3e200]
    for v, result in [(1e200, shared), *((row["v"], {"signal": row["shared_signal"],
                                                    "regime": row["shared_regime"]}) for row in rows)]:
        m = f0 * v  # M - s - f0*s**2 = 0 at alpha = 0, one chain
        assert result["regime"] == "interior"
        assert result["signal"] == pytest.approx(2.0 * m / (1.0 + math.sqrt(1.0 + 4.0 * f0 * m)), rel=1e-14, abs=0.0)
    assert len(rows) == 3


def _probe_stderr(argv):
    """The standard error lines of ``main(argv)`` in a fresh interpreter, the last one
    its exit code, whether it loaded NumPy, the seqlab modules it loaded, joined by
    commas, and the scipy modules it loaded."""
    code = ("import sys; from seqlab.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy._core' in sys.modules, "
            "','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'seqlab')), "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    return out.stderr.splitlines()


#: per command, the seqlab modules none of its runs loads
_NEVER_LOADED = {
    "equilibrium": {"seqlab.analysis", "seqlab.montecarlo", "seqlab.rng"},
    **dict.fromkeys(("compare", "sweep", "optimal-c"), {"seqlab.montecarlo", "seqlab.rng"}),
    **dict.fromkeys(("simulate", "verify"), {"seqlab.analysis"}),
}


def _split_probe(command, line):
    """A probe line's exit code, NumPy flag and scipy modules; fails if ``command`` loaded a module it never uses."""
    code, numpy, loaded, modules = line.split(" ", 3)
    assert _NEVER_LOADED[command].isdisjoint(loaded.split(",")), f"{command} loaded {loaded}"
    return int(code), numpy == "True", modules


def _probe(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, whether it loaded NumPy, and the scipy modules it
    loaded; fails if the run loaded a seqlab module its command never uses."""
    return _split_probe(argv[0], _probe_stderr(argv)[-1])


@pytest.mark.parametrize("argv, expected", [
    (["equilibrium", "--v", "2", "--cost", "power:2", "--noise", "normal:1"], 0),
    (["compare", "--v", "2", "--cost", "timeboost:c=0.25,g=1", "--noise", "logistic:1"], 0),
    (["sweep", "--grid", "v=0.5:0.5:2", "--alpha", "0.5", "--cost", "power:2", "--noise", "normal:1"], 0),
    (["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1", "--value-dist", "exp:1"], 0),
    (["equilibrium", "--v", "2", "--cost", "power:x", "--noise", "normal:1"], 2),
    # analytic verify evaluates the normal and logistic CDFs with math and NumPy alone
    (["verify", "--v", "2", "--cost", "power:2", "--noise", "normal:1"], 0),
    (["verify", "--v", "2", "--chains", "2", "--cost", "power:2", "--noise", "logistic:1"], 0),
    (["verify", "--v", "2", "--chains", "3", "--cost", "power:2", "--cap", "0.05", "--noise", "normal:1"], 0),
    (["verify", "--v", "2", "--chains", "2", "--alpha", "0.5", "--cost", "power:2", "--noise", "normal:1"], 0),
    (["verify", "--v", "2", "--chains", "2", "--cost", "timeboost:c=0.25,g=1", "--noise", "laplace:1"], 0),
    (["verify", "--v", "2", "--cost", "power:2", "--noise", "uniform:1"], 0),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_commands_that_never_sample_leave_out_scipy(argv, expected):
    code, _, modules = _probe(argv)
    assert (code, modules) == (expected, "[]")


@pytest.mark.parametrize("law", ["normal:1", "logistic:1", "laplace:1", "uniform:1"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--v", "1", "--chains", "2", "--signals", "0.5,0.5", "--trials", "1000"],
    ["verify", "--v", "2", "--chains", "2", "--cost", "power:2", "--mode", "montecarlo", "--trials", "1000"],
], ids=lambda v: v[0])
def test_sampling_under_every_law_leaves_out_scipy(argv, law):
    # the normal quantile is AS241 in NumPy and the logistic one a NumPy logit, so no sampling loads SciPy
    assert _probe([*argv, "--noise", law]) == (0, True, "[]")


@pytest.mark.parametrize("argv, expected", [
    (["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1", "--value-dist", "exp:1"], 0),
    (["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1", "--value-dist", "lognormal:0,0.5"], 0),
    (["optimal-c", "--cost", "timeboost:c=0.3,g=2", "--noise", "logistic:1", "--value-dist", "points:1@0.5,2@0.5"], 0),
    (["equilibrium", "--v", "1", "--cost", "power:0.5", "--noise", "normal:1"], 2),
    (["equilibrium", "--v", "1", "--cost", "power:2", "--noise", "gauss:1"], 2),
    (["equilibrium", "--v", "-1", "--cost", "power:2", "--noise", "normal:1"], 2),
    (["sweep", "--cost", "power:2", "--noise", "normal:1", "--grid", "v=3:-1:1"], 2),
    (["simulate", "--v", "1", "--chains", "2", "--signals", "0.1,0.2,0.3"], 2),
    (["equilibrium", "--v", "1", "--cost", "timeboost:c=0.1", "--noise", "normal:1"], 2),
    (["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1", "--value-dist", "exp:-1"], 2),
    (["equilibrium", "--v", "1", "--cost", "power:2", "--noise", "normal:1", "--g", "1"], 2),
    (["simulate", "--v", "1", "--signals", "0.5,0.5", "--trials", "0"], 2),
    (["simulate", "--v", "1", "--signals", "0.5,0.5", "--seed", "-1"], 2),
    (["verify", "--v", "1", "--cost", "power:2", "--noise", "normal:1", "--mode", "montecarlo", "--trials", "0"], 2),
    (["equilibrium", "--v", "1", "--chains", "3", "--alpha", "0.5", "--cost", "power:2", "--noise", "normal:1"], 2),
    (["simulate", "--v", "1", "--signals", "nan,0.5"], 2),
    (["simulate", "--v", "1", "--signals", "inf,0.5"], 2),
    (["sweep", "--grid", "v=-1:1:2", "--cost", "power:2", "--noise", "normal:1"], 2),
    (["sweep", "--grid", "sigma=0:1:2", "--cost", "power:2", "--noise", "normal:1"], 2),
    (["sweep", "--grid", "chains=0:1:2", "--cost", "power:2", "--noise", "normal:1"], 2),
    (["sweep", "--grid", "v=1:1:3", "--grid", "v=2", "--cost", "power:2", "--noise", "normal:1"], 2),
    (["optimal-c", "--cost", "timeboost:g=1,cap=0.2", "--noise", "normal:1", "--value-dist", "exp:1"], 2),
    (["optimal-c", "--cost", "timeboost:g=1,foo=3", "--noise", "normal:1", "--value-dist", "exp:1"], 2),
], ids=["optimal-c-exp", "optimal-c-lognormal", "optimal-c-points", "power-below-one", "unknown-noise",
        "negative-v", "descending-grid", "three-signals-two-chains", "timeboost-without-g", "negative-exp-rate",
        "bare-g", "simulate-zero-trials", "simulate-negative-seed", "verify-montecarlo-zero-trials",
        "refund-three-chains", "simulate-nan-signal", "simulate-infinite-signal", "sweep-negative-v",
        "sweep-zero-sigma", "sweep-zero-chains", "sweep-repeated-axis", "optimal-c-cost-cap",
        "optimal-c-unknown-cost-entry"])
def test_runs_without_arrays_leave_out_numpy(argv, expected):
    # NumPy is imported on first use: a cold run that needs no array never pays for it
    assert _probe(argv) == (expected, False, "[]")


@pytest.mark.parametrize("command, params, choices", [
    ("verify", {"v": 2, "cost": "power:2", "noise": "normal:1"}, "analytic, montecarlo"),
    ("optimal-c", {"cost": "timeboost:g=1", "noise": "normal:1", "value-dist": "exp:1"}, "shared, separate, both"),
])
def test_config_mode_outside_the_commands_choices_exits_before_any_solve(command, params, choices, tmp_path):
    # a config's mode is checked against --mode's choices, as its format is against --format's
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"command": command, "params": {**params, "mode": "bogus"}}))
    *message, probe = _probe_stderr(["--config", str(path)])
    assert message == [f"seqlab: config error: config key 'mode' needs one of {choices}, got 'bogus'"]
    assert _split_probe(command, probe) == (2, False, "[]")


@pytest.mark.parametrize("argv", [
    ["equilibrium", "--v", "2", "--cost", "power:2", "--noise", "normal:1"],
    ["sweep", "--grid", "v=0.5:0.5:2", "--cost", "power:2", "--noise", "normal:1"],
    ["simulate", "--v", "1", "--signals", "0.5,0.5", "--trials", "1000"],
    ["verify", "--v", "1", "--cost", "power:2", "--noise", "normal:1", "--mode", "montecarlo", "--trials", "1000"],
], ids=lambda v: v[0])
def test_array_commands_load_numpy_on_first_use(argv):
    assert _probe(argv)[:2] == (0, True)


@pytest.mark.parametrize("chains", [7, 12, 13, 32])
def test_montecarlo_verify_has_no_chain_limit(chains, capsys):
    # the level tally keeps a few counts per row and grid value; the joint counts of
    # every pair of chains once refused chains 13 onwards, the product grid chains 7
    code, out, err = _run(capsys, ["verify", "--v", "1", "--chains", str(chains), "--cost", "power:2",
                                   "--noise", "normal:1", "--mode", "montecarlo", "--trials", "100",
                                   "--format", "json"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["result"]["argmax_deviation"]) == chains


def test_montecarlo_verify_epsilon_is_positive_when_no_capture_is_seen(capsys):
    # 100 trials at 4 chains see no capture at the candidate nor at the best deviation, every
    # chain at 0: each half-width is v times the far end of Wilson's interval at 0,
    # z**2 / (T + z**2), where the sample half-width was 0 and refuted the market
    code, out, err = _run(capsys, ["verify", "--v", "0.5", "--chains", "4", "--cost", "power:2", "--noise",
                                   "normal:1", "--mode", "montecarlo", "--trials", "100", "--seed", "5"])
    assert (code, err) == (0, "")
    rows = dict(line.split() for line in out.splitlines())
    floor = 0.5 * 1.96**2 / (100 + 1.96**2)
    assert rows["argmax_deviation_0"] == "0" and rows["epsilon"] == f"{math.hypot(floor, floor):.12g}"
    assert rows["epsilon"] == "0.026159279235" and rows["is_epsilon_equilibrium"] == "true"


@pytest.mark.parametrize("trials, payoff", [(2000, "0.00191711760051"), (1, "inf")])
def test_simulate_capture_halfwidth_of_a_certain_or_unseen_capture_is_wilsons_floor(trials, payoff, capsys):
    # a lead of 9 wins every race: trader 1 captures in every trial and trader 2 in none,
    # and each capture half-width is z**2 / (T + z**2), where it was 0; one trial leaves
    # the payoff's sample variance undefined
    code, out, err = _run(capsys, ["simulate", "--v", "1", "--signals", "9,0", "--noise", "normal:1",
                                   "--trials", str(trials), "--seed", "1"])
    assert (code, err) == (0, "")
    rows = dict(line.split() for line in out.splitlines())
    assert (rows["capture_counts_0"], rows["capture_counts_1"]) == (str(trials), "0")
    floor = f"{1.96**2 / (trials + 1.96**2):.12g}"
    assert rows["capture_ci_halfwidth_0"] == rows["capture_ci_halfwidth_1"] == floor
    assert rows["payoff_ci_halfwidth_0"] == rows["payoff_ci_halfwidth_1"] == payoff


@pytest.mark.parametrize("chains", [8, 64])
def test_analytic_verify_has_no_chain_limit(chains, capsys):
    # the level family has chains * 301 profiles; the product grid refused chains 8 onwards
    code, out, err = _run(capsys, ["verify", "--v", "1", "--chains", str(chains), "--cost", "power:2",
                                   "--noise", "normal:1", "--format", "json"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["result"]["argmax_deviation"]) == chains
