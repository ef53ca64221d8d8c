import json

import pytest

from seqlab.cli import COMMANDS, _parse_grid, main
from seqlab.errors import ConfigError

EQ_ARGS = ["equilibrium", "--v", "1", "--chains", "1", "--cost", "power:2",
           "--noise", "normal:0.3989422804"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_equilibrium_json_schema(capsys):
    code, out, _ = _run(capsys, EQ_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "equilibrium"
    assert payload["params"]["cost"] == "power:2"
    result = payload["result"]
    assert set(result) == {
        "signal", "per_chain_cost", "total_cost", "capture_probability",
        "expected_profit", "regime", "participation",
    }
    assert result["signal"] == pytest.approx(0.5, abs=1e-6)
    assert result["regime"] == "interior"
    assert result["participation"] is True


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
    from seqlab.cli import _COMMAND_FLAGS
    flag_names = {
        "v": "--v", "chains": "--chains", "alpha": "--alpha", "cost": "--cost",
        "noise": "--noise", "cap": "--cap", "signals": "--signals", "trials": "--trials",
        "seed": "--seed", "grid": "--grid", "value_dist": "--value-dist",
    }
    expected = {flag_names[name] for name in _COMMAND_FLAGS[command]}
    expected |= {"--format", "--out", "--config", "--g", "--c"}
    if command in ("verify", "optimal-c"):
        expected.add("--mode")
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
    ],
    ids=["missing-peek", "missing", "malformed-json", "params-not-object", "trials-not-int", "chains-not-int"],
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
    ("value_dist", "expected", "reason"),
    [
        ("points:inf@1", 2, "point-mass values must be finite"),
        ("lognormal:1500,1", 2, "beyond float range"),
        ("points:1", 2, "'1' is not VALUE@WEIGHT"),
        ("lognormal:800,1", 1, "outside the searched range"),
        ("points:1e20@1", 1, "outside the searched range"),
        # zero revenue over the whole range, yet the law has mass above zero
        ("points:1e-12@1", 1, "outside the searched range"),
    ],
)
def test_optimal_c_unusable_value_law_exit_code(value_dist, expected, reason, capsys):
    code, out, err = _run(capsys, ["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1",
                                   "--value-dist", value_dist, "--format", "json"])
    assert code == expected
    assert out == ""
    assert err.startswith("seqlab: config error" if expected == 2 else "seqlab: solver error")
    assert reason in err


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


def test_oversized_sweep_exits_before_solving(capsys, monkeypatch):
    import seqlab.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("sweep ran on an oversized grid")

    monkeypatch.setattr(cli.analysis, "sweep", refuse)
    code, out, err = _run(capsys, ["sweep", "--cost", "power:2", "--noise", "normal:1",
                                   "--grid", "v=1:1:1001", "--grid", "beta=2:1:1002"])
    assert code == 2
    assert out == ""
    assert "at most 1000000" in err
