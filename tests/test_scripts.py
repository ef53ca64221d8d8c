import csv
import runpy
import sys
from pathlib import Path

import pytest

import closed_forms

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def _run(script, out, monkeypatch):
    """Run ``script`` as ``__main__`` writing its CSV to ``out``, and require exit status 0."""
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out)])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(script), run_name="__main__")
    assert excinfo.value.code == 0


BAD_FLAGS = [
    ("refund_alpha_curves", ["--steps", "1"], "--steps needs at least 2 alpha grid points, got 1"),
    ("refund_alpha_curves", ["--steps", "0"], "--steps needs at least 2 alpha grid points, got 0"),
    ("refund_alpha_curves", ["--betas", ""], "--betas needs comma-separated numbers, got ''"),
    ("refund_alpha_curves", ["--betas", "1"], "power cost needs elasticity beta >= 1.000001, got 1.0"),
    ("refund_alpha_curves", ["--v", "0"], "trade value must be positive and finite, got 0.0"),
    ("waste_ratio_sweep", ["--sigma", "0"], "normal noise needs a positive finite parameter, got 0.0"),
    ("timeboost_revenue_map", ["--g", "0"], "timeboost cost needs positive finite g, got 0.0"),
    ("timeboost_revenue_map", ["--sigma", "-1"], "normal noise needs a positive finite parameter, got -1.0"),
]


@pytest.mark.parametrize(("script", "flags", "message"), BAD_FLAGS,
                         ids=[" ".join([script, *flags]) for script, flags, _ in BAD_FLAGS])
def test_script_refuses_a_bad_flag_with_exit_2(script, flags, message, tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    monkeypatch.setattr(sys, "argv", [f"{script}.py", *flags, "--out", str(out)])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SCRIPT_DIR / f"{script}.py"), run_name="__main__")
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f"{script}.py: error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_script_writes_csv(script, tmp_path, monkeypatch):
    out = tmp_path / "x.csv"
    _run(script, out, monkeypatch)
    with open(out, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    assert header and all(name for name in header)
    assert len(rows) > 0
    assert all(len(row) == len(header) for row in rows)


def test_revenue_map_takes_the_solvers_revenues(tmp_path, monkeypatch):
    # no cell earns a negative revenue, and wherever both sides earn, the winner is the oracle line's
    out = tmp_path / "map.csv"
    _run(SCRIPT_DIR / "timeboost_revenue_map.py", out, monkeypatch)
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    f0 = closed_forms.peak_density("normal", 1.0)  # the script's default sigma
    compared = 0
    for row in rows:
        c_over_g, v = float(row["c_over_g"]), float(row["v"])
        shared, separate = float(row["shared_revenue"]), float(row["separate_revenue"])
        assert shared >= 0.0 and separate >= 0.0, row
        line = closed_forms.revenue_threshold(f0, v)
        if shared > 0.0 and separate > 0.0 and abs(c_over_g - line) > 1e-9:
            assert row["separate_beats"] == str(c_over_g < line), row
            compared += 1
    assert compared > 0
