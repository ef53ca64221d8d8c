import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_script_writes_csv(script, tmp_path, monkeypatch):
    out = tmp_path / "x.csv"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(out)])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(script), run_name="__main__")
    assert excinfo.value.code == 0
    with open(out, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = list(reader)
    assert header and all(name for name in header)
    assert len(rows) > 0
    assert all(len(row) == len(header) for row in rows)
