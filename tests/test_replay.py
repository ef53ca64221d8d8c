"""Replay the recorded command-line corpus and compare its bytes.

Each entry of ``tests/replay/recorded.json`` holds an argv, the text of its
config file (if any) and the exit code, stdout, stderr and warnings it gave
when it was recorded by ``tests/replay/record.py``.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from seqlab.cli import main

RECORDED = Path(__file__).parent / "replay" / "recorded.json"


def run_case(case: dict, scratch: Path) -> dict:
    """Exit code, stdout, stderr and warnings of one case run through ``main`` in process.

    The case's config text goes to a file that its argv names as
    ``{config}``; the file's path in stderr reads ``{config}`` again.
    """
    path = scratch / "config"
    path.unlink(missing_ok=True)
    if case["config"] is not None:
        path.write_text(case["config"], encoding="utf-8")
    argv = [token.replace("{config}", str(path)) for token in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue().replace(str(path), "{config}"),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


def replay_moves(scratch: Path) -> dict:
    """The fields each recorded case no longer reproduces through ``main``, by case id."""
    moved = {}
    for entry in json.loads(RECORDED.read_text(encoding="utf-8")):
        now = run_case(entry, scratch)
        fields = [key for key, value in now.items() if value != entry[key]]
        if fields:
            moved[entry["id"]] = fields
    return moved


def test_every_case_replays_byte_identical(tmp_path):
    # one test for the whole corpus: a test item per case would double its time
    moved = replay_moves(tmp_path)
    assert not moved, f"{len(moved)} cases moved (case: fields): {moved}"


def test_every_case_replays_byte_identical_with_numpy_deferred(tmp_path):
    # this process imported NumPy before seqlab, so seqlab's np is NumPy itself; a fresh
    # interpreter that imports seqlab first replays the corpus through the deferred module,
    # and every command of the corpus, sampling ones included, leaves SciPy unloaded
    code = ("import json, sys; from pathlib import Path; import seqlab; loaded = 'numpy' in sys.modules; "
            f"sys.path.insert(0, {str(Path(__file__).parent)!r}); from test_replay import replay_moves; "
            "moved = replay_moves(Path(sys.argv[1])); "
            "print(json.dumps([loaded, moved, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, check=True,
                         env=env, timeout=300)
    assert json.loads(out.stdout.splitlines()[-1]) == [False, {}, []]


def test_recorder_and_corpus_list_the_same_cases():
    # runs no command: a case added to the recorder but never recorded shows here
    spec = importlib.util.spec_from_file_location("record", RECORDED.parent / "record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    entries = json.loads(RECORDED.read_text(encoding="utf-8"))
    base = [(entry["id"], entry["argv"], entry["config"]) for entry in entries if not entry["id"].endswith("@config")]
    assert base == [(name, argv, config) for name, argv, config in record._cases()]
    # every run that prints JSON is followed by its --config replay, whose config text is that JSON
    runs = [(entry, after) for entry, after in zip(entries, entries[1:] + [None])
            if not entry["id"].endswith("@config") and entry["exit"] == 0 and entry["stdout"].startswith("{")]
    for entry, replay in runs:
        assert replay is not None and replay["id"] == f"{entry['id']}@config", entry["id"]
        assert (replay["argv"], replay["config"]) == (["--config", "{config}"], entry["stdout"]), entry["id"]
    assert len(runs) == len(entries) - len(base)  # and no replay of anything else


def test_every_json_case_is_standard_json():
    # JSON (RFC 8259) has no Infinity or NaN, which Python's parser accepts by default
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    cases = [entry for entry in json.loads(RECORDED.read_text(encoding="utf-8")) if entry["stdout"].startswith("{")]
    assert len(cases) > 100
    results = {entry["id"]: json.loads(entry["stdout"], parse_constant=reject)["result"] for entry in cases}
    # a one-trial run's half-widths and epsilon are infinite: null
    assert results["simulate-one-trial-infinite-halfwidth.json"]["payoff_ci_halfwidth"] == [None, None]
    assert results["verify-montecarlo-one-trial-infinite-epsilon.json"]["epsilon"] is None
