"""Record the command-line replay corpus.

    python tests/replay/record.py

Runs every case below through ``seqlab.cli.main`` in process, adds a
``--config`` replay of every case that prints JSON, and writes each case's
argv, config text, exit code, stdout, stderr and warnings to
``tests/replay/recorded.json``. ``tests/test_replay.py`` replays that file
and compares the bytes.

A case's argv names its config file as ``{config}``; the case's config text
is written there first, and a stderr that names the file shows
``{config}`` in its place. A change that alters output re-records the
corpus, so the diff of ``recorded.json`` shows which bytes moved; never
re-record to hide a defect.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDED = HERE / "recorded.json"

EQ = ["--cost", "power:2", "--noise", "normal:0.3989422804"]
PN = ["--cost", "power:2", "--noise", "normal:1"]
TB = ["--cost", "timeboost:c=0.25,g=1", "--noise", "normal:1"]
OPT = ["optimal-c", "--cost", "timeboost:g=1", "--noise", "normal:1"]


def _formats(name: str, argv: list[str]) -> list[tuple]:
    """The case in the default table format, in json and in csv."""
    return [(name, argv, None), (f"{name}.json", [*argv, "--format", "json"], None),
            (f"{name}.csv", [*argv, "--format", "csv"], None)]


def _cases() -> list[tuple]:
    """``(id, argv, config text or None)`` of every hand-written case."""
    cases = []
    for name, argv in [
        ("equilibrium-power2", ["equilibrium", "--v", "1", *EQ]),
        ("equilibrium-power1.5-logistic-n2", ["equilibrium", "--v", "2.5", "--chains", "2", "--cost", "power:1.5",
                                              "--noise", "logistic:0.5"]),
        ("equilibrium-power3.5-laplace-n3", ["equilibrium", "--v", "0.7", "--chains", "3", "--cost", "power:3.5",
                                             "--noise", "laplace:2"]),
        ("equilibrium-timeboost", ["equilibrium", "--v", "1", *TB]),
        ("equilibrium-timeboost-uniform-n2", ["equilibrium", "--v", "3", "--chains", "2",
                                              "--cost", "timeboost:c=0.1,g=2", "--noise", "uniform:1"]),
        ("equilibrium-capped", ["equilibrium", "--v", "1", *PN, "--cap", "0.1"]),
        ("equilibrium-cap-override", ["equilibrium", "--v", "1", "--cost", "power:2,cap=0.2", "--noise", "normal:1",
                                      "--cap", "0.5"]),
        ("equilibrium-refund-n2", ["equilibrium", "--v", "1", "--chains", "2", "--alpha", "0.5", *PN]),
        ("equilibrium-timeboost-zero", ["equilibrium", "--v", "0.05", *TB]),
        ("equilibrium-timeboost-refund-logistic", ["equilibrium", "--v", "1", "--chains", "2", "--alpha", "0",
                                                   "--cost", "timeboost:c=0.25,g=1", "--noise", "logistic:1"]),
        ("compare-power2", ["compare", "--v", "1", *EQ]),
        ("compare-timeboost-cap", ["compare", "--v", "1", "--cost", "timeboost:c=0.25,g=1,cap=0.4",
                                   "--noise", "normal:1"]),
        ("compare-power3-logistic-n3", ["compare", "--v", "2", "--chains", "3", "--cost", "power:3",
                                        "--noise", "logistic:1"]),
        ("compare-refund-laplace", ["compare", "--v", "1", "--alpha", "0.5", "--cost", "power:2",
                                    "--noise", "laplace:1"]),
        ("compare-timeboost-uniform", ["compare", "--v", "4", "--cost", "timeboost:c=0.1,g=2",
                                       "--noise", "uniform:2"]),
        ("compare-timeboost-capped", ["compare", "--v", "0.3", *TB, "--cap", "0.2"]),
        ("sweep-v", ["sweep", *PN, "--grid", "v=0.5:0.5:2"]),
        ("sweep-v-beta-refund", ["sweep", *PN, "--grid", "v=1:1:3", "--grid", "beta=1.5:0.5:2.5",
                                 "--grid", "alpha=0.5"]),
        ("sweep-timeboost-c-g-cap", ["sweep", "--cost", "timeboost:c=0.25,g=1", "--noise", "logistic:1",
                                     "--grid", "c=0.1:0.1:0.3", "--grid", "g=1:1:2", "--grid", "cap=0.5"]),
        ("sweep-chains-sigma", ["sweep", *PN, "--v", "2", "--grid", "chains=1:1:3", "--grid", "sigma=0.5:0.5:1"]),
        ("sweep-timeboost-zero", ["sweep", *TB, "--grid", "v=0.01:0.5:2"]),
        ("simulate-n2", ["simulate", "--v", "1", "--chains", "2", "--signals", "0.25,0.25", "--trials", "50000",
                         "--seed", "42"]),
        ("simulate-power3-logistic", ["simulate", "--v", "1", "--signals", "0.5,0.3", "--trials", "20000",
                                      "--cost", "power:3", "--noise", "logistic:1"]),
        ("simulate-per-chain-n3", ["simulate", "--v", "2", "--chains", "3", "--signals", "0.1,0.2,0.3,0.3,0.2,0.1",
                                   "--trials", "30000", "--seed", "7", "--noise", "laplace:0.5", "--alpha", "0.5"]),
        ("simulate-timeboost-uniform", ["simulate", "--v", "1", "--chains", "2", "--signals", "0.2,0.4",
                                        "--trials", "10000", "--cost", "timeboost:c=0.25,g=1",
                                        "--noise", "uniform:1"]),
        ("verify-power2-n2", ["verify", "--v", "1", "--chains", "2", *EQ]),
        ("verify-timeboost-logistic", ["verify", "--v", "1", "--cost", "timeboost:c=0.25,g=1",
                                       "--noise", "logistic:1"]),
        ("verify-n3", ["verify", "--v", "2", "--chains", "3", *PN]),
        ("verify-refund-n2", ["verify", "--v", "1", "--chains", "2", "--alpha", "0.5", *PN]),
        ("verify-montecarlo-n2", ["verify", "--v", "1", "--chains", "2", *PN, "--mode", "montecarlo",
                                  "--trials", "20000", "--seed", "3"]),
        ("verify-montecarlo-laplace", ["verify", "--v", "1", "--cost", "power:2", "--noise", "laplace:1",
                                       "--mode", "montecarlo", "--trials", "50000"]),
        ("optimal-c-exp", ["optimal-c", "--cost", "timeboost:g=1.0", "--noise", "normal:0.3989422804",
                           "--value-dist", "exp:1.0"]),
        ("optimal-c-lognormal", [*OPT, "--value-dist", "lognormal:0,0.5"]),
        ("optimal-c-points-shared", ["optimal-c", "--cost", "timeboost:c=0.3,g=2", "--noise", "logistic:1",
                                     "--value-dist", "points:1@0.5,2@0.5", "--mode", "shared"]),
        ("optimal-c-zero-law-separate", [*OPT, "--value-dist", "points:0@1", "--mode", "separate"]),
        ("optimal-c-tiny-f0", ["optimal-c", "--cost", "timeboost:c=0.1,g=1", "--noise", "normal:1e200",
                               "--value-dist", "exp:1"]),
    ]:
        cases += _formats(name, argv)
    cases.append(("equilibrium-explicit-table", ["equilibrium", "--v", "1", *EQ, "--format", "table"], None))
    # 200 rows, the corpus's largest sweep
    cases.append(("sweep-200-rows.csv", ["sweep", *PN, "--grid", "v=0.1:0.1:20", "--format", "csv"], None))

    # refunds across scale under both cost families
    for cost in ("power:2", "timeboost:c=0.25,g=1"):
        for v in ("1e-12", "1e-6", "1", "1e6", "1e12"):
            for chains, alpha in (("1", "0"), ("2", "0.5"), ("1", "0.5")):
                cases.append((f"refund-{cost.split(':')[0]}-v{v}-n{chains}-a{alpha}.json",
                              ["equilibrium", "--v", v, "--chains", chains, "--alpha", alpha, "--cost", cost,
                               "--noise", "normal:1", "--format", "json"], None))
        cases.append((f"refund-{cost.split(':')[0]}-compare-v1e12.json",
                      ["compare", "--v", "1e12", "--alpha", "0", "--cost", cost, "--noise", "normal:1",
                       "--format", "json"], None))

    # the profit v*2**-n - n*(1+alpha)/2*C(s) of one chain at alpha = 0 is the
    # small difference of two large terms, so its last bits show at 12 digits
    for v in ("1e30", "1e32", "1e35", "1e37"):
        cases.append((f"refund-power-profit-cancels-v{v}.json", ["equilibrium", "--v", v, "--chains", "1",
                                                                 "--alpha", "0", *PN, "--format", "json"], None))

    # chain counts
    for chains in ("1", "2", "3", "1025"):
        cases.append((f"chains-{chains}.json", ["equilibrium", "--v", "1e10", "--chains", chains, *PN,
                                                "--format", "json"], None))
    cases.append(("chains-1025-compare.json", ["compare", "--v", "1e10", "--chains", "1025", *PN,
                                               "--format", "json"], None))
    cases.append(("chains-1025-timeboost.csv", ["equilibrium", "--v", "1e10", "--chains", "1025", *TB,
                                                "--format", "csv"], None))
    # analytic verify scans the level family at any chain count, a capped grid included
    for chains in ("5", "8"):
        cases.append((f"verify-n{chains}.json", ["verify", "--v", "2", "--chains", chains, *PN, "--format", "json"],
                      None))
    cases.append(("verify-capped-n3", ["verify", "--v", "2", "--chains", "3", *PN, "--cap", "0.05"], None))
    # Monte Carlo verify scans the same level rows at any chain count
    cases.append(("verify-montecarlo-n7.json", ["verify", "--v", "2", "--chains", "7", *PN, "--mode", "montecarlo",
                                                "--trials", "2000", "--format", "json"], None))
    cases.append(("verify-montecarlo-chains-13", ["verify", "--v", "1", "--chains", "13", *PN, "--mode",
                                                  "montecarlo", "--trials", "100"], None))
    # one trial leaves no spread to sample: the infinite half-widths and epsilon print null in JSON
    cases.append(("simulate-one-trial-infinite-halfwidth.json", ["simulate", "--v", "1", "--signals", "9,0",
                                                                 "--noise", "normal:1", "--trials", "1", "--seed", "1",
                                                                 "--format", "json"], None))
    cases.append(("verify-montecarlo-one-trial-infinite-epsilon.json", ["verify", "--v", "1", "--cost", "power:2",
                                                                        "--noise", "normal:1", "--mode", "montecarlo",
                                                                        "--trials", "1", "--format", "json"], None))
    for chains in ("1", "2", "3"):
        signals = ",".join(["0.3"] * int(chains) + ["0.2"] * int(chains))
        cases.append((f"chains-{chains}-simulate.json", ["simulate", "--v", "1", "--chains", chains,
                                                         "--signals", signals, "--trials", "20000",
                                                         "--format", "json"], None))

    # config files: explicit and peeked commands, flags over config, --config=PATH
    cases += [
        ("config-flat-equilibrium", ["equilibrium", "--config", "{config}"],
         "# baseline shared race\nv = 1\nchains = 1\ncost = power:2\nnoise = normal:0.3989422804\nformat = json\n"),
        ("config-flat-peek-sweep", ["--config", "{config}"],
         "command = sweep\ncost = power:2\nnoise = normal:1\ngrid = v=1:1:2\ngrid = alpha=0.5\nformat = csv\n"),
        ("config-flat-optimal-c", ["optimal-c", "--config", "{config}"],
         "cost = timeboost:g=1\nnoise = normal:1   # trailing comment\nvalue-dist = exp:2\nmode = shared\n"),
        ("config-flat-flags-win", ["equilibrium", "--v", "2", "--config", "{config}", "--format", "csv"],
         "v = 1\ncost = power:2\nnoise = normal:0.3989422804\nformat = json\n"),
        ("config-flat-equals-form", ["--config={config}"],
         "command = simulate\nv = 1\nsignals = 0.4,0.6\ntrials = 20000\nseed = 5\nformat = json\n"),
        ("config-json-explicit-command", ["compare", "--config", "{config}", "--format", "csv"],
         '{"command": "compare", "params": {"v": 2, "cost": "power:2", "noise": "normal:1"}}'),
        ("config-json-without-command", ["verify", "--config", "{config}"],
         '{"params": {"v": 1, "chains": 2, "cost": "power:2", "noise": "normal:1", "trials": 1000}}'),
    ]

    # exit 2: the command line
    cases += [
        ("error-no-arguments", [], None),
        ("error-format-without-command", ["--format", "json"], None),
        ("error-flag-without-command", ["--v", "1"], None),
        ("error-unknown-command", ["frobnicate", "--v", "1"], None),
        ("error-unknown-flag", ["equilibrium", "--v", "1", *PN, "--volatility", "1"], None),
        ("error-flag-of-another-command", ["equilibrium", "--v", "1", *PN, "--signals", "0.5,0.5"], None),
        ("error-not-a-float", ["equilibrium", "--v", "abc", *PN], None),
        ("error-not-an-int", ["equilibrium", "--v", "1", "--chains", "2.5", *PN], None),
        ("error-missing-value", ["simulate", "--v", "1", "--signals", "-1,0.5"], None),
        ("error-bad-format", ["equilibrium", "--v", "1", *PN, "--format", "xml"], None),
        ("error-bad-verify-mode", ["verify", "--v", "1", *PN, "--mode", "bogus"], None),
        ("error-bad-optimal-c-mode", [*OPT, "--value-dist", "exp:1", "--mode", "analytic"], None),
        ("error-bare-g", ["equilibrium", "--v", "1", *PN, "--g", "0.5"], None),
        ("error-bare-c", ["compare", "--v", "1", *PN, "--c", "0.5"], None),
        ("error-equilibrium-needs-v", ["equilibrium"], None),
        ("error-equilibrium-needs-cost", ["equilibrium", "--v", "1"], None),
        ("error-equilibrium-needs-noise", ["equilibrium", "--v", "1", "--cost", "power:2"], None),
        ("error-compare-needs-v", ["compare", *PN], None),
        ("error-compare-needs-noise", ["compare", "--v", "1", "--cost", "power:2"], None),
        ("error-sweep-needs-cost", ["sweep"], None),
        ("error-sweep-needs-noise", ["sweep", "--cost", "power:2", "--grid", "v=1"], None),
        ("error-sweep-needs-grid", ["sweep", *PN], None),
        ("error-simulate-needs-v", ["simulate"], None),
        ("error-simulate-needs-signals", ["simulate", "--v", "1"], None),
        ("error-verify-needs-v", ["verify", *PN], None),
        ("error-verify-needs-cost", ["verify", "--v", "1", "--noise", "normal:1"], None),
        ("error-optimal-c-needs-cost", ["optimal-c"], None),
        ("error-optimal-c-needs-noise", ["optimal-c", "--cost", "timeboost:g=1"], None),
        ("error-optimal-c-needs-value-dist", OPT, None),
    ]

    # exit 2: config files
    cases += [
        ("error-config-missing", ["equilibrium", "--config", "{config}"], None),
        ("error-config-missing-peek", ["--config", "{config}"], None),
        ("error-config-malformed-json", ["--config", "{config}"], '{"command": "equilibrium", "params": {"v": 1'),
        ("error-config-params-not-object", ["--config", "{config}"], '{"command": "equilibrium", "params": 5}'),
        ("error-config-no-command", ["--config", "{config}"], "v = 1\ncost = power:2\nnoise = normal:1\n"),
        ("error-config-line-without-equals", ["equilibrium", "--config", "{config}"], "v = 1\ncost power:2\n"),
        ("error-config-not-a-flag", ["equilibrium", "--config", "{config}"], "v = 1\nsignals = 0.5,0.5\n"),
        ("error-config-unknown-key", ["--config", "{config}"],
         '{"command": "compare", "params": {"v": 1, "volatility": 2}}'),
        ("error-config-not-a-number", ["equilibrium", "--config", "{config}"], "v = abc\n"),
        ("error-config-not-an-integer", ["simulate", "--config", "{config}"],
         "v = 1\nsignals = 0.5,0.5\nchains = 2.5\n"),
        ("error-config-trials-not-an-integer", ["simulate", "--config", "{config}"],
         "v = 1\nsignals = 0.5,0.5\ntrials = abc\n"),
        ("error-config-bool-number", ["--config", "{config}"],
         '{"command": "equilibrium", "params": {"v": true, "cost": "power:2", "noise": "normal:1"}}'),
        ("error-config-bool-integer", ["--config", "{config}"],
         '{"command": "simulate", "params": {"v": 1, "signals": "0.5,0.5", "seed": false}}'),
        ("error-config-json-needs-v", ["--config", "{config}"],
         '{"command": "equilibrium", "params": {"cost": "power:2", "noise": "normal:1"}}'),
    ]

    # exit 2: specs, grids, markets, value laws and signals
    cases += [(f"error-cost-{i}", ["equilibrium", "--v", "1", "--cost", spec, "--noise", "normal:1"], None)
              for i, spec in enumerate(["power:abc", "power", "power:2,3", "power:2,c=1", "timeboost:c=1",
                                        "timeboost:c=1,g=1,beta=2", "gamma:2", "power:0.5", "timeboost:c=0,g=1",
                                        "timeboost:c=1,g=1,cap=2", "power:2,cap=-1", "timeboost:c=1,g=inf",
                                        "power:2,cap=x"])]
    cases += [(f"error-noise-{i}", ["equilibrium", "--v", "1", "--cost", "power:2", "--noise", spec], None)
              for i, spec in enumerate(["gauss:1", "normal", "normal:abc", "normal:-1", "logistic:0",
                                        "laplace:inf"])]
    cases += [(f"error-market-{i}", [command, *argv, *PN], None) for i, (command, argv) in enumerate([
        ("equilibrium", ["--v", "-1"]), ("equilibrium", ["--v", "0"]), ("compare", ["--v", "inf"]),
        ("equilibrium", ["--v", "1", "--chains", "0"]), ("equilibrium", ["--v", "1", "--alpha", "1.5"]),
        ("verify", ["--v", "1", "--alpha", "-0.1"]), ("equilibrium", ["--v", "1", "--chains", "3", "--alpha", "0.5"]),
        ("equilibrium", ["--v", "1", "--chains", "1100"]), ("equilibrium", ["--v", "1e10", "--chains", "1100"]),
    ])]
    cases += [
        ("error-stake-overflow", ["equilibrium", "--v", "1e300", "--cost", "power:2", "--noise", "normal:1e-10"],
         None),
    ]
    cases += [(f"error-grid-{i}", ["sweep", "--cost", cost, "--noise", "normal:1", *grid], None)
              for i, (cost, grid) in enumerate([
                  ("power:2", ["--grid", "v"]), ("power:2", ["--grid", "v=1:2"]), ("power:2", ["--grid", "v=2:-1:3"]),
                  ("power:2", ["--grid", "v=3:1:2"]), ("power:2", ["--grid", "v=1:1:x"]),
                  ("power:2", ["--grid", "v=1:1:1001", "--grid", "beta=2:1:1002"]),
                  ("power:2", ["--grid", "foo=1"]), ("power:2", ["--grid", "v=inf"]), ("power:2", ["--grid", "c=0.1"]),
                  ("timeboost:c=0.25,g=1", ["--grid", "beta=2"]), ("power:2", ["--grid", "chains=2.5"]),
                  ("power:2", ["--grid", "v=-1"]), ("power:2", ["--grid", "alpha=1.5"]),
                  ("power:2", ["--grid", "beta=0.5"]), ("power:2", ["--grid", "sigma=-1"]),
                  ("power:2", ["--grid", "chains=3", "--alpha", "0.5"]), ("timeboost:c=0.25,g=1", ["--grid", "c=0"]),
                  ("timeboost:c=0.25,g=1", ["--grid", "cap=1.5"]), ("power:2", ["--grid", "chains=1:1:1100"]),
                  ("power:2", ["--grid", "v=1e300", "--chains", "40"]),
              ])]
    cases += [(f"error-value-dist-{i}", [*OPT, "--value-dist", spec], None)
              for i, spec in enumerate(["exp", "weibull:1", "points:1", "points:inf@1", "points:1@0.5", "exp:-1",
                                        "lognormal:0,-1", "lognormal:inf,1", "lognormal:1500,1", "points:",
                                        "exp:abc", "points:-1@1"])]
    cases += [(f"error-optimal-c-cost-{i}", ["optimal-c", "--cost", cost, "--noise", noise, "--value-dist", "exp:1"],
               None)
              for i, (cost, noise) in enumerate([("power:2", "normal:1"), ("timeboost:c=1", "normal:1"),
                                                 ("timeboost:g=0", "normal:1"), ("timeboost:g=100", "normal:0.01")])]
    cases += [(f"error-simulate-{i}", ["simulate", "--v", "1", *argv], None) for i, argv in enumerate([
        ["--signals", "a,b"], ["--signals", "0.1,0.2,0.3"], ["--chains", "2", "--signals", "0.1,0.2,0.3"],
        ["--signals=-1,0.5"], ["--signals", "1.5,0.5", "--cost", "timeboost:c=1,g=1"],
        ["--signals", "0.5,0.5", "--cap", "0.1"], ["--signals", "0.5,0.5", "--trials", "0"],
        ["--signals", "0.5,0.5", "--seed", "-1"], ["--signals", "nan,0.5"],
    ])]
    cases.append(("error-verify-montecarlo-infinite-draws", ["verify", "--v", "1e300", "--chains", "2", "--cost",
                                                             "power:2", "--noise", "laplace:1.7e308", "--mode",
                                                             "montecarlo", "--trials", "2000"], None))
    cases.append(("error-verify-montecarlo-trials", ["verify", "--v", "1", *PN, "--mode", "montecarlo",
                                                     "--trials", "0"], None))

    # exit 1: solver errors
    cases += [
        ("solver-power-signal-overflow", ["equilibrium", "--v", "1e16", "--cost", "power:1.05", "--noise",
                                          "normal:1"], None),
        ("solver-power-signal-overflow-sweep", ["sweep", "--cost", "power:1.05", "--noise", "normal:1",
                                                "--grid", "v=1e16"], None),
        ("solver-compare-signal-overflow", ["compare", "--v", "1e300", "--cost", "power:1.01", "--noise",
                                            "normal:1"], None),
        ("solver-boost-bound", ["equilibrium", "--v", "1e33", *TB], None),
        ("solver-cost-overflow", ["equilibrium", "--v", "1e300", "--chains", "40", "--cost", "power:2",
                                  "--noise", "normal:1e-10"], None),
        ("solver-optimal-c-inf", [*OPT, "--value-dist", "lognormal:800,1"], None),
        ("solver-optimal-c-zero", [*OPT, "--value-dist", "lognormal:-800,1"], None),
        ("solver-optimal-c-tails", [*OPT, "--value-dist", "lognormal:0,40"], None),
        ("solver-optimal-c-points-1e308", ["optimal-c", "--cost", "timeboost:g=3.99", "--noise",
                                           "normal:0.3989422804", "--value-dist", "points:1e308@1",
                                           "--format", "json"], None),
    ]

    # tiny, huge and out-of-range numbers: each run exits cleanly, with nothing but its line on stderr
    cases += [
        ("verify-tiny-cap", ["verify", "--v", "1", "--cost", "power:2,cap=1e-320", "--noise", "normal:1"], None),
        ("verify-tiny-boost-bound", ["verify", "--v", "1", "--cost", "timeboost:c=1,g=1e-320", "--noise", "normal:1"],
         None),
        *((f"{command}-tiny-v-timeboost-corner", [command, "--v", "1e-320", "--cost", "timeboost:c=0.1,g=1",
                                                   "--noise", "normal:1"], None)
          for command in ("equilibrium", "compare", "verify")),
        ("sweep-huge-c-timeboost-corner", ["sweep", "--cost", "timeboost:c=0.1,g=1", "--noise", "normal:1",
                                           "--grid", "c=1e308"], None),
        ("verify-huge-v-deviation-cost-overflow", ["verify", "--v", "1e308", "--alpha", "0", "--cost", "power:2",
                                                   "--noise", "normal:1"], None),
        ("verify-huge-boost-fee-cost-overflow", ["verify", "--v", "1", "--cost", "timeboost:c=1e300,g=1e-300",
                                                 "--noise", "normal:1"], None),
        ("error-simulate-infinite-cost", ["simulate", "--v", "1", "--signals", "1e300,1", "--trials", "100",
                                          "--cost", "power:2"], None),
        *((f"error-simulate-chains-{chains}", ["simulate", "--v", "1", "--chains", chains, "--signals", "0.1,0.1",
                                               "--trials", "1"], None) for chains in ("196609", "1000000000000")),
    ]
    return cases


def main() -> int:
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]
    from test_replay import run_case

    entries = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv, config in _cases():
            entry = {"id": name, "argv": argv, "config": config}
            entries.append({**entry, **run_case(entry, Path(scratch))})
            if entries[-1]["exit"] == 0 and entries[-1]["stdout"].startswith("{"):
                replay = {"id": f"{name}@config", "argv": ["--config", "{config}"], "config": entries[-1]["stdout"]}
                entries.append({**replay, **run_case(replay, Path(scratch))})
    ids = [entry["id"] for entry in entries]
    if len(set(ids)) != len(ids):
        raise SystemExit("case ids must be unique")
    RECORDED.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} cases to {RECORDED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
