"""seqlab benchmark: three seeded closed-loop workloads with correctness oracles.

    python3 bench/run.py --workload {cli-cold,grid-solve,mc-oracle,all}
                         --seed N --seconds S --trace {0,1}

Workloads (one client, closed loop; see README.md for why each exists):

* ``cli-cold``   fresh ``python -m seqlab <cmd> --format json`` runs over all
                 six subcommands, each replayed with ``--config``, plus
                 malformed specs that must exit 2;
* ``grid-solve`` in process: FOC and refund sweeps, analytic best-response
                 certifications at chains 1-5, and ``optimal_c`` searches;
* ``mc-oracle``  in process: ``simulate`` at a million trials per call and a
                 Monte Carlo best-response verification at 20k trials.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed amount of work (so counts repeat exactly) twice,
untraced and then traced, and reports the per-layer metrics plus the tracing
overhead. The last line of standard output is the JSON result; the lines
before it are a readable report with the environment, every metric, its
unit and its sample count. The program is loaded from ``src/`` of the
checkout this file sits in; BLAS and OpenMP run on one thread, the runner
and its children stay on one CPU, and at most one child process runs at a
time.

End-to-end times are normalised by a host-speed reference timed around each
operation (``speed.py``): they are seconds at the reference's nominal speed,
so that the host's drift in speed does not move them. Raw times and the
measured slowdown are printed beside them.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cli-cold", "grid-solve", "mc-oracle")
COMMANDS = ("equilibrium", "compare", "sweep", "simulate", "verify", "optimal-c")
SETUP_REPEATS = 7
SETUP_ROUNDS = 8
IMPORT_PROBES = 3
TRACE_ROUNDS = {"cli-cold": 1, "grid-solve": 4, "mc-oracle": 2}
CHILD_TIMEOUT = 150.0

END_TO_END = ("setup_s", "latency_s.p50", "throughput_per_s", "peak_rss_mb")

clock = time.perf_counter


class Tally:
    """Operations attempted and failed, and refutations found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refuted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


# -- child processes ---------------------------------------------------------

class Child(NamedTuple):
    code: int
    out: bytes
    err: bytes
    wall: float
    maxrss_kb: int


def run_child(cmd: list[str], scratch: Path) -> Child:
    """Run ``cmd`` to completion; wall time and peak RSS come from ``wait4``.

    Output goes to files, not pipes, so a child is never blocked on a full
    pipe while we wait for it.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = clock()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall, usage.ru_maxrss)


def measure_setup(workload: str, seed: int, scratch: Path, speed: Speed) -> list[float]:
    """Normalised wall time of fresh interpreters importing seqlab and
    generating inputs."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import seqlab, inputs; "
            f"inputs.generate({workload!r}, {seed}, {SETUP_ROUNDS})")
    walls = []
    speed.mark()
    for _ in range(SETUP_REPEATS):
        child = run_child([sys.executable, "-c", code], scratch)
        if child.code != 0:
            raise RuntimeError(f"set-up failed:\n{child.err.decode(errors='replace')}")
        walls.append(speed.normalize(child.wall))
    return walls


def import_probe(scratch: Path) -> tuple[float, float]:
    """``(seqlab cumulative, scipy self total)`` import seconds from ``-X importtime``."""
    child = run_child([sys.executable, "-X", "importtime", "-c", "import seqlab"], scratch)
    if child.code != 0:
        raise RuntimeError(f"import failed:\n{child.err.decode(errors='replace')}")
    seqlab_us, scipy_us = 0, 0
    for line in child.err.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue
        name = name.strip()
        if name == "seqlab":
            seqlab_us = int(cumulative)
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += int(own)
    return seqlab_us * 1e-6, scipy_us * 1e-6


# -- workload: cli-cold -------------------------------------------------------

def run_cli_round(ops: list[dict], tally: Tally, walls: list[tuple[str, float, float]], scratch: Path,
                  deadline: float, tracer: Tracer | None = None, speed: Speed | None = None) -> int:
    """Invoke each op (and its replay) unless ``deadline`` has passed.

    Appends ``(command, raw seconds, normalised seconds)`` per invocation to
    ``walls``; without ``speed`` the two times are equal. With ``tracer``
    set, every invocation runs under ``cli_child.py`` and its spans are
    merged into ``tracer``. Returns the peak child RSS in KB.
    """
    peak = 0
    spans = scratch / "spans.json"

    def invoke(label: str, argv: list[str]) -> Child:
        nonlocal peak
        if tracer is None:
            cmd = [sys.executable, "-m", "seqlab", *argv]
        else:
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans), label, *argv]
        child = run_child(cmd, scratch)
        walls.append((label, child.wall, speed.normalize(child.wall) if speed is not None else child.wall))
        peak = max(peak, child.maxrss_kb)
        if tracer is not None and spans.exists():  # a crashed command fails its check anyway
            tracer.merge(json.loads(spans.read_text()))
        return child

    for op in ops:
        if clock() >= deadline:
            break
        command, argv = op["command"], op["argv"]
        what = f"{command} {' '.join(argv)}"
        if command == "malformed":
            child = invoke(command, argv)
            tally.record(child.code == 2 and child.out == b"" and child.err.startswith(b"seqlab: config error"),
                         what)
            continue
        first = invoke(command, argv)
        ok = first.code == 0
        if ok:
            try:
                payload = json.loads(first.out)
                ok = payload["command"] == command and oracles.check_cli_result(command, payload["result"], op["case"])
            except (ValueError, KeyError, TypeError):
                ok = False
            if ok and not payload["result"].get("is_epsilon_equilibrium", True):
                tally.refuted += 1
        tally.record(ok, what)
        config = scratch / "first.json"
        config.write_bytes(first.out)
        replay = invoke(command, ["--config", str(config)])
        tally.record(replay.code == 0 and replay.out == first.out, f"replay of {what}")
    return peak


# -- workload: grid-solve -----------------------------------------------------

def _cost(model: dict):
    from seqlab import cost

    return cost.CostModel(**model)


def _noise(noise: dict):
    from seqlab import noise as noise_module

    return noise_module.NoiseModel(**noise)


def _phase(tracer, name: str):
    return tracer.phase(name) if tracer is not None else nullcontext()


def _timed(tally: Tally, what: str, op):
    """``(seconds, op())``; an op that raises is a failed op and yields None."""
    start = clock()
    try:
        out = op()
    except Exception as exc:  # record the failure and keep measuring
        tally.record(False, f"{what} raised {exc!r}")
        out = None
    return clock() - start, out


def _certify(case: dict, **verify_options):
    """Solve a candidate and scan trader 1's deviations against it."""
    from seqlab import equilibrium, montecarlo

    market = equilibrium.MarketConfig(case["v"], case["n"], case["alpha"])
    cost, noise = _cost(case["cost"]), _noise(case["noise"])
    result = equilibrium.solve_equilibrium(market, cost, noise)
    return result, montecarlo.verify_best_response(result, market, cost, noise, **verify_options)


def run_grid_round(inp: dict, tally: Tally, tracer=None) -> dict:
    """One round; returns busy seconds per operation kind (checks excluded)
    and the number of sweep points of each kind."""
    from seqlab import analysis

    times = {"foc": 0.0, "refund": 0.0, "certify": 0.0, "optc": [], "foc_points": 0, "refund_points": 0}
    for kind in ("foc", "refund"):
        with _phase(tracer, f"bench.{kind}"):
            for call in inp[kind]:
                times[f"{kind}_points"] += inputs.sweep_points(call)
                seconds, rows = _timed(tally, f"{kind} sweep {call}", lambda: analysis.sweep(
                    call["axes"], cost=_cost(call["cost"]), noise=_noise(call["noise"]), alpha=call["alpha"]))
                times[kind] += seconds
                for row in rows or ():
                    tally.record(oracles.check_sweep_row(row, call), f"{kind} point {row}")
    with _phase(tracer, "bench.certify"):
        for case in inp["certs"]:
            seconds, found = _timed(tally, f"certification {case}", lambda: _certify(case))
            times["certify"] += seconds
            if found is not None:
                result, check = found
                tally.record(oracles.check_certification(result.signal, vars(check), case), f"certification {case}")
                tally.refuted += not check.is_epsilon_equilibrium
    with _phase(tracer, "bench.optimal_c"):
        for item in inp["optc"]:
            case, mode = item["case"], item["mode"]
            what = f"optimal_c {mode} {case['argv']}"
            seconds, fee = _timed(tally, what, lambda: analysis.optimal_c(
                analysis.ValueDistribution(**case["dist"]), case["g"], _noise(case["noise"]).density_at_zero(), mode))
            times["optc"].append(seconds)
            if fee is not None:
                tally.record(oracles.check_optimal_c(fee.c_star, fee.ex_ante_revenue, case["expected"][mode]), what)
    return times


def largest_scan_bytes(inp: dict) -> int:
    """tracemalloc peak of the round's largest certification."""
    case = max(inp["certs"], key=lambda c: c["n"])
    tracemalloc.start()
    try:
        _certify(case)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- workload: mc-oracle ------------------------------------------------------

def _spec(case: dict):
    from seqlab import equilibrium, montecarlo

    market = equilibrium.MarketConfig(case["v"], case["n"], case["alpha"])
    return montecarlo.SimulationSpec(tuple(case["signals"]), market, _cost(case["cost"]), _noise(case["noise"]),
                                     trials=case["trials"], seed=case["seed"])


def run_mc_round(inp: dict, tally: Tally, tracer=None) -> dict:
    """One round; returns simulate races and seconds, and verification seconds."""
    from seqlab import montecarlo

    out = {"races": 0, "calls": len(inp["sims"]), "simulate": 0.0, "verify": 0.0}
    with _phase(tracer, "bench.simulate"):
        for case in inp["sims"]:
            what = f"simulate {case['noise']} n={case['n']} seed={case['seed']}"
            seconds, stats = _timed(tally, what, lambda: montecarlo.simulate(_spec(case)))
            out["simulate"] += seconds
            out["races"] += case["trials"] * case["n"]
            if stats is not None:
                tally.record(oracles.check_simulation(stats.capture_counts, stats.per_chain_win_counts, case), what)
    case = inp["verify"]
    with _phase(tracer, "bench.mc_verify"):
        out["verify"], found = _timed(tally, f"mc verification {case}", lambda: _certify(
            case, mode="montecarlo", trials=case["trials"], seed=case["seed"]))
    if found is not None:
        result, check = found
        tally.record(oracles.check_mc_verification(result.signal, vars(check), case), f"mc verification {case}")
        tally.refuted += not check.is_epsilon_equilibrium
    return out


def simulate_bytes_per_trial(inp: dict) -> float:
    """tracemalloc peak of one simulate call, per trial."""
    from seqlab import montecarlo

    case = inp["sims"][0]
    spec = _spec(case)
    tracemalloc.start()
    try:
        montecarlo.simulate(spec)
        return tracemalloc.get_traced_memory()[1] / case["trials"]
    finally:
        tracemalloc.stop()


# -- statistics ---------------------------------------------------------------

def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, math.ceil(pct / 100.0 * n) - 1)]


class Report:
    """Metric rows for the readable report and the JSON result."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[tuple[str, float, str, int | str]] = []

    def add(self, name: str, value: float, unit: str, samples) -> None:
        self.rows.append((name, float(value), unit, samples))

    def timing(self, name: str, samples: list[float]) -> None:
        """Median and tail of ``samples``, in seconds."""
        self.add(f"{name}.p50", statistics.median(samples), "s", len(samples))
        found = tail(samples)
        if found is not None:
            self.add(f"{name}.p{found[0]}", found[1], "s", len(samples))

    def print(self) -> None:
        width = max(len(r[0]) for r in self.rows)
        print(f"# {'metric'.ljust(width)}  {'value':>14}  {'unit':<8} {'samples':>7}  workload")
        for name, value, unit, samples in self.rows:
            print(f"  {name.ljust(width)}  {value:>14.6g}  {unit:<8} {samples!s:>7}  {self.workload}")


# -- the two kinds of run ----------------------------------------------------

def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, scratch: Path, tally: Tally) -> Report:
    """Untraced run: end-to-end metrics over ``seconds`` of closed-loop work."""
    report = Report(workload)
    speed = Speed()
    setup = measure_setup(workload, seed, scratch, speed)
    report.add("setup_s", statistics.median(setup), "s", len(setup))
    round_of = inputs.ROUNDS[workload]
    if workload == "cli-cold":
        walls: list[tuple[str, float, float]] = []
        deadline = clock() + seconds
        peak_kb, r = 0, 0
        while clock() < deadline:
            peak_kb = max(peak_kb, run_cli_round(round_of(seed, r), tally, walls, scratch, deadline, speed=speed))
            r += 1
        cli_summary(report, walls)
        report.add("peak_rss_mb", peak_kb / 1024.0, "MB", 1)
    else:
        run_round = run_grid_round if workload == "grid-solve" else run_mc_round
        run_round(round_of(seed, 0), tally)  # warm-up, checked but not timed
        rounds, raw = [], []
        deadline = clock() + seconds
        speed.mark()
        while clock() < deadline or len(rounds) < 2:
            times = run_round(round_of(seed, len(rounds) + 1), tally)
            raw.append(times)
            rounds.append(scaled(times, speed.factor()))
        summarize = grid_summary if workload == "grid-solve" else mc_summary
        summarize(report, rounds, raw)
        report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    report.add("host_slowdown", statistics.median(speed.samples), "ratio", len(speed.samples))
    report.add("error_rate", tally.failed / max(tally.attempted, 1), "ratio", tally.attempted)
    report.add("refuted", tally.refuted, "count", tally.attempted)
    return report


TIME_KEYS = ("foc", "refund", "certify", "simulate", "verify")


def scaled(times: dict, factor: float) -> dict:
    """A round's times divided by the host slowdown ``factor``; counts kept."""
    out = dict(times)
    for key in TIME_KEYS:
        if key in out:
            out[key] /= factor
    if "optc" in out:
        out["optc"] = [x / factor for x in out["optc"]]
    return out


def cli_summary(report: Report, walls: list[tuple[str, float, float]]) -> None:
    """Latency is the median per command (replays included, malformed specs
    a command of their own), averaged over the commands: a plain median
    over a mix of commands that take different times would jump between
    them with the mix a run happens to end on."""
    by_command = defaultdict(list)
    for command, _, wall in walls:
        by_command[command].append(wall)
    n = len(walls)
    report.add("latency_s.p50", math.fsum(map(statistics.median, by_command.values())) / len(by_command), "s", n)
    report.add("throughput_per_s", n / math.fsum(w[2] for w in walls), "1/s", n)
    report.timing("cli_wall_s", [w[2] for w in walls])
    report.add("raw.cli_wall_s.p50", statistics.median(w[1] for w in walls), "s", n)


def grid_summary(report: Report, rounds: list[dict], raw: list[dict]) -> None:
    n = len(rounds)

    def round_seconds(t):
        return t["foc"] + t["refund"] + t["certify"] + math.fsum(t["optc"])

    round_s = [round_seconds(t) for t in rounds]
    report.add("latency_s.p50", statistics.median(round_s), "s", n)
    report.add("throughput_per_s", statistics.median(
        (t["foc_points"] + t["refund_points"]) / (t["foc"] + t["refund"]) for t in rounds), "1/s", n)
    report.timing("round_s", round_s)
    for kind in ("foc", "refund"):
        report.add(f"{kind}_points_per_s", statistics.median(t[f"{kind}_points"] / t[kind] for t in rounds), "1/s", n)
    report.add("certify_per_s", statistics.median(len(inputs.CERT_CHAINS) / t["certify"] for t in rounds), "1/s", n)
    report.timing("optc_s", [x for t in rounds for x in t["optc"]])
    report.add("raw.round_s.p50", statistics.median(map(round_seconds, raw)), "s", n)


def mc_summary(report: Report, rounds: list[dict], raw: list[dict]) -> None:
    verify = [t["verify"] for t in rounds]
    races = math.fsum(t["races"] for t in rounds) / math.fsum(t["simulate"] for t in rounds)
    report.add("latency_s.p50", statistics.median(verify), "s", len(verify))
    report.add("throughput_per_s", races, "1/s", len(rounds))
    report.add("mc_races_per_s", races, "1/s", sum(t["calls"] for t in rounds))
    report.timing("mc_verify_s", verify)
    report.add("raw.mc_verify_s.p50", statistics.median(t["verify"] for t in raw), "s", len(raw))


def fixed_work(workload: str, seed: int, tally: Tally, scratch: Path, tracer=None) -> tuple[float, int]:
    """The traced run's fixed rounds; returns busy seconds and refund points."""
    busy, refund_points = 0.0, 0
    for r in range(TRACE_ROUNDS[workload]):
        inp = inputs.ROUNDS[workload](seed, r)
        if workload == "cli-cold":
            walls: list[tuple[str, float, float]] = []
            run_cli_round(inp, tally, walls, scratch, math.inf, tracer)
            busy += math.fsum(w[1] for w in walls)
        elif workload == "grid-solve":
            t = run_grid_round(inp, tally, tracer)
            busy += t["foc"] + t["refund"] + t["certify"] + math.fsum(t["optc"])
            refund_points += t["refund_points"]
        else:
            t = run_mc_round(inp, tally, tracer)
            busy += t["simulate"] + t["verify"]
    return busy, refund_points


def trace(workload: str, seed: int, scratch: Path, tally: Tally) -> Report:
    """Traced run: per-layer metrics over a fixed amount of work.

    Both passes are checked; counts and refutations come from the traced one.
    """
    probes = [import_probe(scratch) for _ in range(IMPORT_PROBES)]
    untraced, _ = fixed_work(workload, seed, tally, scratch)
    refuted_untraced = tally.refuted
    tracer = Tracer()
    if workload != "cli-cold":  # cli_child.py installs it in each command's process
        tracer.install()
    try:
        traced, refund_points = fixed_work(workload, seed, tally, scratch, tracer)
    finally:
        tracer.remove()

    first = inputs.ROUNDS[workload](seed, 0)
    extra = {
        "scan_peak_bytes": largest_scan_bytes(first) if workload == "grid-solve" else 0,
        "peak_bytes_per_trial": simulate_bytes_per_trial(first) if workload == "mc-oracle" else 0.0,
        "refund_points": refund_points,
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-{seed}.json")

    report = Report(workload)
    report.add("cli.import_s", statistics.median(p[0] for p in probes), "s", len(probes))
    report.add("cli.import_scipy_s", statistics.median(p[1] for p in probes), "s", len(probes))
    for name, value, unit, samples in layer_metrics(tracer, extra, tally.refuted - refuted_untraced):
        report.add(name, value, unit, samples)
    report.add("trace_overhead_ratio", traced / untraced, "ratio", 1)
    return report


def layer_metrics(tracer, extra: dict, refuted: int) -> list[tuple]:
    """Per-layer counts and times from the spans of the traced pass."""
    spans, counts = tracer.spans, tracer.counts
    own = tracer.self_times()
    total, self_total, calls = defaultdict(float), defaultdict(float), Counter()
    phase_of: list[str] = []
    main_by_command = defaultdict(list)
    refund_cost_calls = 0
    for i, (name, start, end, parent) in enumerate(spans):
        phase = name if name.startswith("bench.") else (phase_of[parent] if parent >= 0 else "")
        phase_of.append(phase)
        total[name] += end - start
        self_total[name] += own[i]
        calls[name] += 1
        if name == "cli.main":
            main_by_command[phase.removeprefix("bench.cli.")].append(end - start)
        if name.startswith("cost.") and phase == "bench.refund":
            refund_cost_calls += 1
    scan_s = sum(end - start for (name, start, end, _), phase in zip(spans, phase_of)
                 if name == "montecarlo.verify_best_response" and phase != "bench.mc_verify")

    def ratio(a, b):
        return a / b if b else 0.0

    rows = [(f"cli.main_s.{cmd}", ratio(sum(main_by_command[cmd]), len(main_by_command[cmd])), "s",
             len(main_by_command[cmd])) for cmd in COMMANDS]
    cost_calls = calls["cost.cost"] + calls["cost.marginal_cost"]
    bisect_calls = calls["numerics.bisect_root"]
    words = counts["rng.words"]
    rows += [
        ("analysis.sweep_s", total["analysis.sweep"], "s", calls["analysis.sweep"]),
        ("analysis.optimal_c_s", total["analysis.optimal_c"], "s", calls["analysis.optimal_c"]),
        ("analysis.ex_ante_revenue_calls", calls["analysis.ex_ante_revenue"], "count", 1),
        ("equilibrium.solve_calls", calls["equilibrium.solve_equilibrium"], "count", 1),
        ("equilibrium.solve_self_s", sum(v for k, v in self_total.items() if k.startswith("equilibrium.")), "s",
         calls["equilibrium.solve_equilibrium"]),
        ("numerics.bisect_calls", bisect_calls, "count", 1),
        ("numerics.bisect_fevals_per_root", ratio(counts["numerics.bisect_fevals"], bisect_calls), "count",
         bisect_calls),
        ("numerics.golden_fevals", counts["numerics.golden_fevals"], "count", 1),
        ("cost.calls", cost_calls, "count", 1),
        ("cost.calls_per_refund_point", ratio(refund_cost_calls, extra["refund_points"]), "count",
         extra["refund_points"]),
        ("cost.s", total["cost.cost"] + total["cost.marginal_cost"], "s", cost_calls),
        ("montecarlo.payoff_evals", calls["montecarlo.analytic_expected_payoff"] + counts["montecarlo.scan_profiles"],
         "count", 1),
        ("montecarlo.scan_s", scan_s, "s", calls["montecarlo.verify_best_response"]),
        ("montecarlo.scan_peak_bytes", extra["scan_peak_bytes"], "B", 1),
        ("rng.words_drawn", words, "count", calls["rng.raw_words"]),
        ("rng.words_per_s", ratio(words, total["rng.raw_words"]), "1/s", calls["rng.raw_words"]),
        ("rng.reuse_ratio", ratio(words, tracer.distinct_words()), "ratio", 1),
        ("noise.transform_ns_per_draw", ratio(total["noise.transform"] * 1e9, counts["noise.draws"]), "ns",
         calls["noise.transform"]),
        ("noise.cdf_calls", calls["noise.cdf"], "count", 1),
        ("montecarlo.simulate_calls", calls["montecarlo.simulate"], "count", 1),
        ("montecarlo.simulate_s", total["montecarlo.simulate"], "s", calls["montecarlo.simulate"]),
        ("montecarlo.tally_self_s", self_total["montecarlo.simulate"], "s", calls["montecarlo.simulate"]),
        ("montecarlo.peak_bytes_per_trial", extra["peak_bytes_per_trial"], "B/trial", 1),
        ("montecarlo.refuted", refuted, "count", 1),
    ]
    return rows


# -- entry point --------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seqlab bench: workload {workload} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqlab benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "seqlab" / "__init__.py").is_file():
        print(f"seqlab bench: no seqlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # one CPU for the runner and its children: the reference probes and the
    # work they normalise then always share a core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import seqlab

    if Path(seqlab.__file__).resolve().parent != SRC / "seqlab":
        print(f"seqlab bench: imported seqlab from {seqlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print(f"# seqlab benchmark {json.dumps(env)}")
    try:
        if args.trace:
            report = trace(args.workload, args.seed, scratch, tally)
            wanted = None
        else:
            report = measure(args.workload, args.seed, args.seconds, scratch, tally)
            wanted = END_TO_END
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()
    report.print()
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in report.rows
               if wanted is None or name in wanted}
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
