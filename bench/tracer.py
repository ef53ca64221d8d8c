"""Span tracer that wraps seqlab's public functions from outside the package.

A span is ``[name, start, end, parent]``; parents come from a call stack, so
nested calls (``sweep`` -> ``compare_expenditure`` -> ``solve_equilibrium``
-> ``bisect_root`` -> ``CostModel.cost``) form a tree. Spans stay in memory
and are written out once, by :meth:`Tracer.write`, when the run ends.

Module-level functions are patched on every loaded ``seqlab`` module that
holds a reference to them, because callers import them by name
(``montecarlo`` imports ``uniform_stream``, ``equilibrium`` imports
``bisect_root``, ``analysis`` imports ``golden_section_max`` and
``solve_equilibrium``); patching only the defining module would miss those
calls. Methods are patched on their class.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


def _size(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    """Collects spans and counters while installed; inert once removed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.intervals: defaultdict = defaultdict(list)  # rng seed -> [(start, stop)]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = _clock()

    @contextmanager
    def phase(self, name: str):
        """A benchmark-level span, e.g. one kind of sweep."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, prepare=None):
        """``fn`` inside a span; ``prepare(args, kwargs)`` may count or rewrap args."""

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, prepare=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        traced = self.wrap(name, original, prepare)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "seqlab" or mod_name.startswith("seqlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, prepare=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, prepare))

    def install(self) -> "Tracer":
        """Wrap the public entry points of every seqlab layer."""
        from seqlab import analysis, cli, cost, equilibrium, montecarlo, noise, numerics, rng

        counts = self.counts

        def count_fevals(key):
            def prepare(args, kwargs):
                f = args[0]

                def counted(x):
                    counts[key] += 1
                    return f(x)

                return (counted,) + tuple(args[1:]), kwargs

            return prepare

        def count_words(args, kwargs):
            seed, start, count = args[:3]
            counts["rng.words"] += count
            self.intervals[seed].append((start, start + count))
            return args, kwargs

        def count_draws(args, kwargs):
            counts["noise.draws"] += _size(args[1])
            return args, kwargs

        def count_scan(args, kwargs):
            grid, market = args[0], args[2]
            counts["montecarlo.scan_profiles"] += len(grid) ** market.n_chains
            return args, kwargs

        self.patch_function(cli, "main", "cli.main")
        for attr in ("sweep", "compare_expenditure", "optimal_c", "ex_ante_revenue"):
            self.patch_function(analysis, attr, f"analysis.{attr}")
        for attr in ("solve_equilibrium", "solve_foc_equilibrium",
                     "solve_refund_equilibrium_shared", "solve_refund_equilibrium_separate"):
            self.patch_function(equilibrium, attr, f"equilibrium.{attr}")
        self.patch_function(numerics, "bisect_root", "numerics.bisect_root",
                            count_fevals("numerics.bisect_fevals"))
        self.patch_function(numerics, "golden_section_max", "numerics.golden_section_max",
                            count_fevals("numerics.golden_fevals"))
        self.patch_method(cost.CostModel, "cost", "cost.cost")
        self.patch_method(cost.CostModel, "marginal_cost", "cost.marginal_cost")
        self.patch_method(noise.NoiseModel, "cdf", "noise.cdf")
        self.patch_method(noise.NoiseModel, "trader_noise", "noise.transform", count_draws)
        self.patch_method(noise.NoiseModel, "quantile", "noise.transform", count_draws)
        self.patch_function(rng, "raw_words", "rng.raw_words", count_words)
        self.patch_function(rng, "uniform_stream", "rng.uniform_stream")
        for attr in ("simulate", "verify_best_response", "analytic_expected_payoff"):
            self.patch_function(montecarlo, attr, f"montecarlo.{attr}")
        # the vectorized product-grid scan is private; count it while it exists
        self.patch_function(montecarlo, "_analytic_profile_scan", "montecarlo.profile_scan", count_scan)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def distinct_words(self) -> int:
        """Number of distinct stream word indices drawn, over all seeds."""
        total = 0
        for intervals in self.intervals.values():
            hi = -1
            for start, stop in sorted(intervals):
                if stop > hi:
                    total += stop - max(start, hi)
                    hi = stop
        return total

    def payload(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "intervals": {str(seed): spans for seed, spans in self.intervals.items()},
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle, separators=(",", ":"))

    def merge(self, payload: dict) -> None:
        """Add the spans and counts another process wrote with :meth:`write`."""
        offset = len(self.spans)
        for name, start, end, parent in payload["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        self.counts.update(payload["counts"])
        for seed, spans in payload["intervals"].items():
            self.intervals[int(seed)].extend(tuple(span) for span in spans)
