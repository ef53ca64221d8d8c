"""Host-speed reference, so that timings from a drifting host can be compared.

The benchmark's host is a share of a machine whose speed drifts by up to
about 1.6x over minutes. CPU time drifts with wall time, so the drift is not
scheduling delay but the machine itself getting slower or faster, and a
slow minute moves every timing taken in it. Longer runs do not average it
away.

A fixed reference is timed right before and right after each timed
operation, and the operation's seconds are divided by the reference's mean
slowdown against its nominal time. Reported times are thus seconds at the
reference's nominal speed. The reference mixes the kinds of work the
workloads do: interpreter arithmetic, scalar libm calls from Python,
unmarshalling and executing a module's code (what an import does), numpy
passes over arrays, and a numpy gather scattered over a buffer larger than
the L2 cache (the host's drift is largest in memory latency). It involves
no seqlab code, so a change to seqlab moves the normalised times exactly as
it moves the raw ones. The runner prints raw times and the slowdown beside
the normalised ones.
"""

from __future__ import annotations

import marshal
import math
import statistics
import time

import numpy as np

clock = time.perf_counter

# Seconds per pass of each component on an unloaded 2-vCPU x86_64 host. They
# only fix the unit of the normalised times and must not change once results
# have been recorded against them.
NOMINAL = (0.00075, 0.00036, 0.00055, 0.0015, 0.00058)
WARM, PASSES = 2, 3


class Speed:
    """Reference probes and the slowdown they measure."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.random(20_000)
        self._big = rng.random(300_000)
        self._buffer = rng.random(1 << 20)  # 8 MiB
        self._gathered = rng.integers(0, self._buffer.size, 100_000)
        source = "\n".join(f"def f{i}(a, b=1, *c, **d):\n    return [a + b, {{'k': a}}, (a, b)]\n"
                            f"class C{i}:\n    x = {i}\n    def m(self, y):\n        return self.x + y\n"
                            for i in range(60))
        self._module = marshal.dumps(compile(source, "<reference>", "exec"))
        self._parts = (self._arith, self._libm, self._import, self._numpy, self._gather)
        self.samples: list[float] = []
        self.last = self.slowdown()

    def _arith(self) -> None:
        s = 0
        for i in range(8_000):
            s += i * i % 7
        np.sort(self._small)

    @staticmethod
    def _libm() -> None:
        s = 0.0
        for i in range(1_500):
            x = 0.001 * i
            s += math.exp(-x * x) * math.erf(x) + math.log1p(x) / (1.0 + x)

    def _import(self) -> None:
        exec(marshal.loads(self._module), {"__name__": "reference"})

    def _numpy(self) -> None:
        (np.exp(self._big) * self._big).sum()
        np.sort(self._big[:100_000])

    def _gather(self) -> None:
        self._buffer[self._gathered].sum()

    def slowdown(self) -> float:
        """Reference time now over its nominal time; the median of a few
        passes per component, averaged over the components.

        Each component first runs unmeasured, so that its data is back in
        cache whatever the operation before it evicted: the probe measures
        the host, not the memory footprint of the program under test.
        """
        ratios = []
        for part, nominal in zip(self._parts, NOMINAL):
            for _ in range(WARM):
                part()
            passes = []
            for _ in range(PASSES):
                start = clock()
                part()
                passes.append(clock() - start)
            ratios.append(statistics.median(passes) / nominal)
        return math.fsum(ratios) / len(ratios)

    def mark(self) -> None:
        """Probe now, as the 'before' of the next operation."""
        self.last = self.slowdown()

    def factor(self) -> float:
        """Mean slowdown over the operation that has just ended: the probe
        taken before it (the previous call's) and one taken now."""
        after = self.slowdown()
        factor = (self.last + after) / 2.0
        self.last = after
        self.samples.append(factor)
        return factor

    def normalize(self, seconds: float) -> float:
        """``seconds`` just measured, at the reference's nominal speed."""
        return seconds / self.factor()
