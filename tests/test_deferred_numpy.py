"""NumPy and seqlab's own modules as seqlab imports them: deferred to first use,
NumPy shared with a NumPy already loaded.

Each test runs its code in a fresh interpreter, since this process has
imported NumPy and every seqlab module already.
"""

from __future__ import annotations

import os
import subprocess
import sys

MODULES = ("analysis", "cost", "equilibrium", "montecarlo", "noise", "numerics", "rng")


def _child(code: str) -> str:
    # the child must import the seqlab this process sees, wherever that is
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=env, timeout=120).stdout.strip()


def test_threads_that_first_use_numpy_together_all_solve():
    # the first attribute reads of eight threads race the import of NumPy itself
    code = """
import sys, threading
import seqlab
from seqlab import CostModel, MarketConfig, NoiseModel, solve_equilibrium

assert "numpy" not in sys.modules
barrier, results, errors = threading.Barrier(8), [], []

def solve(k):
    try:
        barrier.wait(timeout=60)
        result = solve_equilibrium(MarketConfig(v=1.0 + k, n_chains=2), CostModel.power(2.0), NoiseModel("normal", 1.0))
        results.append(result.regime.value)
    except Exception as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=solve, args=(k,)) for k in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
print(sum(thread.is_alive() for thread in threads), sorted(set(results)), len(results), errors)
"""
    assert _child(code) == "0 ['interior'] 8 []"


def test_numpy_loaded_first_is_the_np_of_every_module():
    code = f"""
import sys, importlib
import numpy
import seqlab
print(all(importlib.import_module("seqlab." + m).np is numpy is sys.modules["numpy"] for m in {MODULES!r}))
"""
    assert _child(code) == "True"


def test_import_never_adds_or_replaces_numpy_in_sys_modules():
    # NumPy loaded first stays in sys.modules as it was: see the test above
    code = """
import sys, types
import seqlab
from seqlab import rng
before = "numpy" in sys.modules
draws = rng.to_uniform(rng.raw_words(1, 0, 4))
numpy = sys.modules["numpy"]
print(before, type(numpy) is types.ModuleType, rng.np is not numpy, type(draws) is numpy.ndarray)
"""
    assert _child(code) == "False True True True"


def test_import_seqlab_loads_no_submodule():
    code = """
import sys
import seqlab
print(sorted(name for name in sys.modules if name.startswith("seqlab.")))
"""
    assert _child(code) == "[]"


def test_every_public_name_is_its_defining_modules_object():
    # dir lists the names before any is loaded; each resolves on first access and is then kept
    code = """
import importlib
import seqlab
listed = set(seqlab.__all__) <= set(dir(seqlab))
exports = {name: module for module, names in seqlab._EXPORTS.items() for name in names}
wrong = []
for name in seqlab.__all__:
    module = importlib.import_module("seqlab." + exports[name])
    value = getattr(seqlab, name)
    if value is not getattr(module, name) or getattr(value, "__module__", module.__name__) != module.__name__:
        wrong.append(name)
kept = all(name in vars(seqlab) for name in seqlab.__all__)
print(listed, sorted(exports) == seqlab.__all__, wrong, kept, hasattr(seqlab, "no_such_name"))
"""
    assert _child(code) == "True True [] True False"
