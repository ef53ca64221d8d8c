"""NumPy, imported on the first use of one of its attributes.

Importing NumPy is a large share of a cold command, and ``optimal-c`` and
most runs that stop at a bad flag or spec use no array. So the modules of
this package take ``np`` from here, and NumPy loads at the first attribute
read; when NumPy is already imported, ``np`` is NumPy itself. The lock makes
the import and the copy one step, so threads that read their first attribute
together all find NumPy complete; ``importlib.util.LazyLoader`` has no such
lock before Python 3.12, and those threads read a half-loaded module.
"""

import sys
import threading
import types


class _DeferredNumPy(types.ModuleType):
    def __getattr__(self, name):
        with _lock:
            import numpy

            self.__dict__.update(vars(numpy))
        return getattr(numpy, name)


_lock = threading.Lock()
np = sys.modules.get("numpy") or _DeferredNumPy("numpy")
