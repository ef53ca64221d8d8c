import numpy as np
import pytest

from seqlab.rng import raw_words, to_uniform


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform draws ``[start, start + count)`` of the stream keyed by ``seed``, as sampling makes them."""
    return to_uniform(raw_words(seed, start, count))


def _lockstep_bisect(f, lo, hi):
    """Per point, the float ``bisect_root(f, lo, hi)`` returns, by the same halving on arrays in lockstep.

    ``f`` acts elementwise on float arrays, so a residual that uses ``**`` keeps the bits of
    numpy's array loop, which a scalar ``**`` can miss in the last place. Each point stops on
    its own: on an exact zero at the midpoint or once no float lies strictly inside its bracket.
    """
    lo, hi = (np.array(end, dtype=float) for end in np.broadcast_arrays(lo, hi))
    flo, fhi = np.asarray(f(lo), dtype=float), np.asarray(f(hi), dtype=float)
    root, active, positive = np.where(flo == 0.0, lo, hi), (flo != 0.0) & (fhi != 0.0), flo > 0.0
    assert np.isfinite(flo).all() and np.isfinite(fhi).all() and not (active & (positive == (fhi > 0.0))).any()
    while True:
        mid = 0.5 * lo + 0.5 * hi
        np.copyto(root, mid, where=active)
        active = active & (lo < mid) & (mid < hi)
        if not active.any():
            return root
        fmid = np.asarray(f(mid), dtype=float)
        active &= fmid != 0.0
        rise = active & ((fmid > 0.0) == positive)  # a NaN counts as negative
        np.copyto(lo, mid, where=rise)
        np.copyto(hi, mid, where=active ^ rise)


@pytest.fixture
def lockstep_bisect():
    """The lockstep halving reference for many brackets at once; see :func:`_lockstep_bisect`."""
    return _lockstep_bisect
