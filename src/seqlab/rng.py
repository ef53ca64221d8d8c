"""Counter-based uniform random numbers.

Draw ``i`` of a stream is a pure function of ``(seed, i)``: a Philox
generator is keyed by the seed and positioned by counter arithmetic, so any
sub-range of a stream can be produced in isolation and results never depend
on chunking, thread layout, or the order in which ranges are generated.
"""

from __future__ import annotations

from ._np import np

# Philox4x64 emits 4 words per counter tick; word w of the stream is output
# (w % 4) of counter block (w // 4).
_WORDS_PER_BLOCK = 4
_SHIFT = 11
_INV_2_53 = 2.0**-53
_BELOW_ONE = 1.0 - 2.0**-53

MAX_SEED = 2**64 - 1


def raw_words(seed: int, start: int, count: int) -> np.ndarray:
    """64-bit words ``[start, start + count)`` of the stream keyed by ``seed``."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    block, rem = divmod(start, _WORDS_PER_BLOCK)
    gen = np.random.Philox(counter=[block, 0, 0, 0], key=seed)
    return gen.random_raw(rem + count)[rem:]


def to_uniform(words: np.ndarray) -> np.ndarray:
    """The uniform on (0, 1) of each 64-bit word, written over the words.

    A word's top 53 bits ``x``, offset by half an ulp: ``(x + 1/2) * 2**-53``.
    Below 1/2 that sum is exact. Above 1/2 it ties and rounds half to even,
    so odd ``x`` share the draw of the even value above them; recorded
    counts rest on that rounding, so it stays. At the top it would round up
    to exactly 1.0, so the largest draw is clamped to ``1 - 2**-53``: every
    draw lies strictly inside (0, 1) and inverse-CDF transforms never hit an
    endpoint singularity. A draw is below 1/2 exactly when its word is below
    ``2**63``.

    C-contiguous words are consumed: the draws come back as a float64 view
    of their buffer, so converting allocates nothing. Other words are copied
    first and left as they are.
    """
    flat = words.reshape(-1)
    np.right_shift(flat, _SHIFT, out=flat)
    out = flat.view(np.float64)
    out[...] = flat  # exact below 2**53; in one dimension the cast needs no copy
    out += 0.5
    out *= _INV_2_53
    np.minimum(out, _BELOW_ONE, out=out)
    return out.reshape(words.shape)
