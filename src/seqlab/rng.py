"""Counter-based uniform random numbers.

Draw ``i`` of a stream is a pure function of ``(seed, i)``: a Philox
generator is keyed by the seed and positioned by counter arithmetic, so any
sub-range of a stream can be produced in isolation and results never depend
on chunking, thread layout, or the order in which ranges are generated.
"""

from __future__ import annotations

import numpy as np

# Philox4x64 emits 4 words per counter tick; word w of the stream is output
# (w % 4) of counter block (w // 4).
_WORDS_PER_BLOCK = 4
_SHIFT = np.uint64(11)
_INV_2_53 = 2.0**-53

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


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), one per word index."""
    return to_uniform(raw_words(seed, start, count))


def to_uniform(words: np.ndarray) -> np.ndarray:
    """The uniform on (0, 1) of each 64-bit word, as a new C-contiguous array.

    A word's top 53 bits, offset by half an ulp, which keeps every draw
    strictly inside (0, 1) so inverse-CDF transforms never hit an endpoint
    singularity. ``words`` may be any strided view; its words are shifted in
    place, so a caller that keeps other words of the same buffer (such as
    tie-break words, read for their top bit: the draw is below 1/2 exactly
    when the word is below ``2**63``) passes a view that excludes them.
    """
    np.right_shift(words, _SHIFT, out=words)
    out = np.add(words, 0.5, out=np.empty(words.shape))
    out *= _INV_2_53
    return out
