import numpy as np

from seqlab.rng import raw_words, to_uniform


def _uniform(*words):
    return to_uniform(np.array(words, dtype=np.uint64)).tolist()


def test_top_words_map_strictly_below_one():
    # (2**53 - 1) + 1/2 rounds half to even up to 2**53, which was exactly 1.0
    assert _uniform(2**64 - 1, 2**64 - 2**11) == [1.0 - 2.0**-53] * 2
    assert _uniform(2**64 - 2**11 - 1) == [0.9999999999999998]


def test_half_ulp_offset_ties_to_even_above_one_half():
    # below 1/2 every top-53-bit value keeps its own draw; above, an odd one
    # shares the draw of the even value above it
    assert _uniform(0, 2**11, 2**63 - 2**11) == [2.0**-54, 3 * 2.0**-54, 0.5 - 2.0**-54]
    assert _uniform(2**63 + 2**11, 2**63 + 2**12) == [0.5 + 2.0**-52] * 2
    assert _uniform(2**63) == [0.5]


def test_a_draw_is_below_one_half_exactly_when_its_word_is_below_2_63():
    words = np.array([0, 2**63 - 2**11 - 1, 2**63 - 2**11, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
    assert np.array_equal(to_uniform(words.copy()) < 0.5, words < np.uint64(2**63))


def test_stream_draws_lie_strictly_inside_the_unit_interval():
    u = to_uniform(raw_words(9, 0, 10_000))
    assert np.all((u > 0.0) & (u < 1.0))


def test_contiguous_words_are_converted_in_place_and_strided_ones_copied():
    words = raw_words(4, 0, 300).reshape(100, 3)
    expected = to_uniform(words.copy())
    kept = words.copy()
    strided = to_uniform(words[:, :2])
    assert np.array_equal(strided, expected[:, :2]) and np.array_equal(words, kept)
    contiguous = to_uniform(words)
    assert np.array_equal(contiguous, expected) and np.shares_memory(contiguous, words)
