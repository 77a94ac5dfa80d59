import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsync.rng import mt_first_words

# Keys of one 32-bit word and of two, with those at the edges of each.
keys = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**16),
    st.integers(2**32 - 2**16, 2**32 + 2**16),
    st.integers(2**64 - 2**16, 2**64 - 1),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(ks=[0, 1, 2**32 - 1, 2**32, 2**64 - 1], n=20)
@given(ks=st.lists(keys, max_size=12), n=st.integers(1, 20))
def test_first_words_are_those_of_random_random(ks, n):
    words = mt_first_words(np.array(ks, dtype=np.uint64), n)
    assert words.shape == (n, len(ks)) and words.dtype == np.uint32
    for column, key in zip(words.T.tolist(), ks):
        rng = random.Random(key)
        assert column == [rng.getrandbits(32) for _ in range(n)]


def test_first_words_reach_the_end_of_the_first_twist():
    rng = random.Random(2**40 + 7)
    words = mt_first_words(np.array([2**40 + 7], dtype=np.uint64), 227)
    assert words[:, 0].tolist() == [rng.getrandbits(32) for _ in range(227)]
    with pytest.raises(ValueError, match="n must be in"):
        mt_first_words(np.array([1], dtype=np.uint64), 228)
    with pytest.raises(ValueError, match="n must be in"):
        mt_first_words(np.array([1], dtype=np.uint64), 0)
