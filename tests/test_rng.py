"""Counter-based generator: the shuffle against a one-draw-per-step loop."""

import numpy as np

from gdafas.rng import Rng, derive_seed


def _loop_shuffle(rng, items):
    """Fisher-Yates with one draw per step, the reference stream."""
    out = np.array(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.next_uint64(1)[0] % np.uint64(i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def test_shuffle_matches_loop_reference():
    for seed in range(5):
        for n in (0, 1, 2, 5, 512, 542):
            fast = Rng(derive_seed(seed, n))
            slow = Rng(derive_seed(seed, n))
            fast.uniform(3)
            slow.uniform(3)             # start mid-stream
            got = fast.shuffle(np.arange(n))
            want = _loop_shuffle(slow, np.arange(n))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert fast.counter == slow.counter
            assert np.array_equal(fast.uniform(4), slow.uniform(4))


def test_shuffle_returns_permutation_of_new_array():
    items = np.arange(10, 30)
    out = Rng(3).shuffle(items)
    assert out is not items
    assert np.array_equal(items, np.arange(10, 30))
    assert np.array_equal(np.sort(out), items)
    assert np.array_equal(Rng(3).shuffle(list(range(10, 30))), out)
