"""Counter-based generator: the shuffle against a one-draw-per-step loop,
and the many-seed draws against one stream at a time."""

import numpy as np

from gdafas.rng import (Rng, derive_seed, draw_uint64, gaussian_rows,
                        uniform_rows)
from oracles import SplitMix64


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


def test_rows_are_the_streams_of_their_seeds():
    seeds = [derive_seed(3, k) for k in range(4)] + [0, 2**64 - 1]
    offsets = [0, 1, 5, 8, 1531, 2**40]
    for n in (1, 2, 7, 3072):
        rows = {"raw": draw_uint64(seeds, offsets, n),
                "uniform": uniform_rows(seeds, offsets, n),
                "gaussian": gaussian_rows(seeds, offsets, n)}
        for b, (seed, offset) in enumerate(zip(seeds, offsets)):
            for kind, got in rows.items():
                want = []
                for stream in (SplitMix64(seed), Rng(seed)):
                    stream.counter = offset
                    draw = {"raw": stream.next_uint64,
                            "uniform": stream.uniform,
                            "gaussian": stream.gaussian}[kind]
                    want.append(draw(n))
                assert got.shape == (len(seeds), n)
                assert got[b].tobytes() == want[0].tobytes() \
                    == want[1].tobytes(), (kind, n, b)


def test_derived_seeds_are_draws_of_the_parent_stream():
    # generate_domain_dataset draws every record's seed at once
    for seed in (0, 9, -5, 2**64 - 1):
        draws = Rng(seed).next_uint64(40)
        assert [derive_seed(seed, k) for k in range(40)] == draws.tolist()
