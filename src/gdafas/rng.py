"""Deterministic pseudo-random numbers shared by every stochastic component.

A single counter-based splitmix-style 64-bit generator backs initializers,
data synthesis, batch shuffling and augmentation sampling, so that a run is
reproducible bit-for-bit from its seed alone, independent of call order in
unrelated code.

Draw i of seed s is a pure function of (s, i), so ``draw_uint64`` and the
uniform and gaussian rows built on it draw the streams of many seeds, each
from its own counter, in one array operation; an ``Rng`` is one such row.
"""

import zlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_DOUBLE_SCALE = float(2.0**-53)


def _mix(z):
    """The splitmix64 finalizer, in place on an array (a numpy scalar is
    rebound); returns ``z``."""
    # uint64 wraparound is the intended modular arithmetic
    with np.errstate(over="ignore"):
        z ^= z >> _U64(30)
        z *= _MIX1
        z ^= z >> _U64(27)
        z *= _MIX2
        z ^= z >> _U64(31)
    return z


def draw_uint64(seeds, offsets, n: int) -> np.ndarray:
    """Raw outputs [B, n]: row b holds the draws of seed ``seeds[b]`` at
    counters ``offsets[b] + 1`` to ``offsets[b] + n``, the n draws that an
    ``Rng(seeds[b])`` which has made ``offsets[b]`` draws makes next."""
    z = np.add.outer(np.asarray(offsets, np.uint64),
                     np.arange(1, n + 1, dtype=np.uint64))
    with np.errstate(over="ignore"):
        z *= _GAMMA
        z += np.asarray(seeds, np.uint64)[:, None]
    return _mix(z)


def uniform_rows(seeds, offsets, n: int) -> np.ndarray:
    """Uniforms [B, n] on [0, 1), the top 53 bits of ``draw_uint64``."""
    z = draw_uint64(seeds, offsets, n)
    z >>= _U64(11)
    u = z.astype(np.float64)
    u *= _DOUBLE_SCALE
    return u


def gaussian_rows(seeds, offsets, n: int) -> np.ndarray:
    """Standard normals [B, n] by Box-Muller. Row b takes its m = ceil(n/2)
    pairs from the 2m uniforms at ``offsets[b]``: the first m give the
    radii, the next m the angles, and pair i fills columns 2i and 2i+1."""
    m = (n + 1) // 2
    offsets = np.asarray(offsets, np.uint64)
    r = uniform_rows(seeds, offsets, m)
    np.subtract(1.0, r, out=r)  # (0, 1], keeps log() finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = uniform_rows(seeds, offsets + _U64(m), m)
    theta *= 2.0 * np.pi
    z = np.empty((len(r), 2 * m))
    part = np.cos(theta)
    part *= r
    z[:, 0::2] = part
    np.sin(theta, out=part)
    part *= r
    z[:, 1::2] = part
    return z[:, :n]


def derive_seed(seed: int, *keys) -> int:
    """Fold integer or string keys into a seed for an independent child."""
    s = _U64(seed & 0xFFFFFFFFFFFFFFFF)
    for k in keys:
        if isinstance(k, str):
            k = int.from_bytes(
                zlib.crc32(k.encode()).to_bytes(4, "little") * 2, "little"
            )
        with np.errstate(over="ignore"):
            s = _mix(s + _GAMMA * _U64((int(k) + 1) & 0xFFFFFFFFFFFFFFFF))
    return int(s)


class Rng:
    """Splitmix64 stream with Box-Muller gaussian sampling.

    The i-th raw output depends only on (seed, i), so vectorized draws and
    one-at-a-time draws produce identical streams.
    """

    def __init__(self, seed: int):
        self.seed = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def next_uint64(self, n: int) -> np.ndarray:
        out = draw_uint64([self.seed], [self.counter], n)[0]
        self.counter += n
        return out

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        u = uniform_rows([self.seed], [self.counter], n)[0]
        self.counter += n
        return low + (high - low) * u

    def gaussian(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n gaussian draws via Box-Muller over uniform pairs."""
        z = gaussian_rows([self.seed], [self.counter], n)[0]
        self.counter += 2 * ((n + 1) // 2)
        return mean + std * z

    def shuffle(self, items: np.ndarray) -> np.ndarray:
        """Fisher-Yates shuffle; returns a new array.

        Step i (from n-1 down to 1) swaps i with draw % (i + 1); modulo bias
        is irrelevant at these sizes. All n-1 draws are made in one call, so
        the stream is the one a single draw per step would consume.
        """
        out = np.array(items)
        n = len(out)
        if n < 2:
            return out
        draws = self.next_uint64(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
            perm[i], perm[j] = perm[j], perm[i]
        return out[perm]

    def derangement(self, n: int) -> np.ndarray:
        """Permutation of range(n) with no fixed point (for n >= 2).

        Rejection-sampled, so all derangements are reachable; falls back to a
        cyclic shift if rejection runs long (vanishingly unlikely).
        """
        if n < 2:
            return np.zeros(n, dtype=np.int64)
        for _ in range(200):
            perm = self.shuffle(np.arange(n, dtype=np.int64))
            if not np.any(perm == np.arange(n)):
                return perm
        return np.roll(np.arange(n, dtype=np.int64), 1)
