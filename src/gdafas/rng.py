"""Deterministic pseudo-random numbers shared by every stochastic component.

A single counter-based splitmix-style 64-bit generator backs initializers,
data synthesis, batch shuffling and augmentation sampling, so that a run is
reproducible bit-for-bit from its seed alone, independent of call order in
unrelated code.
"""

import zlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_DOUBLE_SCALE = float(2.0**-53)


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 wraparound is the intended modular arithmetic
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


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
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return _mix(self.seed + idx * _GAMMA)

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        u = (self.next_uint64(n) >> _U64(11)).astype(np.float64) * _DOUBLE_SCALE
        return low + (high - low) * u

    def gaussian(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n gaussian draws via Box-Muller over uniform pairs."""
        m = (n + 1) // 2
        u1 = 1.0 - self.uniform(m)  # (0, 1], keeps log() finite
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * m, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return mean + std * z[:n]

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
