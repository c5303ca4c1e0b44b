"""Reference computations the workload checks compare the program against.

Each one is written from the definition, in plain numpy, and shares no code
with `gdafas`: AUC by counting pairs, FAR/FRR at every threshold, the RBF
MMD from explicit differences, and float32 rounding bounds.
"""

import numpy as np

# float32 keeps 24 significant bits, so rounding a float64 to it moves the
# value by at most half a unit in the last place: 2**-24 of its magnitude
F32_REL = 2.0 ** -24


def pair_auc(scores, labels) -> float:
    """Share of (live, spoof) pairs the scores order correctly; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins) / (pos.size * neg.size)


def far_frr(scores, labels):
    """(thresholds, FAR, FRR) for the rule `live iff score >= t`, over +inf
    and every distinct score."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    thresholds = np.concatenate([[np.inf], np.unique(scores)])
    accept = scores[None, :] >= thresholds[:, None]
    far = (accept & (labels == 0)).sum(axis=1) / (labels == 0).sum()
    frr = (~accept & (labels == 1)).sum(axis=1) / (labels == 1).sum()
    return thresholds, far, frr


def _sq_dists(a, b, chunk=64):
    out = np.empty((len(a), len(b)))
    for i in range(0, len(a), chunk):
        diff = a[i:i + chunk, None, :] - b[None, :, :]
        out[i:i + chunk] = (diff * diff).sum(axis=2)
    return out


def rbf_mmd(a, b) -> float:
    """Biased squared MMD with a Gaussian kernel whose width is the median
    distance between distinct pooled samples (1.0 if that median is 0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    pooled = np.concatenate([a, b])
    d2 = _sq_dists(pooled, pooled)
    upper = d2[np.triu(np.ones(d2.shape, dtype=bool), k=1)]
    width = float(np.sqrt(np.median(upper))) if upper.size else 0.0
    width = width if width > 0.0 else 1.0
    n = len(a)
    k = np.exp(-d2 / (2.0 * width * width))
    return float(k[:n, :n].mean() + k[n:, n:].mean() - 2.0 * k[:n, n:].mean())


def within_f32_rounding(before, after) -> bool:
    """True when `after` is `before` rounded through float32, or closer."""
    before = np.asarray(before, dtype=np.float64)
    after = np.asarray(after, dtype=np.float64)
    return before.shape == after.shape and bool(
        np.all(np.abs(after - before) <= F32_REL * np.abs(before)))

