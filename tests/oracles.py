"""Slow, literal reference implementations that the tests check against."""

import numpy as np


def naive_dft2d(x: np.ndarray) -> np.ndarray:
    """Literal double-sum complex DFT of one [H, W] array."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    m = np.arange(h)[:, None]
    n = np.arange(w)[None, :]
    for k in range(h):
        for el in range(w):
            theta = 2.0 * np.pi * (k * m / h + el * n / w)
            out.real[k, el] = np.sum(x * np.cos(theta))
            out.imag[k, el] = -np.sum(x * np.sin(theta))
    return out


def roc_auc_pairs(scores, labels) -> float:
    """AUC by enumerating every live/spoof pair, O(n^2); ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos_scores = scores[labels == 1]
    neg_scores = scores[labels == 0]
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        raise ValueError("AUC needs at least one live and one spoof score")
    total = 0.0
    for p in pos_scores:
        for n in neg_scores:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos_scores) * len(neg_scores))
