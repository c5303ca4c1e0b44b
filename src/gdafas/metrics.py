"""Score metrics (AUC, ROC, EER, HTER) and maximum mean discrepancy.

Scores are live-class probabilities; label 1 is live (positive), label 0 is
spoof. Acceptance means classifying as live, so FAR counts accepted spoofs
and FRR counts rejected lives.
"""

import numpy as np


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: fraction of live/spoof pairs ranked correctly.

    Computed from average ranks so ties count one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one live and one spoof score")
    order = np.argsort(scores, kind="stable")
    # each run of equal sorted scores (NaNs never equal, so each is a run
    # of its own) shares the mean of its 1-based positions i+1..j+1
    sorted_scores = scores[order]
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1]]))
    ends = np.append(starts[1:], len(scores)) - 1
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends + 1), ends - starts + 1)
    rank_sum = ranks[pos].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _rates(scores, labels, threshold: float):
    """(FAR, FRR) for the rule `live iff score >= threshold`."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    accepted = scores >= threshold
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    far = float(np.sum(accepted & (labels == 0))) / n_neg
    frr = float(np.sum(~accepted & (labels == 1))) / n_pos
    return far, frr


def _sweep(scores, labels):
    """Thresholds +inf then every distinct score descending, with the FAR and
    FRR arrays of `live iff score >= threshold` at each.

    One sort (``np.unique``) buckets the scores; each class's acceptance
    count at a threshold is the reversed cumulative sum of its bucket counts.
    A NaN score is never accepted, so its bucket counts zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs at least one live and one spoof score")
    distinct, bucket = np.unique(scores, return_inverse=True)
    nan = np.isnan(distinct)

    def accepted(cls):
        counts = np.bincount(bucket[labels == cls], minlength=len(distinct))
        counts[nan] = 0
        at_inf = counts[distinct == np.inf].sum()
        return np.concatenate([[at_inf], np.cumsum(counts[::-1])])

    thresholds = np.concatenate([[np.inf], distinct[::-1]])
    far = accepted(0) / n_neg
    frr = (n_pos - accepted(1)) / n_pos
    return thresholds, far, frr


def roc_points(scores, labels):
    """(FAR, TPR) pairs swept over all score thresholds, FAR ascending."""
    _, far, frr = _sweep(scores, labels)
    return list(zip(far.tolist(), (1.0 - frr).tolist()))


def eer_threshold(scores, labels):
    """Threshold where FAR and FRR cross, with its rates.

    Returns (threshold, far, frr) at the sweep point minimizing |FAR - FRR|;
    the first such point in descending-threshold order wins ties, where a
    later gap must undercut the best so far by more than 1e-15 to replace it.
    """
    thresholds, far, frr = _sweep(scores, labels)
    gaps = np.abs(far - frr).tolist()
    best = 0
    for i, gap in enumerate(gaps):
        if gap < gaps[best] - 1e-15:
            best = i
    return (thresholds[best], far[best].item(), frr[best].item())


def hter(scores, labels, threshold: float) -> float:
    """Half total error rate at a fixed threshold: (FAR + FRR) / 2."""
    far, frr = _rates(scores, labels, threshold)
    return 0.5 * (far + frr)


# ---------------------------------------------------------------------------
# maximum mean discrepancy


# Bytes of one row block of temporaries while a squared-distance matrix is
# finished in place, so the matrix is never held twice over.
_ROW_BLOCK_BYTES = 4 * 1024 * 1024


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(|a_i|² + |b_j|² - 2 a_i·b_j, 0) for every row pair.

    One GEMM writes the whole matrix (a row-block GEMM would round some
    entries differently, and ``a @ a.T`` would take numpy's symmetric
    path); the rest is applied in place, one row block at a time.
    """
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    out = 2.0 * a @ b.T
    step = max(1, _ROW_BLOCK_BYTES // (8 * max(1, len(b))))
    for i in range(0, len(a), step):
        block = out[i:i + step]
        np.subtract(aa[i:i + step] + bb, block, out=block)
        np.maximum(block, 0.0, out=block)
    return out


def median_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """Median pairwise distance over the pooled samples; 1.0 if degenerate.

    The distances above the diagonal are packed, one row block at a time,
    to the front of the pooled matrix's own buffer, so no second
    matrix-sized array is made. A block's packed values end before the next
    block's rows begin, so no value is overwritten before it is read.
    """
    pooled = np.concatenate([a, b], axis=0)
    n = len(pooled)
    d2 = _pairwise_sq_dists(pooled, pooled)
    flat = d2.reshape(-1)
    cols = np.arange(n)
    step = max(1, _ROW_BLOCK_BYTES // (8 * max(1, n)))
    at = 0
    for i in range(0, n, step):
        rows = d2[i:i + step]
        kept = rows[cols > np.arange(i, i + len(rows))[:, None]]
        flat[at:at + kept.size] = kept
        at += kept.size
    med = 0.0
    if at:
        med = float(np.sqrt(np.median(flat[:at], overwrite_input=True)))
    return med if med > 0.0 else 1.0


def mmd(features_a, features_b) -> float:
    """Squared maximum mean discrepancy between two feature samples under an
    RBF kernel whose width is the pooled median distance.

    The biased V-statistic (mean-embedding distance), which is exactly zero
    for identical samples and never negative.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("feature sets must be [N, D] with matching D")
    width = median_bandwidth(a, b)
    denom = 2.0 * width * width
    kaa = np.exp(-_pairwise_sq_dists(a, a) / denom)
    kbb = np.exp(-_pairwise_sq_dists(b, b) / denom)
    kab = np.exp(-_pairwise_sq_dists(a, b) / denom)
    return float(kaa.mean() + kbb.mean() - 2.0 * kab.mean())
