import numpy as np
import pytest

import gdafas.metrics as M
from oracles import (_rates_at, eer_threshold_sweep, hter_direct,
                     roc_auc_pairs, roc_auc_ranks, roc_points_sweep)


def test_auc_pinned_cases():
    assert M.roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0
    assert M.roc_auc([0.1, 0.3, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert M.roc_auc([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0]) == 1.0
    assert M.roc_auc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5
    # one crossed pair out of four: 0.75
    assert M.roc_auc([0.9, 0.4, 0.5, 0.1], [1, 1, 0, 0]) == 0.75


def test_auc_tie_counts_half():
    assert M.roc_auc([0.7, 0.7], [1, 0]) == 0.5
    assert M.roc_auc([0.7, 0.7, 0.1], [1, 0, 0]) == 0.75


def test_auc_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0], labels[1] = 0, 1
        # quantized scores so ties actually occur
        scores = np.round(rng.uniform(size=n), 1)
        fast = M.roc_auc(scores, labels)
        slow = roc_auc_pairs(scores, labels)
        assert abs(fast - slow) < 1e-12


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        M.roc_auc([0.1, 0.2], [1, 1])


def test_roc_points_monotone_and_anchored():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(4, 50))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0], labels[1] = 0, 1
        scores = np.round(rng.uniform(size=n), 2)
        points = M.roc_points(scores, labels)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        fars = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(fars, fars[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(tprs, tprs[1:]))


def _sweep_cases():
    """Score sets with ties, infinities, NaNs, unbalanced classes and an
    unlabeled record, plus class sizes whose rates tie up to rounding."""
    rng = np.random.default_rng(19)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.uniform(size=n), int(rng.integers(1, 4)))
        if trial % 4 == 1:
            scores[rng.integers(0, n, size=2)] = [np.inf, -np.inf]
        if trial % 4 == 2:
            scores[rng.integers(0, n)] = np.nan
        if trial % 4 == 3:
            labels[-1] = -1
        yield scores, labels
    # 3 lives and 6 spoofs: FAR 1/6 against FRR 1/3 - 1/6 and the like
    yield np.array([0.9, 0.5, 0.2, 0.8, 0.6, 0.4, 0.3, 0.1, 0.05]), \
        np.array([1, 1, 1, 0, 0, 0, 0, 0, 0])


def test_roc_sweep_matches_threshold_loop_exactly():
    for scores, labels in _sweep_cases():
        assert M.roc_points(scores, labels) == roc_points_sweep(scores, labels)
        got = M.eer_threshold(scores, labels)
        want = eer_threshold_sweep(scores, labels)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1:] == want[1:]
        assert all(type(v) is float for v in got[1:])
        # AUC and HTER read the same sweep, so they follow the same rule
        assert M.roc_auc(scores, labels) == roc_auc_pairs(scores, labels)
        for t in (got[0], 0.5, np.inf, -np.inf, np.nan, 2.0):
            assert M.hter(scores, labels, t) == hter_direct(scores, labels, t)


def _bits(value):
    return np.float64(value).tobytes()


def test_sweep_metrics_equal_the_old_forms_bitwise():
    """On finite labeled sets, as evaluation scores them, every value keeps
    the bits of the rank AUC and the directly counted HTER."""
    rng = np.random.default_rng(28)
    for trial in range(1200):
        n = int(rng.integers(2, 160))
        labels = rng.integers(0, 2, size=n)
        labels[rng.integers(0, n)], labels[rng.integers(0, n)] = 0, 1
        if labels.sum() in (0, n):
            labels[0], labels[-1] = 0, 1
        logits = rng.normal(scale=float(rng.choice([1.0, 20.0, 80.0])),
                            size=n)
        scores = 1.0 / (1.0 + np.exp(-logits))   # ties where it saturates
        if trial % 4 == 0:
            scores = scores.astype(np.float32)
        if trial % 4 == 1:
            scores = np.round(scores, int(rng.integers(1, 4)))
        if trial % 4 == 2:
            scores[rng.integers(0, n, size=3)] = rng.choice([np.inf, -np.inf],
                                                             size=3)
        assert _bits(M.roc_auc(scores, labels)) == \
            _bits(roc_auc_ranks(scores, labels))
        th, far, frr = M.eer_threshold(scores, labels)
        assert (_bits(th), far, frr) == \
            (_bits(eer_threshold_sweep(scores, labels)[0]),
             *eer_threshold_sweep(scores, labels)[1:])
        for t in (th, 0.5):
            got = M.hter(scores, labels, t)
            assert type(got) is float
            assert _bits(got) == _bits(hter_direct(scores, labels, t))
        if trial % 8 == 0:   # the O(n^2) loop
            assert M.roc_points(scores, labels) == \
                roc_points_sweep(scores, labels)


def test_nan_score_is_never_accepted_by_any_metric():
    # a NaN live score is rejected at every threshold: it ranks below every
    # number, so AUC and HTER agree that it is an error
    scores, labels = [np.nan, 0.2], [1, 0]
    assert M.roc_auc(scores, labels) == 0.0
    assert M.roc_points(scores, labels) == [(0.0, 0.0), (0.0, 0.0),
                                            (1.0, 0.0)]
    assert M.eer_threshold(scores, labels)[1:] == (1.0, 1.0)
    assert M.hter(scores, labels, 0.5) == 0.5
    assert M.hter(scores, labels, 0.1) == 1.0
    # a NaN spoof score is never accepted either, so it is never an error
    assert M.roc_auc([0.2, np.nan], [1, 0]) == 1.0
    assert M.hter([0.2, np.nan], [1, 0], 0.1) == 0.0
    # below -inf, and two NaNs tie for one half
    assert M.roc_auc([-np.inf, np.nan], [1, 0]) == 1.0
    assert M.roc_auc([np.nan, np.nan], [1, 0]) == 0.5
    rng = np.random.default_rng(29)
    for trial in range(100):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.uniform(size=n), 1)
        scores[rng.integers(0, n, size=int(rng.integers(1, 4)))] = np.nan
        # with no -inf present, a NaN ranks as -inf does
        low = np.where(np.isnan(scores), -np.inf, scores)
        assert M.roc_auc(scores, labels) == M.roc_auc(low, labels)
        for t in (0.0, 0.3, 0.5, 1.0, np.inf):
            assert M.hter(scores, labels, t) == M.hter(low, labels, t)


def _runs(points):
    """Points with repeats of the one before dropped."""
    return [p for i, p in enumerate(points) if i == 0 or p != points[i - 1]]


def test_unlabeled_record_counts_for_neither_class():
    assert M.roc_auc([0.3, 0.1, 0.5], [1, 0, -1]) == 1.0
    assert M.hter([0.3, 0.1, 0.5], [1, 0, -1], 0.4) == 0.5
    for fn in (M.roc_auc, M.roc_points, M.eer_threshold):
        with pytest.raises(ValueError, match="one live and one spoof"):
            fn([0.1, 0.2], [1, -1])
    with pytest.raises(ValueError, match="HTER needs"):
        M.hter([0.1, 0.2], [-1, 0], 0.5)
    rng = np.random.default_rng(30)
    for trial in range(100):
        n = int(rng.integers(3, 40))
        labels = rng.integers(-1, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = np.round(rng.uniform(size=n), 1)
        kept = labels != -1
        ks, kl = scores[kept], labels[kept]
        assert M.roc_auc(scores, labels) == M.roc_auc(ks, kl)
        assert _runs(M.roc_points(scores, labels)) == \
            _runs(M.roc_points(ks, kl))
        assert M.eer_threshold(scores, labels)[1:] == \
            M.eer_threshold(ks, kl)[1:]
        for t in (0.0, 0.25, 0.5, 1.0):
            assert M.hter(scores, labels, t) == M.hter(ks, kl, t)


def test_roc_sweep_requires_both_classes():
    for fn in (M.roc_points, M.eer_threshold):
        with pytest.raises(ValueError):
            fn([0.1, 0.2], [1, 1])


def test_hter_pinned_example():
    # threshold 0.5: 2 of 10 spoofs accepted (FAR 0.2), 1 of 10 lives
    # rejected (FRR 0.1) -> HTER 0.15
    scores = np.concatenate([
        [0.6, 0.7] + [0.1] * 8,      # spoofs
        [0.4] + [0.9] * 9,           # lives
    ])
    labels = np.array([0] * 10 + [1] * 10)
    assert abs(M.hter(scores, labels, 0.5) - 0.15) < 1e-12


def test_eer_threshold_balances_rates():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = 60
        labels = np.array([0] * 30 + [1] * 30)
        scores = np.concatenate([
            rng.normal(0.3, 0.15, size=30),
            rng.normal(0.7, 0.15, size=30),
        ])
        th, far, frr = M.eer_threshold(scores, labels)
        # no other sweep point separates the rates less
        best_gap = min(
            abs(_rates_at(scores, labels, t)[0]
                - _rates_at(scores, labels, t)[1])
            for t in np.concatenate([[np.inf], np.unique(scores)])
        )
        assert abs(abs(far - frr) - best_gap) < 1e-12
        assert abs(M.hter(scores, labels, th) - 0.5 * (far + frr)) < 1e-12


def test_eer_is_zero_for_separable_scores():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [1, 1, 0, 0]
    th, far, frr = M.eer_threshold(scores, labels)
    assert far == 0.0 and frr == 0.0
    assert M.hter(scores, labels, th) == 0.0


def test_mmd_identical_sets_is_zero():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 8))
    assert abs(M.mmd(x, x.copy())) < 1e-9


def test_mmd_rbf_hand_expansion():
    # two points per set in 1-D; expand the kernel sums by hand
    a = np.array([[0.0], [1.0]])
    b = np.array([[2.0], [3.0]])
    pooled_d2 = []
    pts = np.concatenate([a, b]).ravel()
    for i in range(4):
        for j in range(i + 1, 4):
            pooled_d2.append((pts[i] - pts[j]) ** 2)
    width = np.sqrt(np.median(pooled_d2))
    k = lambda u, v: np.exp(-((u - v) ** 2) / (2 * width * width))
    term_a = (k(0, 0) + k(0, 1) + k(1, 0) + k(1, 1)) / 4
    term_b = (k(2, 2) + k(2, 3) + k(3, 2) + k(3, 3)) / 4
    cross = (k(0, 2) + k(0, 3) + k(1, 2) + k(1, 3)) / 4
    expected = term_a + term_b - 2 * cross
    assert abs(M.mmd(a, b) - expected) < 1e-12


def test_mmd_is_positive_and_validates_shapes():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=(12, 3)) + 1.0
    assert M.mmd(x, y) > 0.0
    with pytest.raises(ValueError):
        M.mmd(x, y.T)


def test_mmd_separates_shifted_distributions():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(64, 4))
    near = rng.normal(size=(64, 4)) + 0.1
    far = rng.normal(size=(64, 4)) + 2.0
    assert M.mmd(x, far) > M.mmd(x, near)


def _median_bandwidth_indices(a, b):
    """The median over triu_indices, the form the mask replaced."""
    pooled = np.concatenate([a, b], axis=0)
    d2 = M._pairwise_sq_dists(pooled, pooled)
    upper = d2[np.triu_indices(len(pooled), k=1)]
    med = float(np.sqrt(np.median(upper))) if upper.size else 0.0
    return med if med > 0.0 else 1.0


def test_median_bandwidth_matches_index_form_bitwise():
    rng = np.random.default_rng(10)
    for m, n, d in [(1, 1, 3), (2, 1, 2), (7, 5, 4), (64, 80, 16), (33, 33, 1)]:
        a = rng.normal(size=(m, d))
        b = rng.normal(size=(n, d)) + 0.5
        assert M.median_bandwidth(a, b) == _median_bandwidth_indices(a, b)
    rounded = np.round(rng.normal(size=(20, 2)))  # many tied distances
    assert M.median_bandwidth(rounded[:9], rounded[9:]) == \
        _median_bandwidth_indices(rounded[:9], rounded[9:])
    same = np.ones((4, 3))
    assert M.median_bandwidth(same, same) == 1.0


def _pairwise_sq_dists_full(a, b):
    """The one-expression form the row blocks replaced."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * a @ b.T, 0.0)


@pytest.mark.parametrize("block_bytes", [64, 1000, None])
def test_pairwise_sq_dists_row_blocks_match_full_form_bitwise(monkeypatch,
                                                              block_bytes):
    if block_bytes is not None:  # None keeps the module's block size
        monkeypatch.setattr(M, "_ROW_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(12)
    for m, n, d in [(1, 1, 3), (7, 5, 4), (64, 80, 16), (300, 129, 128)]:
        a = rng.normal(size=(m, d))
        b = rng.normal(size=(n, d)) + 0.5
        want = _pairwise_sq_dists_full(a, b)
        assert M._pairwise_sq_dists(a, b).tobytes() == want.tobytes()
        pooled = np.concatenate([a, b])
        assert M.median_bandwidth(a, b) == _median_bandwidth_indices(a, b)
        assert M._pairwise_sq_dists(pooled, pooled).tobytes() == \
            _pairwise_sq_dists_full(pooled, pooled).tobytes()


def test_rbf_mmd_peak_memory_under_one_and_a_half_pooled_matrices():
    import tracemalloc

    rng = np.random.default_rng(13)
    a = rng.normal(size=(1024, 128))
    b = rng.normal(size=(1024, 128)) + 0.1
    pooled_bytes = (2 * 1024) ** 2 * 8
    for call in (lambda: M.mmd(a, b),
                 lambda: M._pairwise_sq_dists(np.concatenate([a, b]),
                                              np.concatenate([a, b]))):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pooled_bytes, (peak, pooled_bytes)


def _roc_auc_loop(scores, labels):
    """Average tied ranks with the per-element loop the run boundaries
    replaced."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    rank_sum = ranks[pos].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def test_auc_tie_runs_equal_loop_and_pair_oracle_exactly():
    rng = np.random.default_rng(14)
    for trial in range(200):
        n = int(rng.integers(2, 300))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[-1] = 0, 1
        # saturating float32 probabilities: most scores tie at 0 or 1
        logits = rng.normal(scale=float(rng.choice([1.0, 20.0, 80.0])),
                            size=n)
        scores = (1.0 / (1.0 + np.exp(-logits))).astype(np.float32)
        if trial % 4 == 0:
            scores = np.round(scores, 1)
        fast = M.roc_auc(scores, labels)
        assert fast == _roc_auc_loop(scores, labels)
        assert fast == roc_auc_pairs(scores, labels)
    # a NaN ranks below every number, ties with another NaN and never
    # shares a run with one: of the 9 live/spoof pairs, 5 are ordered right
    # and 2 tie (0.5 with 0.5, NaN with NaN). The rank form ranked each NaN
    # above every number in a run of its own, for 6.5 / 9.
    with_nan = np.array([0.5, np.nan, 0.5, np.nan, 0.2, 0.9])
    nan_labels = np.array([1, 0, 0, 1, 0, 1])
    assert M.roc_auc(with_nan, nan_labels) == 6 / 9
    assert M.roc_auc(with_nan, nan_labels) == roc_auc_pairs(with_nan,
                                                            nan_labels)
