"""Slow, literal reference implementations that the tests check against."""

import numpy as np

from gdafas import data, models
from gdafas import tensor as T


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
    """AUC by enumerating every live/spoof pair, O(n^2); ties count half.
    A NaN score ranks below every number and ties with another NaN."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    # (0, 0.0) for a NaN, (1, score) for a number: tuples order the rule
    keys = [(0, 0.0) if np.isnan(s) else (1, s) for s in scores.tolist()]
    pos_scores = [k for k, label in zip(keys, labels) if label == 1]
    neg_scores = [k for k, label in zip(keys, labels) if label == 0]
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


def roc_auc_ranks(scores, labels) -> float:
    """Mann-Whitney AUC from average ranks, ties counting one half: the rank
    form ``metrics.roc_auc`` had before it read the threshold sweep. Each
    run of equal sorted scores (NaNs never equal, so each is a run of its
    own, above every number) shares the mean of its 1-based positions, and
    every label but 1 counts as spoof."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one live and one spoof score")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.flatnonzero(
        np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1]]))
    ends = np.append(starts[1:], len(scores)) - 1
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends + 1), ends - starts + 1)
    rank_sum = ranks[pos].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def hter_direct(scores, labels, threshold) -> float:
    """(FAR + FRR) / 2 of `live iff score >= threshold`, counted directly:
    the form ``metrics.hter`` had before it read the threshold sweep."""
    far, frr = _rates_at(np.asarray(scores, dtype=np.float64),
                         np.asarray(labels), threshold)
    return 0.5 * (far + frr)


def _rates_at(scores, labels, threshold):
    """(FAR, FRR) of `live iff score >= threshold`, counted directly."""
    accepted = scores >= threshold
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    far = float(np.sum(accepted & (labels == 0))) / n_neg
    frr = float(np.sum(~accepted & (labels == 1))) / n_pos
    return far, frr


def _thresholds(scores):
    """+inf, then every distinct number among the scores descending; a NaN
    is no threshold."""
    distinct = np.unique(scores)
    return np.concatenate([[np.inf], distinct[~np.isnan(distinct)][::-1]])


def roc_points_sweep(scores, labels):
    """(FAR, TPR) at +inf and every distinct number descending, O(n^2)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    points = []
    for th in _thresholds(scores):
        far, frr = _rates_at(scores, labels, th)
        points.append((far, 1.0 - frr))
    return points


def eer_threshold_sweep(scores, labels):
    """(threshold, FAR, FRR) at the first sweep point whose |FAR - FRR| no
    later point undercuts by more than 1e-15, O(n^2)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    best = None
    for th in _thresholds(scores):
        far, frr = _rates_at(scores, labels, th)
        gap = abs(far - frr)
        if best is None or gap < best[0] - 1e-15:
            best = (gap, th, far, frr)
    return best[1:]


def full_eval_pass(bundle, dataset, generator=None, batch_size=64):
    """Scores, pooled BN input moments and pooled block features of a
    dataset, each batch run through F, H and R together.

    Every batch (stylized by ``generator`` when given) takes one
    ``forward_source(mode="eval")``; the float64 moments of each BN layer's
    input are taken inline and pooled with batch-size weights. Returns
    (live scores [N], [(mean, var)] per BN layer, [pooled block [N, C]]).
    """
    scores, pooled = [], [[], [], []]
    n = 0.0
    mean_acc = sq_acc = None
    for start in range(0, len(dataset.images), batch_size):
        x = data.decode(dataset.images[start:start + batch_size])
        if generator is not None:
            x = generator.forward(T.Tensor(x)).data
        logits, _, inputs, blocks = models.forward_source(bundle, x, "eval")
        p = T.softmax(logits.data.astype(np.float64), axis=1).data
        scores.append(p[:, 1])
        for out, block in zip(pooled, blocks):
            out.append(block.data.mean(axis=(2, 3)))
        w = float(x.shape[0])
        n += w
        means = [a.mean(axis=(0, 2, 3), dtype=np.float64) for a in inputs]
        sqs = [a.var(axis=(0, 2, 3), dtype=np.float64) + m * m
               for a, m in zip(inputs, means)]
        if mean_acc is None:
            mean_acc = [0.0] * len(inputs)
            sq_acc = [0.0] * len(inputs)
        mean_acc = [acc + w * m for acc, m in zip(mean_acc, means)]
        sq_acc = [acc + w * q for acc, q in zip(sq_acc, sqs)]
    moments = []
    for m_sum, q_sum in zip(mean_acc, sq_acc):
        mean = m_sum / n
        moments.append((mean, np.maximum(q_sum / n - mean * mean, 0.0)))
    return (np.concatenate(scores), moments,
            [np.concatenate(parts) for parts in pooled])


def phase_loss_and_grad(x_ref, x):
    """``spectrum.phase_alignment_loss``'s value and its gradient with
    respect to x at upstream gradient 1, keeping every per-bin term from
    the forward for the backward, as the loss's node once did."""
    h, w = x.shape[-2:]
    ref = np.fft.rfft2(np.asarray(x_ref, dtype=np.float64))
    ref_norm = np.hypot(ref.real, ref.imag)
    spec = np.fft.rfft2(x)
    norm = np.hypot(spec.real, spec.imag)
    mask = (ref_norm >= 1e-8) & (norm >= 1e-8)
    unit = np.where(mask, ref / np.where(mask, ref_norm, 1.0), 0.0)
    unit = unit.astype(spec.dtype)
    safe = np.where(mask, norm, 1.0)
    cos = (spec.real * unit.real + spec.imag * unit.imag) / safe
    weights = np.full(spec.shape[-1], 2.0, cos.dtype)
    weights[0] = 1.0
    if w % 2 == 0:
        weights[-1] = 1.0
    batch = x.shape[0]
    loss = -np.sum(cos * weights, dtype=np.float64) / batch
    g_half = (unit - cos * spec / safe) / safe
    scale = -np.float64(1.0) * (h * w) / batch
    grad = (np.fft.irfft2(g_half, s=(h, w)) * scale).astype(x.dtype,
                                                            copy=False)
    return loss, grad


def upsample_conv2d(x, weight, g):
    """The composed ``conv2d(upsample_nearest(x, 2), weight, None, 1, 1)``
    that ``tensor.upsample_conv2d`` replaces: its output and the gradients
    of sum(out * g) with respect to x and weight."""
    tx, tw = (T.Tensor(a, requires_grad=True) for a in (x, weight))
    with T.graph():
        out = T.conv2d(T.upsample_nearest(tx, 2), tw, stride=1, padding=1)
        T.backward(T.tsum(T.mul(out, g)))
    return out.data, tx.grad, tw.grad


def _pad(x, ph, pw):
    """x [B,C,H,W] zero-padded by ph rows and pw columns on each side."""
    return np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)])


def _padded_fill(cols, xp, start, stride):
    """Unfold padded images xp[start:start+n] into cols [Cin, kh, kw, n, Ho,
    Wo]: one strided-slice copy per tap."""
    _, kh, kw, n, ho, wo = cols.shape
    for u in range(kh):
        for v in range(kw):
            cols[:, u, v] = xp[start:start + n, :, u:u + ho * stride:stride,
                               v:v + wo * stride:stride].transpose(1, 0, 2, 3)


def _padded_correlate(xp, w, stride, out=None):
    """Chunked im2col correlation of padded images xp with w, with
    ``tensor._correlate``'s column layout, chunking and GEMM."""
    b, cin = xp.shape[0], xp.shape[1]
    cout, _, kh, kw = w.shape
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    k, pix = cin * kh * kw, ho * wo
    dtype = np.result_type(xp, w)
    chunk = T._chunk_images(b, k, pix, dtype.itemsize)
    w2 = w.reshape(cout, k)
    col_buf = np.empty(k * chunk * pix, dtype)
    y_buf = np.empty(cout * chunk * pix, dtype)
    if out is None:
        out = np.empty((b, cout, ho, wo), dtype)
    for s in range(0, b, chunk):
        n = min(chunk, b - s)
        cols = col_buf[:k * n * pix].reshape(cin, kh, kw, n, ho, wo)
        _padded_fill(cols, xp, s, stride)
        y = np.matmul(w2, cols.reshape(k, n * pix),
                      out=y_buf[:cout * n * pix].reshape(cout, n * pix))
        out[s:s + n] = y.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3)
    return out


def _padded_column_grads(g, xp, w, stride, want_w, want_x):
    """(weight gradient, gradient of the padded xp) of
    ``_padded_correlate(xp, w, stride)``: the column block rebuilt per chunk,
    and col2im by one strided add per tap into a zeroed padded buffer."""
    b, cin = xp.shape[0], xp.shape[1]
    cout, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    k, pix = cin * kh * kw, ho * wo
    dtype = np.result_type(g, xp, w)
    chunk = T._chunk_images(b, k, pix, dtype.itemsize)
    w2 = w.reshape(cout, k)
    gw2 = np.zeros((cout, k), dtype) if want_w else None
    gxp = np.zeros(xp.shape, dtype) if want_x else None
    col_buf = np.empty(k * chunk * pix, dtype)
    gy_buf = np.empty(cout * chunk * pix, dtype)
    for s in range(0, b, chunk):
        n = min(chunk, b - s)
        gy = gy_buf[:cout * n * pix].reshape(cout, n, ho, wo)
        gy[...] = g[s:s + n].transpose(1, 0, 2, 3)
        gy = gy.reshape(cout, n * pix)
        cols = col_buf[:k * n * pix].reshape(cin, kh, kw, n, ho, wo)
        if want_w:
            _padded_fill(cols, xp, s, stride)
            gw2 += gy @ cols.reshape(k, n * pix).T
        if want_x:
            np.matmul(w2.T, gy, out=cols.reshape(k, n * pix))
            for u in range(kh):
                for v in range(kw):
                    gxp[s:s + n, :, u:u + ho * stride:stride,
                        v:v + wo * stride:stride] += \
                        cols[:, u, v].transpose(1, 0, 2, 3)
    return (None if gw2 is None else gw2.reshape(w.shape)), gxp


def padded_conv2d(x, w, stride, padding, g):
    """``tensor.conv2d`` (no bias) over an explicitly padded copy of x: its
    output, and the input and weight gradients for output gradient g. The
    input gradient at stride 1 with padding <= k-1 correlates the padded g
    with the flipped kernel; otherwise it is col2im into the padded buffer,
    cropped. Same GEMMs, operands and chunks as ``tensor.conv2d``, so the
    same bits."""
    kh, kw = w.shape[2], w.shape[3]
    xp = _pad(x, padding, padding)
    out = _padded_correlate(xp, w, stride)
    if stride == 1 and padding < min(kh, kw):
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        gx = _padded_correlate(_pad(g, kh - 1 - padding, kw - 1 - padding),
                               flipped, 1)
        gw, _ = _padded_column_grads(g, xp, w, stride, True, False)
    else:
        gw, gxp = _padded_column_grads(g, xp, w, stride, True, True)
        h, wd = x.shape[2:]
        gx = gxp[:, :, padding:padding + h, padding:padding + wd]
    return out, gx, gw


def padded_upsample_conv2d(x, w, g):
    """``tensor.upsample_conv2d`` over padded windows: each phase (a, c) a
    2x2 correlation of the pad-1 input's window from (a, c), the input
    gradient one stride-2 correlation of the pad-1 g, the weight gradient
    the phases' column gradients folded by repeats. Returns (out, gx, gw)."""
    b, _, h, wd = x.shape
    xp = _pad(x, 1, 1)
    out = np.empty((b, w.shape[0], 2 * h, 2 * wd), np.result_type(x, w))
    gw = None
    for a, c, wk in T._phase_kernels(w):
        window = xp[:, :, a:a + h + 1, c:c + wd + 1]
        _padded_correlate(window, wk, 1, out=out[:, :, a::2, c::2])
        gwk, _ = _padded_column_grads(g[:, :, a::2, c::2], window, wk, 1,
                                      True, False)
        part = np.repeat(np.repeat(gwk, (1 + a, 2 - a), axis=-2),
                         (1 + c, 2 - c), axis=-1)
        gw = part if gw is None else gw + part
    taps = T._GRAD_ROWS.astype(w.dtype)
    flipped = taps @ w[:, :, ::-1, ::-1] @ taps.T
    gx = _padded_correlate(_pad(g, 1, 1), flipped.transpose(1, 0, 2, 3), 2)
    return out, gx, gw


class SplitMix64:
    """The counter-based generator one draw call at a time, as ``rng.Rng``
    wrote it before its streams shared a many-seed draw."""

    _GAMMA = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def next_uint64(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1,
                        dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            z = self.seed + idx * self._GAMMA
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0):
        u = (self.next_uint64(n) >> np.uint64(11)).astype(np.float64) \
            * float(2.0**-53)
        return low + (high - low) * u

    def gaussian(self, n: int, mean: float = 0.0, std: float = 1.0):
        m = (n + 1) // 2
        u1 = 1.0 - self.uniform(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * m, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return mean + std * z[:n]


def _box_blur(img: np.ndarray, passes: int) -> np.ndarray:
    out = img
    h, w = img.shape[1:]
    for _ in range(passes):
        padded = np.pad(out, [(0, 0), (1, 1), (1, 1)], mode="edge")
        acc = np.zeros_like(out)
        for dy in range(3):
            for dx in range(3):
                acc += padded[:, dy : dy + h, dx : dx + w]
        out = acc / 9.0
    return out


def render_record(label: int, spec, seed: int):
    """One (image [3,32,32] in [0,1], depth [1,8,8]) pair, rendered alone
    with its own scalar draws, as ``data`` rendered every record before it
    rendered them in blocks."""
    r = SplitMix64(seed)
    size = 32
    yy, xx = np.mgrid[0:size, 0:size] / (size - 1.0)

    cx = 0.5 + 0.12 * (r.uniform(1)[0] - 0.5)
    cy = 0.5 + 0.12 * (r.uniform(1)[0] - 0.5)
    radius = 0.30 + 0.08 * r.uniform(1)[0]
    dist2 = ((xx - cx) ** 2 + (yy - cy) ** 2) / (radius * radius)
    blob = np.exp(-dist2)

    base = 0.25 + 0.1 * r.uniform(1)[0]
    tilt = 0.08 * (r.uniform(1)[0] - 0.5)
    background = base + tilt * (xx + yy - 1.0)
    face_tone = np.array([0.55, 0.45, 0.38]).reshape(3, 1, 1)
    scene = background[None, :, :] + face_tone * blob[None, :, :]
    scene = _box_blur(scene, spec.blur)

    if label == 0:
        freq = 9.0 + 4.0 * r.uniform(1)[0]
        angle = np.pi * r.uniform(1)[0]
        phase = 2.0 * np.pi * r.uniform(1)[0]
        fx, fy = freq * np.cos(angle), freq * np.sin(angle)
        grating = 0.1 * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)
        scene = scene + grating[None, :, :]

    gain = np.asarray(spec.gain).reshape(3, 1, 1)
    styled = scene * gain + spec.brightness
    styled = styled + r.gaussian(3 * size * size, std=spec.noise).reshape(
        3, size, size
    )
    image = np.clip(styled, 0.0, 1.0)

    if label == 1:
        gy, gx = np.mgrid[0:8, 0:8] / 7.0
        gd2 = ((gx - cx) ** 2 + (gy - cy) ** 2) / (radius * radius)
        depth = np.exp(-gd2)[None, :, :]
    else:
        depth = np.zeros((1, 8, 8))
    return image, depth


def graph_bytes() -> int:
    """Bytes held by the open graph: the distinct base arrays that its
    nodes' leaf inputs and their backward closures' cells refer to (through
    tensors, lists and tuples)."""
    bases = {}

    def visit(obj):
        if isinstance(obj, T.Tensor):
            obj = obj.data
        if isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj.nbytes

    for node in T._graph:
        visit([leaf for _, _, leaf in node.inputs])
        visit([cell.cell_contents for cell in node.fn.__closure__ or ()])
    return sum(bases.values())
