"""Reverse-mode automatic differentiation over float32 or float64 numpy arrays.

Ops are taped only inside a ``with graph():`` block, and only when an input
participates. The open graph owns the tape: ``backward`` on a scalar walks it
once in reverse, freeing each node as it passes, and deposits gradients on
the graph's leaves: the inputs that have ``requires_grad`` set and were not
made in the open graph (the parameters, and tensors made outside it or in an
earlier graph). Tensors made in the graph pass gradients on but receive no
``.grad``. Leaving the block drops the graph, also on an exception, so a step
that fails halfway leaves nothing for the next one to walk. Graphs do not
nest. Outside a graph an op only computes its value; scoring and analysis
run that way. Tensors are value-semantic: every op allocates a fresh output
and taped arrays are never mutated in place.

A node holds its output's key, one (key, dtype, leaf) entry per input and
its backward closure, which captures only the arrays that backward reads
(``add`` and the reductions keep shapes only, ``relu`` its output, the convs
their input and weight) and recomputes the rest. So an activation is freed
as soon as the code that made it drops it, unless a later op's backward
reads it; only leaves are held as tensors.

Gradients flow *through* tensors regardless of their ``requires_grad`` flag;
the flag only controls whether a gradient is accumulated on that tensor. A
frozen weight therefore still passes gradient back to the op's other inputs.

The op set is the one the two training stages use: elementwise arithmetic,
relu/exp/log/sqrt/sigmoid, sum/mean reductions, 2-D matmul, conv2d,
``upsample_conv2d`` (a 3x3 conv over a 2x nearest upsampling, computed
from the low-res input by sub-pixel phase kernels) and ``normalize`` (the
affine normalization step of batch and instance norm, one node with a
closed-form backward), plus the composed softmax/log_softmax.
``upsample_nearest`` no longer runs in the pipeline: composed with conv2d
it is the tests' reference for ``upsample_conv2d``, and the benchmark
trace binds it by name. There is no reshape, pooling, padding, slicing,
concatenation or transposition op; every op has a check in
:mod:`gdafas.gradcheck`.

The convs are chunked im2col GEMMs that read their input in place: no
padded copy is made, and a tap that falls in the zero padding is clipped to
the input and written as zero into the column block.

Precision policy: an op computes in the dtype numpy promotes its operands
to, so float32 operands give float32 results and buffers, and a float64
operand anywhere gives float64. A Python number takes the dtype of the
tensor it meets (numpy's weak-scalar rule). ``COMPUTE`` (float32) is the
dtype the pipeline builds its weights, optimizer state and decoded images
in; the gradient checks and finite-difference tests build float64 arrays
and so run in float64 throughout. Two places widen on purpose: a full
reduction (``tsum``/``tmean`` over every axis) accumulates and returns
float64, so loss totals add up exactly, and ``backward`` stores each
gradient in its tensor's dtype, so such a float64 scalar never widens the
gradients upstream of it.
"""

import contextlib

import numpy as np

COMPUTE = np.float32
_LOG_FLOOR = 1e-12
_DIV_FLOOR = 1e-12
_FLOATS = (np.float32, np.float64)

_graph = None  # the open graph's nodes, in op order; None outside a graph
_serial = 0    # the number of the open (or last) graph, part of output keys


class Tensor:
    """Array wrapper with a grad flag and an optional gradient.

    Integer and boolean arrays raise ``TypeError``: 8-bit image pixels
    must be decoded to [0, 1] before they reach an op. Other non-float
    data is widened to float64.
    """

    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype.kind in "biu":
            raise TypeError(f"Tensor takes float data, got {data.dtype}")
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._key = None  # (graph serial, node index) once taped

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node:
    __slots__ = ("key", "inputs", "fn")

    def __init__(self, key, inputs, fn):
        self.key = key
        self.inputs = inputs
        self.fn = fn


@contextlib.contextmanager
def graph():
    """Tape the ops of the block; the graph is dropped when the block exits.

    Opening a graph while one is open raises ``RuntimeError``.
    """
    global _graph, _serial
    if _graph is not None:
        raise RuntimeError("a graph is already open; graphs do not nest")
    _serial += 1
    _graph = []
    try:
        yield
    finally:
        _graph = None


def tape_size() -> int:
    """Nodes on the open graph; 0 when no graph is open."""
    return 0 if _graph is None else len(_graph)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b):
    """Both operands as tensors; a Python number takes the other's dtype."""
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    return as_tensor(a), as_tensor(b)


def _entry(t: Tensor):
    """(key, dtype, leaf) of an op input. A tensor made in the open graph is
    known by its output key; one that needs a gradient and was made
    elsewhere is a leaf, held and keyed by ``id``; any other input takes no
    gradient (key None)."""
    if t._key is not None and t._key[0] == _serial:
        return t._key, t.data.dtype, None
    if t.requires_grad:
        return id(t), t.data.dtype, t
    return None, t.data.dtype, None


def _record(out: Tensor, inputs, fn):
    """Tape the op if a graph is open and any input participates. The node
    holds ``out``'s key, not ``out``: ``fn`` captures what backward reads."""
    if _graph is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._key = (_serial, len(_graph))
        _graph.append(_Node(out._key, tuple(map(_entry, inputs)), fn))
    return out


def unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward(loss: Tensor):
    """Accumulate gradients of a scalar into the open graph's leaves.

    Pops the open graph's nodes last to first, freeing each as it passes;
    outside a graph it raises ``RuntimeError``. Gradients are routed by the
    nodes' input keys: a tensor made in the graph by its (graph serial, node
    index) key, which no tensor of an earlier graph shares, and a leaf by
    ``id``, which is safe because its node or ``leaves`` holds it while the
    id is a key. Only leaves receive ``.grad``; a gradient for an input that
    is neither made in the graph nor a leaf is dropped. Each gradient is
    cast to its input's dtype before it is passed on.
    """
    if _graph is None:
        raise RuntimeError("backward needs an open graph")
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss is detached from the graph")
    key, _, leaf = _entry(loss)
    grads = {key: np.ones_like(loss.data)}
    leaves = {} if leaf is None else {key: leaf}
    while _graph:
        node = _graph.pop()
        gout = grads.pop(node.key, None)
        if gout is None:
            continue
        for (key, dtype, leaf), g in zip(node.inputs, node.fn(gout)):
            if g is None or key is None:
                continue
            if g.dtype != dtype:
                g = g.astype(dtype)
            grads[key] = grads[key] + g if key in grads else g
            if leaf is not None:
                leaves[key] = leaf
    for key, t in leaves.items():
        t.grad = grads[key] if t.grad is None else t.grad + grads[key]


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape
    return _record(out, (a, b),
                   lambda g: (unbroadcast(g, sa), unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape
    return _record(out, (a, b),
                   lambda g: (unbroadcast(g, sa), unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    ad, bd = a.data, b.data
    out = Tensor(ad * bd)
    return _record(
        out,
        (a, b),
        lambda g: (
            unbroadcast(g * bd, ad.shape),
            unbroadcast(g * ad, bd.shape),
        ),
    )


def _safe_denominator(d: np.ndarray) -> np.ndarray:
    # sign-preserving floor keeps x/0 finite; gradient wrt d is zero there
    return np.where(np.abs(d) < _DIV_FLOOR, np.copysign(_DIV_FLOOR, d), d)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    ad, bd = a.data, b.data
    out = Tensor(ad / _safe_denominator(bd))

    def fn(g):
        safe = _safe_denominator(bd)
        ga = unbroadcast(g / safe, ad.shape)
        gb_full = np.where(
            np.abs(bd) < _DIV_FLOOR, 0.0, -g * ad / (safe * safe)
        )
        return ga, unbroadcast(gb_full, bd.shape)

    return _record(out, (a, b), fn)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def square(a) -> Tensor:
    a = as_tensor(a)
    ad = a.data
    out = Tensor(ad * ad)
    return _record(out, (a,), lambda g: (2.0 * ad * g,))


# ---------------------------------------------------------------------------
# nonlinearities


def relu(a) -> Tensor:
    a = as_tensor(a)
    od = np.maximum(a.data, 0.0)  # positive exactly where a.data is
    return _record(Tensor(od), (a,), lambda g: (g * (od > 0.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    od = np.exp(a.data)
    return _record(Tensor(od), (a,), lambda g: (g * od,))


def log(a) -> Tensor:
    """Natural log with the argument floored at 1e-12.

    In the floored region the forward value is constant, so the gradient
    there is zero; this matches a finite-difference probe on either side.
    """
    a = as_tensor(a)
    ad = a.data
    out = Tensor(np.log(np.maximum(ad, _LOG_FLOOR)))
    fn = lambda g: (np.where(ad >= _LOG_FLOOR,
                             g / np.maximum(ad, _LOG_FLOOR), 0.0),)
    return _record(out, (a,), fn)


def sqrt(a) -> Tensor:
    """Square root of max(x, 0); gradient is zero at and below zero."""
    a = as_tensor(a)
    ad = a.data
    od = np.sqrt(np.maximum(ad, 0.0))

    def fn(g):
        pos = ad > 0.0
        denom = np.where(pos, od, 1.0)
        return (np.where(pos, 0.5 * g / denom, 0.0),)

    return _record(Tensor(od), (a,), fn)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # the two-branch form never exponentiates a positive argument
    ex = np.exp(-np.abs(a.data))
    od = np.where(a.data >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    return _record(Tensor(od), (a,), lambda g: (g * od * (1.0 - od),))


# ---------------------------------------------------------------------------
# reductions


def _normalize_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(ax % ndim for ax in axes)


def _accumulator(a: Tensor, axes_n):
    """float64 for a reduction over every axis, else None: the input's dtype."""
    return np.float64 if len(axes_n) == a.ndim else None


def _spread(g: np.ndarray, shape, dtype) -> np.ndarray:
    """A reduction's gradient broadcast back over its input's shape, in its
    dtype."""
    return np.broadcast_to(g.astype(dtype, copy=False), shape).copy()


def tsum(a, axes=None, keepdims: bool = False) -> Tensor:
    """Sum over axes; over every axis it accumulates and returns float64."""
    a = as_tensor(a)
    axes_n = _normalize_axes(axes, a.ndim)
    out = Tensor(a.data.sum(axis=axes_n, keepdims=keepdims,
                            dtype=_accumulator(a, axes_n)))
    shape, dtype = a.shape, a.data.dtype

    def fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes_n)
        return (_spread(g, shape, dtype),)

    return _record(out, (a,), fn)


def tmean(a, axes=None, keepdims: bool = False) -> Tensor:
    """Mean over axes; over every axis it accumulates and returns float64."""
    a = as_tensor(a)
    axes_n = _normalize_axes(axes, a.ndim)
    count = 1
    for ax in axes_n:
        count *= a.shape[ax]
    out = Tensor(a.data.mean(axis=axes_n, keepdims=keepdims,
                             dtype=_accumulator(a, axes_n)))
    shape, dtype = a.shape, a.data.dtype

    def fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes_n)
        return (_spread(g / count, shape, dtype),)

    return _record(out, (a,), fn)


# ---------------------------------------------------------------------------
# linear algebra and spatial ops


def matmul(a, b) -> Tensor:
    """Product of two 2-D operands; any other rank raises ``ValueError``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul takes 2-D operands, got {a.shape} and "
                         f"{b.shape}")
    ad, bd = a.data, b.data
    out = Tensor(ad @ bd)
    return _record(out, (a, b), lambda g: (g @ bd.T, ad.T @ g))


# Bytes of one im2col column block. conv2d walks a batch in chunks of as many
# images as fit in this (at least one) and reuses the block chunk after
# chunk. Half of a core's L2 (2 MiB on the reference machine), so the block
# shares the cache with the GEMM's other operands; CHANGES.md records the
# paired runs that chose it.
_COL_BLOCK_BYTES = 1024 * 1024


def _window(size: int, out: int, offset: int, stride: int, tap: int):
    """Outputs [first, stop) whose tap reads inside an axis of ``size``, and
    the index the first one reads: output i reads stride*i + tap - offset."""
    first = min(out, max(0, -((tap - offset) // stride)))
    stop = min(out, max(first, -((tap - offset - size) // stride)))
    return first, stop, stride * first + tap - offset


def _fill_cols(cols: np.ndarray, x: np.ndarray, start: int, stride: int,
               offsets):
    """Unfold images x[start:start+n] into cols [Cin, kh, kw, n, Ho, Wo].

    Tap (u, v) of output (i, j) reads x[s*i+u-pr, s*j+v-pc] for offsets
    (pr, pc), and is zero where that lies outside x. When the output has
    x's size at stride 1, a tap is one shift of each flat [H*W] plane: one
    contiguous copy per (channel, image) plane, then zeros for the rows
    shifted in from outside and the |v-pc| columns that wrap to the next
    row. Any other shape copies each tap's in-bounds window and zeroes the
    border around it.
    """
    cin, kh, kw, n, ho, wo = cols.shape
    h, w = x.shape[2:]
    pr, pc = offsets
    xs = x[start:start + n].transpose(1, 0, 2, 3)
    if stride == 1 and (ho, wo) == (h, w):
        hw = h * w
        src = xs.reshape(cin, n, hw)
        flat = cols.reshape(cin, kh, kw, n, hw)
        for u in range(kh):
            for v in range(kw):
                d = (u - pr) * w + v - pc
                lo = min(hw, max(0, -d))
                hi = max(lo, min(hw, hw - d))
                tap = flat[:, u, v]
                tap[:, :, lo:hi] = src[:, :, lo + d:hi + d]
                if lo:
                    tap[:, :, :lo] = 0
                if hi < hw:
                    tap[:, :, hi:] = 0
                if v > pc:
                    cols[:, u, v, :, :, max(0, w - v + pc):] = 0
                elif v < pc:
                    cols[:, u, v, :, :, :min(w, pc - v)] = 0
        return
    for u in range(kh):
        i0, i1, r0 = _window(h, ho, pr, stride, u)
        for v in range(kw):
            j0, j1, c0 = _window(w, wo, pc, stride, v)
            tap = cols[:, u, v]
            tap[:, :, i0:i1, j0:j1] = xs[:, :, r0:r0 + stride * (i1 - i0):stride,
                                         c0:c0 + stride * (j1 - j0):stride]
            if i0:
                tap[:, :, :i0] = 0
            if i1 < ho:
                tap[:, :, i1:] = 0
            if j0:
                tap[:, :, i0:i1, :j0] = 0
            if j1 < wo:
                tap[:, :, i0:i1, j1:] = 0


def _chunk_images(b: int, k: int, pix: int, itemsize: int) -> int:
    """Images per column block of k rows and pix output pixels per image."""
    return max(1, min(b, _COL_BLOCK_BYTES // (itemsize * k * pix)))


def _correlate(x: np.ndarray, w: np.ndarray, stride: int, offsets, out_hw,
               out: np.ndarray = None) -> np.ndarray:
    """Cross-correlate images x [B,Cin,H,W] with w [Cout,Cin,kh,kw] into
    [B,Cout,Ho,Wo] for ``out_hw`` (Ho, Wo), reading x only through the taps
    of :func:`_fill_cols` (``offsets`` is the zero padding it stands for).

    The batch is walked in chunks: each chunk's images are unfolded into one
    reused column block [Cin*kh*kw, n*Ho*Wo] of at most ``_COL_BLOCK_BYTES``,
    multiplied by the [Cout, Cin*kh*kw] filter matrix in one GEMM, and
    written back transposed into the result: a fresh array, or ``out``
    (which may be a strided view) when given.
    """
    b, cin = x.shape[0], x.shape[1]
    cout, _, kh, kw = w.shape
    ho, wo = out_hw
    k, pix = cin * kh * kw, ho * wo
    dtype = np.result_type(x, w)
    chunk = _chunk_images(b, k, pix, dtype.itemsize)
    w2 = w.reshape(cout, k)
    col_buf = np.empty(k * chunk * pix, dtype)
    y_buf = np.empty(cout * chunk * pix, dtype)
    if out is None:
        out = np.empty((b, cout, ho, wo), dtype)
    for s in range(0, b, chunk):
        n = min(chunk, b - s)
        cols = col_buf[:k * n * pix].reshape(cin, kh, kw, n, ho, wo)
        _fill_cols(cols, x, s, stride, offsets)
        y = np.matmul(w2, cols.reshape(k, n * pix),
                      out=y_buf[:cout * n * pix].reshape(cout, n * pix))
        out[s:s + n] = y.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3)
    return out


def _col2im(cols: np.ndarray, gx: np.ndarray, stride: int, offsets,
            buf: np.ndarray):
    """Write into gx [n, Cin, H, W] the sum of the column gradients cols
    [Cin, kh, kw, n, Ho, Wo] at the x pixels their taps read.

    Each tap adds its in-bounds window (see :func:`_fill_cols`) into the
    stride phase of x it reads, kept as its own zeroed contiguous plane in
    ``buf``; the phases are then interleaved into gx. Taps are added u
    outer, v inner, and a tap outside x is dropped, so each pixel sums its
    taps from zero in one fixed order.
    """
    cin, kh, kw, n, ho, wo = cols.shape
    h, w = gx.shape[2:]
    pr, pc = offsets
    s = stride
    hp, wp = -(-h // s), -(-w // s)
    phases = buf[:s * s * cin * n * hp * wp].reshape(s, s, cin, n, hp, wp)
    phases[...] = 0
    for u in range(kh):
        i0, i1, r0 = _window(h, ho, pr, s, u)
        for v in range(kw):
            j0, j1, c0 = _window(w, wo, pc, s, v)
            phases[r0 % s, c0 % s, :, :, r0 // s:r0 // s + i1 - i0,
                   c0 // s:c0 // s + j1 - j0] += cols[:, u, v, :, i0:i1, j0:j1]
    gxt = gx.transpose(1, 0, 2, 3)
    for a in range(s):
        for c in range(s):
            gxt[:, :, a::s, c::s] = phases[a, c, :, :, :(h - a + s - 1) // s,
                                           :(w - c + s - 1) // s]


def _column_grads(g, x, w, stride, offsets, want_w: bool, want_x: bool):
    """Weight gradient and col2im input gradient of ``_correlate(x, w,
    stride, offsets, g.shape[2:])``, by chunk.

    Each chunk's column block is rebuilt from x for ``gW += gᵀ·colsᵀ``; the
    spent block's buffer then takes the column gradient ``Wᵀ·g``, which
    :func:`_col2im` sums into the chunk's slice of x's gradient.
    Returns (gW or None, gradient of x or None).
    """
    b, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    k, pix = cin * kh * kw, ho * wo
    dtype = np.result_type(g, x, w)
    chunk = _chunk_images(b, k, pix, dtype.itemsize)
    w2 = w.reshape(cout, k)
    gw2 = np.zeros((cout, k), dtype) if want_w else None
    gx = phase_buf = None
    if want_x:
        gx = np.empty(x.shape, dtype)
        phase_buf = np.empty(chunk * cin * -(-h // stride) * stride
                             * -(-wd // stride) * stride, dtype)
    col_buf = np.empty(k * chunk * pix, dtype)
    gy_buf = np.empty(cout * chunk * pix, dtype)
    for s in range(0, b, chunk):
        n = min(chunk, b - s)
        gy = gy_buf[:cout * n * pix].reshape(cout, n, ho, wo)
        gy[...] = g[s:s + n].transpose(1, 0, 2, 3)
        gy = gy.reshape(cout, n * pix)
        cols = col_buf[:k * n * pix].reshape(cin, kh, kw, n, ho, wo)
        if want_w:
            _fill_cols(cols, x, s, stride, offsets)
            gw2 += gy @ cols.reshape(k, n * pix).T
        if want_x:
            np.matmul(w2.T, gy, out=cols.reshape(k, n * pix))
            _col2im(cols, gx[s:s + n], stride, offsets, phase_buf)
    return (None if gw2 is None else gw2.reshape(w.shape)), gx


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [B,Cin,H,W] with [Cout,Cin,kh,kw] filters.

    The forward is one chunked im2col GEMM (``_correlate``) that reads x in
    place: a tap that falls in the zero padding is written as zero into the
    column block, so no padded copy of x is made. Where backward needs the
    column block (the weight gradient or the col2im scatter),
    ``_column_grads`` rebuilds it per chunk from x the same way.

    The input gradient at stride 1 with padding p <= k-1 is itself a
    stride-1 correlation: the output gradient, read with tap offset k-1-p,
    against the kernel flipped in both spatial axes with Cin and Cout
    swapped. It runs through the same GEMM as the forward. A strided conv
    (or a padding larger than k-1) instead multiplies the column gradient
    out per chunk and adds it back into x's gradient one tap at a time
    (col2im), skipping taps that fall in the padding: as a correlation it
    would need a zero-dilated output gradient, with stride² times the GEMM
    work spent on zeros. A gradient that no tensor can receive (an input,
    weight or bias whose ``requires_grad`` is off) is not computed: its
    slot comes back None.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    xd, wd = x.data, weight.data
    h, w = xd.shape[2], xd.shape[3]
    kh, kw = wd.shape[2], wd.shape[3]
    pad = (padding, padding)
    out_hw = ((h + 2 * padding - kh) // stride + 1,
              (w + 2 * padding - kw) // stride + 1)
    out_data = _correlate(xd, wd, stride, pad, out_hw)
    if bias is not None:
        bias = as_tensor(bias)
        out_data += bias.data[:, None, None]
    out = Tensor(out_data)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    want_x, want_w = x.requires_grad, weight.requires_grad
    want_b = None if bias is None else bias.requires_grad
    direct = stride == 1 and padding < min(kh, kw)

    def fn(g):
        gx = gw = None
        if want_x and direct:
            flipped = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _correlate(g, flipped, 1,
                            (kh - 1 - padding, kw - 1 - padding), (h, w))
        scatter = want_x and not direct
        if want_w or scatter:
            gw, gxs = _column_grads(g, xd, wd, stride, pad, want_w, scatter)
            if scatter:
                gx = gxs
        if want_b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3)) if want_b else None

    return _record(out, inputs, fn)


# Sub-pixel maps of a 3x3 kernel over a 2x nearest upsampling. Output row
# 2m+a of the pad-1 correlation reads kernel rows u at upsampled rows
# 2m+a+u-1, that is low-res rows m-1, m, m (a=0) or m, m, m+1 (a=1): two
# taps of the low-res input at rows m+a-1 and m+a (tap offset 1-a), tap 0
# summing kernel rows [0, 1+a) and tap 1 rows [1+a, 3), so the weight
# gradient repeats the taps' rows 1+a and 2-a times. Columns split the same
# way. The input gradient gathers the output gradient rows 2r-1..2r+2 onto
# low-res row r: the flipped kernel's rows summed by _GRAD_ROWS into 4 taps
# at stride 2 and tap offset 1.
_GRAD_ROWS = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]])


def _phase_kernels(w: np.ndarray):
    """(a, c, 2x2 kernel) per phase: w's rows, then columns, slice-summed."""
    def split(v, axis):
        v0, v1, v2 = np.moveaxis(v, axis, 0)
        return [np.stack(t, axis) for t in ((v0, v1 + v2), (v0 + v1, v2))]
    return [(a, c, k) for a, rows in enumerate(split(w, -2))
            for c, k in enumerate(split(rows, -1))]


def upsample_conv2d(x, weight) -> Tensor:
    """``conv2d(upsample_nearest(x, 2), weight, stride=1, padding=1)`` for a
    3x3 ``weight``, without building the upsampled map.

    Each output phase (a, c), the pixels [2m+a, 2n+c], is a 2x2 correlation
    of the low-res input at tap offsets (1-a, 1-c) with the kernel
    ``R_a · W · R_cᵀ`` (W's rows, then columns, summed by slices), written
    straight into its strided slots of the [B,Cout,2H,2W] result: 4·4 = 16
    multiply-adds per output pixel and channel pair instead of 9·4 = 36
    over the upsampled map, and as many fewer im2col bytes. Backward is
    closed-form: the weight gradient is ``Σ R_aᵀ · gW_ac · R_c`` over the
    four phases' 2x2 weight gradients, each a gather of repeated rows and
    columns, and the input gradient is one stride-2 correlation of the
    output gradient at tap offset 1 with a 4x4 kernel (``_GRAD_ROWS``). As
    in :func:`conv2d`, no padded copy is made, and a gradient that no
    tensor can receive is not computed.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.shape[2:] != (3, 3):
        raise ValueError(f"upsample_conv2d needs a 3x3 kernel, got "
                         f"{weight.shape}")
    b, _, h, w = x.shape
    xd, wd = x.data, weight.data
    out_data = np.empty((b, wd.shape[0], 2 * h, 2 * w),
                        np.result_type(xd, wd))
    for a, c, wk in _phase_kernels(wd):
        _correlate(xd, wk, 1, (1 - a, 1 - c), (h, w),
                   out=out_data[:, :, a::2, c::2])
    out = Tensor(out_data)
    want_x, want_w = x.requires_grad, weight.requires_grad

    def fn(g):
        gx = gw = None
        if want_x:
            taps = _GRAD_ROWS.astype(wd.dtype)
            flipped = taps @ wd[:, :, ::-1, ::-1] @ taps.T
            gx = _correlate(g, flipped.transpose(1, 0, 2, 3), 2, (1, 1),
                            (h, w))
        if want_w:
            for a, c, wk in _phase_kernels(wd):
                gwk, _ = _column_grads(g[:, :, a::2, c::2], xd, wk, 1,
                                       (1 - a, 1 - c), True, False)
                part = np.repeat(np.repeat(gwk, (1 + a, 2 - a), axis=-2),
                                 (1 + c, 2 - c), axis=-1)
                gw = part if gw is None else gw + part
        return gx, gw

    return _record(out, (x, weight), fn)


def upsample_nearest(x, factor: int) -> Tensor:
    """Repeat each pixel of a [B,C,H,W] tensor into a factor x factor block;
    backward sums the gradient over each block."""
    x = as_tensor(x)
    b, c, h, w = x.shape
    out = Tensor(x.data.repeat(factor, axis=2).repeat(factor, axis=3))

    def fn(g):
        return (g.reshape(b, c, h, factor, w, factor).sum(axis=(3, 5)),)

    return _record(out, (x,), fn)


# ---------------------------------------------------------------------------
# normalization


def normalize(x, mean, var, gamma, beta, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gamma + beta as one taped op.

    ``x`` is [B,C,H,W]; ``mean`` and ``var`` are [1,C,1,1] (batch norm) or
    [B,C,1,1] (instance norm); ``gamma`` and ``beta`` are [C]. The forward
    runs the float operations of the composed ``add``/``sqrt``/``sub``/
    ``div``/``mul``/``add`` chain in the same order, so its output has the
    same bits. The node keeps x, mean and the divisors (gamma and beta are
    leaves), and backward recomputes xhat. With s = sqrt(var + eps),
    xhat = (x - mean) / s, and sums taken over the axes each operand was
    broadcast along:

        dx = g*gamma/s           dmean = -sum(g)*gamma/s
        dgamma = sum(g*xhat)     dvar = -0.5*sum(g*xhat)*gamma/s²
        dbeta = sum(g)

    The moments' own dependence on x is left to the ops that computed them.
    As in ``div``, a standard deviation below 1e-12 is floored and passes
    no gradient to ``var``.
    """
    x, mean, var = as_tensor(x), as_tensor(mean), as_tensor(var)
    gamma, beta = as_tensor(gamma), as_tensor(beta)
    c = x.shape[1]
    if mean.shape != var.shape or mean.shape not in ((1, c, 1, 1),
                                                     (x.shape[0], c, 1, 1)):
        raise ValueError(
            f"moments of shape {mean.shape}/{var.shape} do not fit {x.shape}"
        )
    xd, md = x.data, mean.data
    std = np.sqrt(np.maximum(var.data + eps, 0.0))
    safe = _safe_denominator(std)
    scale = gamma.data.reshape(1, c, 1, 1)
    out_data = xd - md
    out_data /= safe
    out_data *= scale
    out_data += beta.data.reshape(1, c, 1, 1)
    out = Tensor(out_data)
    want_x, want_gamma, want_beta = (t.requires_grad for t in (x, gamma, beta))

    def fn(g):
        gxhat = xd - md
        gxhat /= safe
        gxhat *= g
        g_sum = unbroadcast(g, md.shape)
        gxhat_sum = unbroadcast(gxhat, md.shape)
        gain = scale / safe
        gx = g * gain if want_x else None
        gmean = -g_sum * gain
        gvar = np.where(std < _DIV_FLOOR, 0.0,
                        -0.5 * gxhat_sum * gain / safe)
        ggamma = gbeta = None
        if want_gamma:
            ggamma = gxhat_sum.sum(axis=0).reshape(c)
        if want_beta:
            gbeta = g_sum.sum(axis=0).reshape(c)
        return gx, gmean, gvar, ggamma, gbeta

    return _record(out, (x, mean, var, gamma, beta), fn)


# ---------------------------------------------------------------------------
# composed helpers


def moments(x: Tensor, axes):
    """Mean and biased variance of ``x`` over ``axes``, kept as singleton
    axes: a ``tmean`` node and one variance node on ``(x, mean)``. The
    variance node computes what ``tmean(square(sub(x, mean)))`` computes,
    with the same bits forward and backward; its centred copy is freed
    after the forward and recomputed in backward.
    """
    mean = tmean(x, axes=axes, keepdims=True)
    axes_n = _normalize_axes(axes, x.ndim)
    xd, md = x.data, mean.data
    sq = xd - md
    sq *= sq
    var = Tensor(sq.mean(axis=axes_n, keepdims=True,
                         dtype=_accumulator(x, axes_n)))

    def fn(g):
        # d * (2 * (g / count)) is 2 * d * (g / count) exactly: 2x is exact
        gx = xd - md
        gx *= (g / (xd.size // md.size) * 2.0).astype(gx.dtype, copy=False)
        return gx, unbroadcast(-gx, md.shape)

    return mean, _record(var, (x, mean), fn)


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along one axis, shifted by the (constant) row max for stability."""
    x = as_tensor(x)
    shift = sub(x, x.data.max(axis=axis, keepdims=True))
    e = exp(shift)
    return div(e, tsum(e, axes=axis, keepdims=True))


def log_softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shift = sub(x, x.data.max(axis=axis, keepdims=True))
    lse = log(tsum(exp(shift), axes=axis, keepdims=True))
    return sub(shift, lse)
