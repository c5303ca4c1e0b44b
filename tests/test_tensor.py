"""Autodiff engine: gradients against central differences, graph discipline."""

import pathlib
import re
import weakref

import numpy as np
import pytest

import gdafas.tensor as T
from gdafas.gradcheck import max_rel_error
from gdafas.rng import Rng, derive_seed
from oracles import padded_conv2d, padded_upsample_conv2d
from oracles import upsample_conv2d as composed_upsample_conv2d


def test_value_semantics():
    x = np.ones((2, 2))
    t = T.Tensor(x)
    out = T.add(t, 1.0)
    out.data[0, 0] = 99.0
    assert t.data[0, 0] == 1.0


@pytest.mark.parametrize("data", [
    np.zeros((1, 3, 32, 32), np.uint8), np.zeros(2, np.int64),
    np.zeros(2, bool), [1, 2], 3,
])
def test_integer_and_boolean_data_is_refused(data):
    # 8-bit pixels must be decoded first, not widened to 0..255 floats
    with pytest.raises(TypeError, match="float"):
        T.Tensor(data)


def test_requires_grad_propagates_through_frozen_inputs():
    x = T.Tensor([[1.0, 2.0]], requires_grad=True)
    w = T.Tensor([[3.0], [4.0]], requires_grad=False)
    with T.graph():
        out = T.matmul(x, w)
        assert out.requires_grad
        T.backward(T.tsum(out))
    assert x.grad is not None
    assert w.grad is None


def test_ops_outside_a_graph_tape_nothing():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.tsum(T.square(x))
    assert not y.requires_grad
    assert T._graph is None and T.tape_size() == 0
    with T.graph():
        assert T.tape_size() == 0  # nothing from before the block


def test_backward_outside_a_graph_raises():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.graph():
        loss = T.tsum(T.square(x))
    with pytest.raises(RuntimeError, match="open graph"):
        T.backward(loss)
    assert x.grad is None


def test_nested_graph_raises_and_drops_the_outer_one():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError, match="nest"):
        with T.graph():
            T.square(x)
            with T.graph():
                pass
    assert T._graph is None
    with T.graph():                 # a fresh graph opens afterwards
        assert T.tape_size() == 0


def test_exception_inside_the_block_drops_the_graph():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(KeyError):
        with T.graph():
            T.square(T.square(x))
            assert T.tape_size() == 2
            raise KeyError("a step that fails halfway")
    assert T._graph is None and T.tape_size() == 0
    with T.graph():
        loss = T.tsum(T.square(x))
        assert T.tape_size() == 2   # only this block's nodes
        T.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_clears_tape_and_rejects_nonscalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.graph():
        y = T.square(x)
        assert T.tape_size() == 1
        with pytest.raises(ValueError):
            T.backward(y)
        assert T.tape_size() == 1   # the block's exit drops it
    assert T.tape_size() == 0
    with T.graph():
        T.backward(T.tsum(T.square(x)))
        assert T.tape_size() == 0
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_frees_each_node_as_it_walks():
    # a chain of three doubling nodes under a sum: when the walk reaches the
    # first node, the later nodes and the outputs only they held are gone
    outputs, alive = [], []

    def double(t, first=False):
        def fn(g):
            if first:
                alive.extend(ref() is not None for ref in outputs[1:])
            return (2.0 * g,)

        out = T._record(T.Tensor(2.0 * t.data), (t,), fn)
        outputs.append(weakref.ref(out.data))
        return out

    x = T.Tensor(np.ones(4), requires_grad=True)
    with T.graph():
        loss = T.tsum(double(double(double(x, first=True))))
        T.backward(loss)
        assert T.tape_size() == 0
    assert alive == [False, False]
    assert np.array_equal(x.grad, np.full(4, 8.0))


def test_grad_accumulates_across_backward_calls():
    x = T.Tensor([3.0], requires_grad=True)
    with T.graph():
        T.backward(T.tsum(T.square(x)))
        T.backward(T.tsum(T.square(x)))
    assert np.allclose(x.grad, [12.0])


def test_fanout_accumulates_once_per_path():
    x = T.Tensor([2.0], requires_grad=True)
    with T.graph():
        y = T.square(x)
        T.backward(T.tsum(T.add(y, y)))
    assert np.allclose(x.grad, [8.0])


def test_broadcast_gradient_reduction():
    a = T.Tensor(np.ones((2, 3)), requires_grad=True)
    b = T.Tensor(np.ones((1, 3)), requires_grad=True)
    c = T.Tensor(2.0, requires_grad=True)
    with T.graph():
        T.backward(T.tsum(T.mul(T.add(a, b), c)))
    assert a.grad.shape == (2, 3) and np.allclose(a.grad, 2.0)
    assert b.grad.shape == (1, 3) and np.allclose(b.grad, 4.0)
    assert c.grad.shape == () and np.allclose(c.grad, 12.0)


def test_log_floor_region_has_zero_gradient():
    x = T.Tensor([1e-15, 0.5], requires_grad=True)
    with T.graph():
        T.backward(T.tsum(T.log(x)))
    assert x.grad[0] == 0.0
    assert np.isclose(x.grad[1], 2.0)
    assert np.isclose(T.log(T.Tensor([0.0])).data[0], np.log(1e-12))


def test_sqrt_nonpositive_region():
    x = T.Tensor([-1.0, 0.0, 4.0], requires_grad=True)
    with T.graph():
        y = T.sqrt(x)
        T.backward(T.tsum(y))
    assert np.allclose(y.data, [0.0, 0.0, 2.0])
    assert x.grad[0] == 0.0 and x.grad[1] == 0.0
    assert np.isclose(x.grad[2], 0.25)


def test_div_by_zero_stays_finite():
    num = T.Tensor([1.0, -1.0])
    den = T.Tensor([0.0, 1e-15], requires_grad=True)
    with T.graph():
        y = T.div(num, den)
        T.backward(T.tsum(y))
    assert np.all(np.isfinite(y.data))
    assert y.data[0] == 1e12
    assert np.allclose(den.grad, 0.0)


def test_elementwise_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(101, trial))
        x = r.gaussian(12).reshape(3, 4)
        y = r.gaussian(12).reshape(3, 4) + 2.5
        assert max_rel_error(
            lambda ts: T.tsum(T.mul(T.add(ts[0], ts[1]), T.sub(ts[0], ts[1]))),
            [x, y],
        ) < 1e-5
        assert max_rel_error(
            lambda ts: T.tsum(T.div(ts[0], ts[1])), [x, y]) < 1e-5
        assert max_rel_error(
            lambda ts: T.tsum(T.square(T.neg(ts[0]))), [x]) < 1e-5


def test_max_rel_error_fails_an_input_without_gradient():
    # an unused input fails although its numeric gradient is zero too, and
    # so does one read past the tape
    x, y = np.full((2, 2), 0.5), np.full(3, 0.5)
    assert max_rel_error(lambda ts: T.tsum(T.square(ts[0])), [x]) < 1e-5
    assert max_rel_error(lambda ts: T.tsum(T.square(ts[0])), [x, y]) == np.inf
    assert max_rel_error(
        lambda ts: T.tsum(T.mul(ts[0], ts[1].data.sum())), [x, y]) == np.inf


def test_nonlinearity_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(202, trial))
        x = r.gaussian(12).reshape(3, 4)
        # keep probes away from the relu kink and the log floor
        x = np.where(np.abs(x) < 0.05, 0.1, x)
        assert max_rel_error(lambda ts: T.tsum(T.relu(ts[0])), [x]) < 1e-5
        assert max_rel_error(lambda ts: T.tsum(T.exp(ts[0])), [x]) < 1e-5
        positive = [np.abs(x) + 0.2]
        assert max_rel_error(lambda ts: T.tsum(T.log(ts[0])), positive) < 1e-5
        assert max_rel_error(lambda ts: T.tsum(T.sqrt(ts[0])), positive) < 1e-5
        assert max_rel_error(lambda ts: T.tsum(T.sigmoid(ts[0])), [x]) < 1e-5


def test_reduction_and_shape_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(303, trial))
        x = r.gaussian(24).reshape(2, 3, 4)
        assert max_rel_error(
            lambda ts: T.tsum(T.square(T.tmean(ts[0], axes=(0, 2), keepdims=True))),
            [x],
        ) < 1e-5
        assert max_rel_error(lambda ts: T.square(T.tmean(ts[0])), [x]) < 1e-5


def test_matmul_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(404, trial))
        a = r.gaussian(6).reshape(2, 3)
        b = r.gaussian(12).reshape(3, 4)
        loss = lambda ts: T.tsum(T.square(T.matmul(ts[0], ts[1])))
        assert max_rel_error(loss, [a, b]) < 1e-5


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3, 4), (4, 5)), ((3, 3), (2, 3, 4)), ((3,), (3, 4)), ((2, 3), (3,))])
def test_matmul_rejects_operands_that_are_not_2d(a_shape, b_shape):
    # a batched product would need a broadcast-reducing backward
    with T.graph():
        with pytest.raises(ValueError, match="2-D"):
            T.matmul(T.Tensor(np.ones(a_shape), requires_grad=True),
                     T.Tensor(np.ones(b_shape)))
        assert T.tape_size() == 0


def test_conv_gradients_seeded():
    for trial in range(10):
        r = Rng(derive_seed(505, trial))
        x = r.gaussian(2 * 2 * 6 * 6).reshape(2, 2, 6, 6)
        w = r.gaussian(3 * 2 * 3 * 3).reshape(3, 2, 3, 3) * 0.5
        bias = r.gaussian(3)
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            assert max_rel_error(
                lambda ts: T.tsum(
                    T.square(T.conv2d(ts[0], ts[1], ts[2], stride=stride, padding=padding))
                ),
                [x, w, bias],
            ) < 1e-5


def test_conv_matches_direct_convolution():
    r = Rng(42)
    x = r.gaussian(1 * 2 * 5 * 5).reshape(1, 2, 5, 5)
    w = r.gaussian(3 * 2 * 3 * 3).reshape(3, 2, 3, 3)
    out = T.conv2d(T.Tensor(x), T.Tensor(w), stride=1, padding=0).data
    expect = np.zeros((1, 3, 3, 3))
    for o in range(3):
        for i in range(3):
            for j in range(3):
                expect[0, o, i, j] = np.sum(w[o] * x[0, :, i : i + 3, j : j + 3])
    assert np.abs(out - expect).max() < 1e-12


def _einsum_conv2d(x, w, b, stride, padding, g):
    """Reference conv: einsum over a 6-D sliding-window view.

    Returns the output and the gradients of sum(out * g) with respect to x,
    w and b (None without bias).
    """
    kh, kw = w.shape[2], w.shape[3]
    xp = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # [B,Cin,Ho,Wo,kh,kw]
    out = np.einsum("bcijuv,ocuv->boij", win, w, optimize=True)
    if b is not None:
        out = out + b[None, :, None, None]
    gw = np.einsum("bcijuv,boij->ocuv", win, g, optimize=True)
    gcol = np.einsum("boij,ocuv->bcijuv", g, w, optimize=True)
    gxp = np.zeros_like(xp)
    ho, wo = g.shape[2], g.shape[3]
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += \
                gcol[:, :, :, :, u, v]
    gx = gxp if padding == 0 else gxp[:, :, padding:-padding, padding:-padding]
    return out, gx, gw, None if b is None else g.sum(axis=(0, 2, 3))


# (batch, Cin, H, W, Cout, kernel, stride, padding, bias)
_CONV_CASES = [
    (22, 3, 32, 32, 4, 3, 1, 1, True),    # five chunks of 4 images, then 2
    (20, 16, 32, 32, 4, 3, 2, 1, True),   # six chunks of 3 images, then 2
    (20, 3, 32, 32, 4, 3, 1, 0, True),
    (20, 3, 31, 31, 4, 3, 2, 0, False),
    (6, 5, 9, 9, 3, 1, 1, 0, True),       # 1x1 kernel
    (6, 5, 9, 9, 3, 1, 2, 0, False),
    (6, 5, 9, 9, 3, 1, 1, 1, True),       # padding > k-1: col2im at stride 1
    (5, 3, 6, 11, 4, 3, 1, 1, True),      # H != W
    (5, 3, 12, 7, 4, 3, 2, 1, False),     # H != W at stride 2
    (5, 3, 9, 10, 4, 3, 2, 1, True),      # odd H at stride 2
    (4, 3, 1, 6, 2, 3, 1, 1, True),       # H = 1: a flat shift by a whole row
    (4, 3, 6, 1, 2, 3, 1, 1, False),      # W = 1: every column wraps
]


def _conv_case(trial, case):
    bsz, cin, h, w, cout, k, stride, padding, has_bias = case
    r = Rng(derive_seed(707, trial))
    x = r.gaussian(bsz * cin * h * w).reshape(bsz, cin, h, w)
    wt = r.gaussian(cout * cin * k * k).reshape(cout, cin, k, k)
    b = r.gaussian(cout) if has_bias else None
    return x, wt, b, stride, padding


def test_conv_chunks_span_short_last_chunk():
    bsz, cin, h, w, _, k, stride, padding, _ = _CONV_CASES[0]
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    chunk = T._COL_BLOCK_BYTES // (8 * cin * k * k * ho * wo)
    assert -(-bsz // chunk) >= 3 and bsz % chunk != 0


@pytest.mark.parametrize("case", _CONV_CASES)
def test_conv_matches_einsum_reference(case):
    x, w, b, stride, padding = _conv_case(0, case)
    tensors = [T.Tensor(a, requires_grad=True) for a in (x, w)]
    tb = None if b is None else T.Tensor(b, requires_grad=True)
    with T.graph():
        out = T.conv2d(tensors[0], tensors[1], tb, stride=stride,
                       padding=padding)
        g = Rng(9).gaussian(out.size).reshape(out.shape)
        T.backward(T.tsum(T.mul(out, g)))
    ref = _einsum_conv2d(x, w, b, stride, padding, g)
    got = (out.data, tensors[0].grad, tensors[1].grad,
           None if tb is None else tb.grad)
    for have, want in zip(got, ref):
        if want is None:
            assert have is None
            continue
        assert have.shape == want.shape
        scale = max(1.0, np.abs(want).max())
        assert np.abs(have - want).max() / scale < 1e-12


@pytest.mark.parametrize("case", _CONV_CASES)
def test_conv_input_gradient_path(case, monkeypatch):
    # stride 1 with padding <= k-1 correlates the output gradient through
    # the forward GEMM; every other conv scatters it back with col2im
    x, w, b, stride, padding = _conv_case(3, case)
    calls = []
    correlate = T._correlate
    monkeypatch.setattr(T, "_correlate", lambda *a, **kw:
                        calls.append(a[2]) or correlate(*a, **kw))
    tx = T.Tensor(x, requires_grad=True)
    with T.graph():
        T.backward(T.tsum(T.conv2d(tx, T.Tensor(w), b, stride=stride,
                                   padding=padding)))
    direct = stride == 1 and padding <= w.shape[2] - 1
    assert calls == ([stride, 1] if direct else [stride])


def test_conv_gradient_reaches_inputs_past_frozen_operand():
    x, w, b, stride, padding = _conv_case(2, _CONV_CASES[1])
    for x_grad, w_grad in ((True, False), (False, True)):
        tx = T.Tensor(x, requires_grad=x_grad)
        tw = T.Tensor(w, requires_grad=w_grad)
        with T.graph():
            out = T.conv2d(tx, tw, b, stride=stride, padding=padding)
            g = Rng(4).gaussian(out.size).reshape(out.shape)
            T.backward(T.tsum(T.mul(out, g)))
        _, gx, gw, _ = _einsum_conv2d(x, w, b, stride, padding, g)
        live, frozen, want = (tx, tw, gx) if x_grad else (tw, tx, gw)
        assert frozen.grad is None
        assert np.abs(live.grad - want).max() / np.abs(want).max() < 1e-12


@pytest.mark.parametrize("case", _CONV_CASES[:2])
def test_conv_output_does_not_depend_on_batch(case):
    x, w, b, stride, padding = _conv_case(1, case)
    conv = lambda imgs: T.conv2d(T.Tensor(imgs), T.Tensor(w), b,
                                 stride=stride, padding=padding).data
    full = conv(x)
    for lo, hi in ((0, 1), (3, 17), (11, 20)):
        part = conv(x[lo:hi])
        assert np.abs(part - full[lo:hi]).max() <= 1e-12 * np.abs(full).max()


def _conv_slots(op, arrays, g):
    """An op's output and the backward slots of its node for gradient g,
    every input taking a gradient."""
    with T.graph():
        out = op(*(T.Tensor(a, requires_grad=True) for a in arrays))
        slots = T._graph[-1].fn(g)
    return (out.data,) + tuple(slots)


def _assert_same_bits(got, want):
    for have, ref in zip(got, want):
        assert have.dtype == ref.dtype and have.shape == ref.shape
        assert np.array_equal(have, ref)


# Every conv the pipeline runs: (networks, Cin, Cout, H=W, kernel, stride,
# padding).
_PIPELINE_CONVS = [
    ("F.conv1 G.enc1", 3, 32, 32, 3, 2, 1),
    ("F.conv2 G.enc2", 32, 64, 16, 3, 2, 1),
    ("F.conv3", 64, 128, 8, 3, 2, 1),
    ("R.conv1 G.res", 64, 64, 8, 3, 1, 1),
    ("R.conv2", 64, 32, 8, 3, 1, 1),
    ("R.conv3", 32, 1, 8, 1, 1, 0),
    ("phi.conv1", 3, 16, 32, 3, 1, 1),
    ("phi.conv2", 16, 32, 32, 3, 2, 1),
    ("G.head", 16, 3, 32, 3, 1, 1),
]
# G's decoder convs: (layer, Cin, Cout, low-res H=W)
_PIPELINE_UPCONVS = [("G.dec1", 64, 32, 8), ("G.dec2", 32, 16, 16)]


def _pinned_arrays(seed, dtype, *shapes):
    r = Rng(seed)
    return [r.gaussian(int(np.prod(s))).reshape(s).astype(dtype)
            for s in shapes]


def test_pipeline_conv_pins_span_a_short_last_chunk():
    # at batch 16 the 64->64 res conv runs 7+7+2 images in float32 and
    # 3+3+3+3+3+1 in float64
    for itemsize in (4, 8):
        chunk = T._chunk_images(16, 64 * 9, 64, itemsize)
        assert chunk < 16 and 16 % chunk != 0


@pytest.mark.parametrize("batch", [16, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", _PIPELINE_CONVS, ids=lambda c: c[0])
def test_conv_matches_padded_im2col_bit_for_bit(case, dtype, batch):
    # reading x in place with clipped taps moves no bit of the output or of
    # either gradient against im2col over an explicitly padded copy
    _, cin, cout, hw, k, stride, padding = case
    ho = (hw + 2 * padding - k) // stride + 1
    x, w, g = _pinned_arrays(derive_seed(961, cin, cout, hw), dtype,
                             (batch, cin, hw, hw), (cout, cin, k, k),
                             (batch, cout, ho, ho))
    op = lambda tx, tw: T.conv2d(tx, tw, stride=stride, padding=padding)
    _assert_same_bits(_conv_slots(op, (x, w), g),
                      padded_conv2d(x, w, stride, padding, g))


@pytest.mark.parametrize("batch", [16, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", _PIPELINE_UPCONVS, ids=lambda c: c[0])
def test_upsample_conv2d_matches_padded_im2col_bit_for_bit(case, dtype,
                                                           batch):
    _, cin, cout, hw = case
    x, w, g = _pinned_arrays(derive_seed(962, cin, cout, hw), dtype,
                             (batch, cin, hw, hw), (cout, cin, 3, 3),
                             (batch, cout, 2 * hw, 2 * hw))
    _assert_same_bits(_conv_slots(T.upsample_conv2d, (x, w), g),
                      padded_upsample_conv2d(x, w, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", _CONV_CASES)
def test_conv_edge_shapes_match_padded_im2col_bit_for_bit(case, dtype):
    bsz, cin, h, w, cout, k, stride, padding, _ = case
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    x, wt, g = _pinned_arrays(derive_seed(963, *case[:8]), dtype,
                              (bsz, cin, h, w), (cout, cin, k, k),
                              (bsz, cout, ho, wo))
    op = lambda tx, tw: T.conv2d(tx, tw, stride=stride, padding=padding)
    _assert_same_bits(_conv_slots(op, (x, wt), g),
                      padded_conv2d(x, wt, stride, padding, g))


def test_pool_and_upsample_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(606, trial))
        x = r.gaussian(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        assert max_rel_error(
            lambda ts: T.tsum(T.square(T.upsample_nearest(ts[0], 3))), [x]
        ) < 1e-5


@pytest.mark.parametrize("factor", [2, 3])
def test_upsample_backward_matches_reshape_sum(factor):
    r = Rng(derive_seed(808, factor))
    x = T.Tensor(r.gaussian(4 * 6 * 5 * 7).reshape(4, 6, 5, 7),
                 requires_grad=True)
    with T.graph():
        out = T.upsample_nearest(x, factor)
        g = r.gaussian(out.size).reshape(out.shape)
        T.backward(T.tsum(T.mul(out, g)))
    want = g.reshape(4, 6, 5, factor, 7, factor).sum(axis=(3, 5))
    assert np.array_equal(x.grad, want)


# (batch, Cin, H, W, Cout)
_UPCONV_CASES = [
    (3, 4, 5, 7, 6),      # H != W
    (4, 3, 1, 5, 2),      # H = 1
    (2, 2, 6, 1, 3),      # W = 1
    (3, 2, 1, 1, 4),      # H = W = 1: every tap but one reads the padding
    (2, 3, 3, 6, 2),      # odd H
    (30, 32, 12, 12, 8),  # forward and both backward GEMMs in chunks
]


def _upconv_case(case):
    bsz, cin, h, w, cout = case
    r = Rng(derive_seed(919, *case))
    x = r.gaussian(bsz * cin * h * w).reshape(bsz, cin, h, w)
    wt = r.gaussian(cout * cin * 9).reshape(cout, cin, 3, 3)
    g = r.gaussian(bsz * cout * 4 * h * w).reshape(bsz, cout, 2 * h, 2 * w)
    return x, wt, g


def test_upconv_chunked_case_spans_chunks():
    bsz, cin, h, w, cout = _UPCONV_CASES[-1]
    phase = T._chunk_images(bsz, 4 * cin, h * w, 8)   # forward, weight grad
    grad_x = T._chunk_images(bsz, 16 * cout, h * w, 8)  # input grad
    assert -(-bsz // phase) >= 3 and -(-bsz // grad_x) >= 3


@pytest.mark.parametrize("case", _UPCONV_CASES)
def test_upsample_conv2d_edge_shapes_match_padded_im2col_bit_for_bit(case):
    x, w, g = (a.astype(np.float32) for a in _upconv_case(case))
    _assert_same_bits(_conv_slots(T.upsample_conv2d, (x, w), g),
                      padded_upsample_conv2d(x, w, g))


@pytest.mark.parametrize("case", _UPCONV_CASES)
def test_upsample_conv2d_matches_composed_reference(case):
    x, w, g = _upconv_case(case)
    tensors = [T.Tensor(a, requires_grad=True) for a in (x, w)]
    with T.graph():
        out = T.upsample_conv2d(*tensors)
        T.backward(T.tsum(T.mul(out, g)))
    got = (out.data, tensors[0].grad, tensors[1].grad)
    for have, want in zip(got, composed_upsample_conv2d(x, w, g)):
        assert have.shape == want.shape and have.dtype == np.float64
        assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin,hw,cout", [(64, 8, 32), (32, 16, 16)])
def test_upsample_conv2d_output_does_not_depend_on_batch(dtype, cin, hw,
                                                         cout):
    # the generator's two decoder shapes: an image's stylized output (and
    # so its score) must not depend on the batch it is scored in
    r = Rng(derive_seed(929, cin))
    x = r.gaussian(20 * cin * hw * hw).reshape(20, cin, hw, hw).astype(dtype)
    w = r.gaussian(cout * cin * 9).reshape(cout, cin, 3, 3).astype(dtype)
    up = lambda imgs: T.upsample_conv2d(T.Tensor(imgs), T.Tensor(w)).data
    full = up(x)
    assert full.dtype == dtype
    for lo, hi in ((0, 1), (3, 17), (11, 20)):
        assert np.array_equal(up(x[lo:hi]), full[lo:hi])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_phase_kernels_and_weight_fold_match_matmul_forms(dtype):
    # R_a·W·R_cᵀ by slice sums and R_aᵀ·gW·R_c by repeats, bit for bit
    rows = np.array([[[1, 0, 0], [0, 1, 1]],
                     [[1, 1, 0], [0, 0, 1]]]).astype(dtype)
    x, w, g = (a.astype(dtype) for a in _upconv_case(_UPCONV_CASES[0]))
    kernels = T._phase_kernels(w)
    assert [(a, c) for a, c, _ in kernels] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for a, c, k in kernels:
        assert k.dtype == dtype and np.array_equal(k, rows[a] @ w @ rows[c].T)
    tw = T.Tensor(w, requires_grad=True)
    with T.graph():
        T.backward(T.tsum(T.mul(T.upsample_conv2d(T.Tensor(x), tw), g)))
    want = None
    for a, c, k in kernels:
        gwk, _ = T._column_grads(g[:, :, a::2, c::2], x, k, 1, (1 - a, 1 - c),
                                 True, False)
        part = rows[a].T @ gwk @ rows[c]
        want = part if want is None else want + part
    assert tw.grad.dtype == dtype and np.array_equal(tw.grad, want)


def test_a_graph_keeps_neither_normalize_outputs_nor_add_operands():
    # relu's backward reads its own output and add's only shapes, so the
    # normalize output and the add operands go once the code drops them
    r = Rng(951)
    x = T.Tensor(r.gaussian(2 * 3 * 5 * 5).reshape(2, 3, 5, 5),
                 requires_grad=True)
    w, w2 = (T.Tensor(r.gaussian(4 * 3 * 3 * 3).reshape(4, 3, 3, 3),
                      requires_grad=True) for _ in range(2))
    gamma = T.Tensor(r.gaussian(4, mean=1.0), requires_grad=True)
    beta = T.Tensor(r.gaussian(4), requires_grad=True)
    with T.graph():
        c = T.conv2d(x, w, padding=1)
        mean, var = T.moments(c, (0, 2, 3))
        n = T.normalize(c, mean, var, gamma, beta, 1e-5)
        k = T.conv2d(x, w2, padding=1)
        y = T.relu(n)
        s = T.add(n, k)
        dropped = [weakref.ref(t.data) for t in (n, k)]
        del n, k
        assert all(ref() is None for ref in dropped)
        T.backward(T.tsum(T.mul(y, s)))
    assert all(t.grad is not None for t in (x, w, w2, gamma, beta))


def _routed(arrays, hold: bool):
    """Loss and leaf gradients of three conv/norm/relu blocks with skip adds
    over shared leaves. With ``hold`` every intermediate stays referenced;
    without it each is dropped at once and fresh tensors are made between
    the taped ops, so they can take the dropped tensors' ids."""
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    x, w, gamma, beta = leaves
    held = []
    with T.graph():
        h = x
        for _ in range(3):
            c = T.conv2d(h, w, padding=1)
            mean, var = T.moments(c, (0, 2, 3))
            n = T.normalize(c, mean, var, gamma, beta, 1e-5)
            if hold:
                held += [c, mean, var, n]
            del c, mean, var
            junk = [T.Tensor(np.zeros(3)) for _ in range(8)]
            h = T.add(T.relu(n), h)
            del n, junk
        loss = T.tsum(T.mul(h, h))
        T.backward(loss)
    return [loss.data] + [t.grad for t in leaves]


def test_gradients_are_routed_alike_when_intermediates_are_dropped():
    r = Rng(952)
    arrays = [r.gaussian(2 * 3 * 5 * 5).reshape(2, 3, 5, 5),
              r.gaussian(3 * 3 * 3 * 3).reshape(3, 3, 3, 3) * 0.3,
              r.gaussian(3, mean=1.0), r.gaussian(3)]
    for dtype in (np.float32, np.float64):
        arrays = [a.astype(dtype) for a in arrays]
        have, want = _routed(arrays, False), _routed(arrays, True)
        for a, b in zip(have, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_tensor_from_an_earlier_or_aborted_graph_is_a_leaf():
    # y, z and this graph's first product are each node 0 of their graph:
    # the graph serial in the key keeps them apart
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.graph():
        y = T.square(x)
    with pytest.raises(KeyError):
        with T.graph():
            z = T.mul(x, 3.0)
            raise KeyError("a step that fails halfway")
    with T.graph():
        T.backward(T.tsum(T.add(T.mul(y, 2.0), z)))
    assert np.array_equal(y.grad, [2.0, 2.0])
    assert np.array_equal(z.grad, [1.0, 1.0])
    assert x.grad is None


def test_tensors_made_in_the_graph_receive_no_grad():
    x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    frozen = T.Tensor([2.0, 2.0, 2.0])
    with T.graph():
        y = T.relu(T.mul(x, frozen))
        loss = T.tsum(T.square(y))
        T.backward(loss)
    assert np.array_equal(x.grad, [8.0, 0.0, 24.0])
    assert y.grad is None and loss.grad is None and frozen.grad is None


def test_upsample_conv2d_rejects_other_kernels():
    with pytest.raises(ValueError, match="3x3"):
        T.upsample_conv2d(T.Tensor(np.zeros((1, 2, 3, 3))),
                          T.Tensor(np.zeros((4, 2, 5, 5))))


@pytest.mark.parametrize("fused", [False, True])
def test_frozen_operands_get_no_gradient(fused):
    # an operand that cannot take a gradient gets None in its backward slot
    x, w, g = _upconv_case(_UPCONV_CASES[0])
    if fused:
        operands = (x, w)
        op = T.upsample_conv2d
        wants = composed_upsample_conv2d(x, w, g)[1:]
    else:
        x = x.repeat(2, axis=2).repeat(2, axis=3)
        b = Rng(939).gaussian(w.shape[0])
        operands = (x, w, b)
        op = lambda tx, tw, tb: T.conv2d(tx, tw, tb, stride=1, padding=1)
        wants = _einsum_conv2d(x, w, b, 1, 1, g)[1:]
    for k in range(len(operands)):
        live = [i == k for i in range(len(operands))]
        with T.graph():
            op(*(T.Tensor(a, requires_grad=f)
                 for a, f in zip(operands, live)))
            slots = T._graph[-1].fn(g)
        assert len(slots) == len(operands)
        for slot, want, on in zip(slots, wants, live):
            if on:
                assert np.abs(slot - want).max() <= 1e-12 * np.abs(want).max()
            else:
                assert slot is None


def _composed_normalize(x, mean, var, gamma, beta, eps):
    """The sub/add/sqrt/div/mul/add chain normalize replaces; gamma and beta
    are [1,C,1,1] leaves."""
    xhat = T.div(T.sub(x, mean), T.sqrt(T.add(var, eps)))
    return T.add(T.mul(xhat, gamma), beta)


@pytest.mark.parametrize("moment_batch", [1, 5])
def test_normalize_matches_composed_chain(moment_batch):
    r = Rng(derive_seed(909, moment_batch))
    x = r.gaussian(5 * 3 * 4 * 4, mean=0.5, std=2.0).reshape(5, 3, 4, 4)
    axes = (0, 2, 3) if moment_batch == 1 else (2, 3)
    mean = x.mean(axis=axes, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
    arrays = [x, mean, var, r.gaussian(3, mean=1.0), r.gaussian(3)]
    g = r.gaussian(x.size).reshape(x.shape)
    results = []
    for op, affine in ((_composed_normalize, (1, 3, 1, 1)),
                       (T.normalize, (3,))):
        leaves = arrays[:3] + [a.reshape(affine) for a in arrays[3:]]
        ts = [T.Tensor(a, requires_grad=True) for a in leaves]
        with T.graph():
            out = op(*ts, 1e-5)
            T.backward(T.tsum(T.mul(out, g)))
        assert [t.grad.shape for t in ts] == [a.shape for a in leaves]
        results.append((out.data, [t.grad.reshape(-1) for t in ts]))
    (want, want_grads), (have, have_grads) = results
    assert np.array_equal(have, want)
    for gh, gw in zip(have_grads, want_grads):
        assert np.abs(gh - gw).max() <= 1e-12 * np.abs(gw).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axes", [(0, 2, 3), (2, 3)])
def test_moments_variance_node_has_the_composed_chain_bits(dtype, axes):
    r = Rng(derive_seed(949, len(axes), np.dtype(dtype).itemsize))
    x = r.gaussian(5 * 3 * 4 * 4, mean=0.5, std=2.0).reshape(5, 3, 4, 4)
    shape = (1, 3, 1, 1) if len(axes) == 3 else (5, 3, 1, 1)
    gm, gv = (r.gaussian(3 * shape[0]).reshape(shape).astype(dtype)
              for _ in range(2))
    results = []
    for fused in (False, True):
        tx = T.Tensor(x.astype(dtype), requires_grad=True)
        with T.graph():
            if fused:
                mean, var = T.moments(tx, axes)
                kinds = [n.fn.__qualname__.split(".")[0] for n in T._graph]
            else:
                mean = T.tmean(tx, axes=axes, keepdims=True)
                var = T.tmean(T.square(T.sub(tx, mean)), axes=axes,
                              keepdims=True)
            T.backward(T.add(T.tsum(T.mul(mean, gm)),
                             T.tsum(T.mul(var, gv))))
        results.append((mean.data, var.data, tx.grad))
    assert kinds == ["tmean", "moments"]
    for have, want in zip(results[1], results[0]):
        assert have.dtype == dtype and np.array_equal(have, want)


def test_normalize_is_one_node_and_checks_moment_shapes():
    x = T.Tensor(np.arange(8.0).reshape(2, 1, 2, 2), requires_grad=True)
    mean = T.Tensor(np.full((1, 1, 1, 1), 3.5))
    var = T.Tensor(np.full((1, 1, 1, 1), 5.25))
    gamma, beta = T.Tensor(np.ones(1)), T.Tensor(np.zeros(1))
    with T.graph():
        out = T.normalize(x, mean, var, gamma, beta, 1e-5)
        assert T.tape_size() == 1
        T.backward(T.tsum(T.square(out)))
    assert x.grad is not None
    with pytest.raises(ValueError, match="moments"):
        T.normalize(x, T.Tensor(np.zeros(1)), T.Tensor(np.ones(1)), gamma,
                    beta, 1e-5)


def test_softmax_rows_sum_to_one_and_match_shifted_form():
    r = Rng(7)
    x = r.gaussian(20).reshape(4, 5) * 30.0  # large logits stay stable
    s = T.softmax(T.Tensor(x), axis=1).data
    assert np.all(np.isfinite(s))
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    assert np.allclose(s, e / e.sum(axis=1, keepdims=True), atol=1e-12)
    ls = T.log_softmax(T.Tensor(x), axis=1).data
    assert np.allclose(ls, np.log(s), atol=1e-9)


def test_softmax_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(707, trial))
        x = r.gaussian(12).reshape(3, 4)
        assert max_rel_error(
            lambda ts: T.tsum(T.square(T.softmax(ts[0], axis=1))), [x]
        ) < 1e-5
        assert max_rel_error(
            lambda ts: T.tsum(T.mul(T.log_softmax(ts[0], axis=1), ts[0])), [x]
        ) < 1e-5


def test_upsample_forward_blocks():
    x = T.Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
    y = T.upsample_nearest(x, 2).data
    assert y.shape == (1, 1, 4, 4)
    assert np.array_equal(y[0, 0, :2, :2], np.zeros((2, 2)))
    assert np.array_equal(y[0, 0, 2:, 2:], np.full((2, 2), 3.0))


def test_backward_detached_loss_raises():
    with T.graph():
        with pytest.raises(ValueError):
            T.backward(T.Tensor(1.0))


def test_only_tensor_names_the_graph_internals():
    # other modules reach the tape only through graph(), backward,
    # tape_size and _record; the pre-graph controls are gone
    internals = re.compile(r"\b(_graph|_Node|_entry|_serial|_key|_tape|"
                           r"clear_tape|no_grad|_grad_enabled)\b")
    package = pathlib.Path(T.__file__).parent
    named = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(package.glob("*.py"))
             if path.name != "tensor.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if internals.search(line)]
    assert named == []
