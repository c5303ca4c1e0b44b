"""Layer behavior: normalization modes, running-average algebra, Adam."""

import numpy as np
import pytest

import gdafas.tensor as T
from gdafas.gradcheck import max_rel_error
from gdafas.layers import Adam, BatchNorm2d, Conv2d, Dense, InstanceNorm2d
from gdafas.rng import Rng, derive_seed


def test_batchnorm_train_output_is_normalized():
    r = Rng(11)
    x = T.Tensor(3.0 * r.gaussian(8 * 4 * 6 * 6).reshape(8, 4, 6, 6) + 5.0)
    bn = BatchNorm2d(4)
    out = bn.forward(x, mode="train")[0].data
    assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-6
    assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-5


def test_batchnorm_uses_biased_variance():
    x = T.Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(4, 1, 1, 1))
    bn = BatchNorm2d(1)
    _, (mean, var) = bn.forward(x, mode="train")
    # N=4 batch: mean 2.5, biased variance 1.25 (unbiased would be 5/3)
    assert np.isclose(mean.data[0, 0, 0, 0], 2.5)
    assert np.isclose(var.data[0, 0, 0, 0], 1.25)
    assert np.isclose(bn.running_mean[0], 0.9 * 0.0 + 0.1 * 2.5)
    assert np.isclose(bn.running_var[0], 0.9 * 1.0 + 0.1 * 1.25)


def test_batchnorm_running_average_matches_closed_form():
    r = Rng(21)
    bn = BatchNorm2d(3, momentum=0.1)
    batch_means = []
    steps = 1000
    for i in range(steps):
        x = T.Tensor(
            r.gaussian(4 * 3 * 2 * 2, mean=0.3, std=1.5).reshape(4, 3, 2, 2)
        )
        bn.forward(x, mode="train")
        batch_means.append(x.data.mean(axis=(0, 2, 3)))
    assert bn.num_updates == steps
    m = 0.1
    weights = m * (1.0 - m) ** np.arange(steps - 1, -1, -1)
    closed = (1.0 - m) ** steps * np.zeros(3) \
        + (weights[:, None] * np.array(batch_means)).sum(axis=0)
    assert np.abs(bn.running_mean - closed).max() < 1e-12


def test_batchnorm_eval_before_update_raises():
    bn = BatchNorm2d(2)
    x = T.Tensor(np.zeros((2, 2, 2, 2)))
    with pytest.raises(RuntimeError):
        bn.forward(x, mode="eval")
    with pytest.raises(ValueError):
        bn.forward(x, mode="test")


def test_batchnorm_stats_mode_leaves_running_state_alone():
    r = Rng(31)
    bn = BatchNorm2d(2)
    x = T.Tensor(r.gaussian(4 * 2 * 3 * 3).reshape(4, 2, 3, 3))
    bn.forward(x, mode="train")
    mean_after_train = bn.running_mean.copy()
    var_after_train = bn.running_var.copy()
    y = T.Tensor(r.gaussian(4 * 2 * 3 * 3, mean=2.0).reshape(4, 2, 3, 3))
    _, (mean, var) = bn.forward(y, mode="stats")
    assert np.array_equal(bn.running_mean, mean_after_train)
    assert np.array_equal(bn.running_var, var_after_train)
    assert bn.num_updates == 1
    assert mean.shape == var.shape == (1, 2, 1, 1)
    assert np.allclose(mean.data,
                       y.data.mean(axis=(0, 2, 3), keepdims=True))


def test_batchnorm_eval_returns_its_input_untaped():
    r = Rng(41)
    bn = BatchNorm2d(2)
    bn.forward(
        T.Tensor(r.gaussian(4 * 2 * 3 * 3).reshape(4, 2, 3, 3)), mode="train"
    )
    state = {k: v.copy() for k, v in (("mean", bn.running_mean),
                                      ("var", bn.running_var))}
    x = T.Tensor(r.gaussian(4 * 2 * 3 * 3, mean=1.0).reshape(4, 2, 3, 3)
                 .astype(T.COMPUTE), requires_grad=True)
    before = x.data.copy()
    with T.graph():
        out, seen = bn.forward(x, mode="eval")
        # taped from x through the running statistics only: a loss on the
        # output reaches x, nothing reaches the returned array
        T.backward(T.tmean(out))
    # the array it normalized, not a Tensor and not a moment: an analysis
    # takes the moments it wants, every other caller takes none
    assert type(seen) is np.ndarray and seen is x.data
    assert np.array_equal(seen, before) and seen.dtype == T.COMPUTE
    assert np.array_equal(bn.running_mean, state["mean"])
    assert np.array_equal(bn.running_var, state["var"])
    assert bn.num_updates == 1
    expect = (before - bn.running_mean.reshape(1, 2, 1, 1)) / np.sqrt(
        bn.running_var.reshape(1, 2, 1, 1) + bn.eps
    )
    assert np.allclose(out.data, expect, atol=1e-6)
    assert x.grad is not None and x.grad.shape == x.shape
    assert np.array_equal(seen, before)


def test_batchnorm_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(515, trial))
        x = r.gaussian(4 * 2 * 3 * 3).reshape(4, 2, 3, 3)
        gamma = r.gaussian(2, mean=1.0, std=0.2)
        beta = r.gaussian(2, std=0.2)
        # fixed weighting breaks the invariances of normalized outputs,
        # which would otherwise leave finite differences all cancellation
        mask = T.Tensor(r.gaussian(4 * 2 * 3 * 3).reshape(4, 2, 3, 3))

        def build(ts):
            bn = BatchNorm2d(2)
            bn.gamma, bn.beta = ts[1], ts[2]
            out, _ = bn.forward(ts[0], mode="stats")
            return T.tsum(T.square(T.mul(out, mask)))

        assert max_rel_error(build, [x, gamma, beta]) < 1e-5


def test_batchnorm_batch_stats_are_differentiable():
    # losses defined on the returned batch moments must reach the input
    r = Rng(61)
    x = T.Tensor(r.gaussian(4 * 2 * 3 * 3).reshape(4, 2, 3, 3),
                 requires_grad=True)
    bn = BatchNorm2d(2)
    with T.graph():
        _, (mean, var) = bn.forward(x, mode="stats")
        T.backward(T.add(T.tsum(T.square(mean)), T.tsum(T.square(var))))
    assert x.grad is not None and np.abs(x.grad).max() > 0


def test_instance_norm_normalizes_each_sample():
    r = Rng(71)
    x = r.gaussian(2 * 3 * 5 * 5).reshape(2, 3, 5, 5)
    x[0] = x[0] * 4.0 + 10.0  # one sample badly scaled
    layer = InstanceNorm2d(3)
    out = layer.forward(T.Tensor(x)).data
    assert np.abs(out.mean(axis=(2, 3))).max() < 1e-6
    assert np.abs(out.var(axis=(2, 3)) - 1.0).max() < 1e-4


def test_instance_norm_gradients_seeded():
    for trial in range(10):
        r = Rng(derive_seed(616, trial))
        x = r.gaussian(2 * 2 * 4 * 4).reshape(2, 2, 4, 4)
        mask = T.Tensor(r.gaussian(2 * 2 * 4 * 4).reshape(2, 2, 4, 4))

        def build(ts):
            layer = InstanceNorm2d(2)
            layer.gamma, layer.beta = ts[1], ts[2]
            return T.tsum(T.square(T.mul(layer.forward(ts[0]), mask)))

        assert max_rel_error(build, [x, r.gaussian(2, mean=1.0, std=0.1),
                                     r.gaussian(2, std=0.1)]) < 1e-5


def _composed_norm_forward(layer, x, mode, gamma, beta):
    """The normalization layers' forward as a chain of elementwise ops, with
    the affine parameters as [1,C,1,1] leaves."""
    c = x.shape[1]
    if mode == "eval":
        mean = T.Tensor(layer.running_mean.reshape(1, c, 1, 1))
        var = T.Tensor(layer.running_var.reshape(1, c, 1, 1))
    else:
        axes = (2, 3) if mode == "instance" else (0, 2, 3)
        mean = T.tmean(x, axes=axes, keepdims=True)
        var = T.tmean(T.square(T.sub(x, mean)), axes=axes, keepdims=True)
    xhat = T.div(T.sub(x, mean), T.sqrt(T.add(var, layer.eps)))
    return T.add(T.mul(xhat, gamma), beta)


@pytest.mark.parametrize("mode", ["train", "stats", "eval", "instance"])
def test_norm_layers_match_composed_chain(mode):
    r = Rng(derive_seed(717, mode))
    x = r.gaussian(6 * 3 * 5 * 5, mean=1.0, std=3.0).reshape(6, 3, 5, 5)
    g = r.gaussian(x.size).reshape(x.shape)
    gamma, beta = r.gaussian(3, mean=1.0, std=0.3), r.gaussian(3, std=0.3)
    results = []
    for fused in (False, True):
        if mode == "instance":
            layer = InstanceNorm2d(3)
        else:
            layer = BatchNorm2d(3)
            layer.forward(T.Tensor(x[::-1] * 0.5 + 1.0), mode="train")
        shape = (3,) if fused else (1, 3, 1, 1)
        tg = T.Tensor(gamma.reshape(shape), requires_grad=True)
        tb = T.Tensor(beta.reshape(shape), requires_grad=True)
        layer.gamma, layer.beta = tg, tb
        tx = T.Tensor(x, requires_grad=True)
        with T.graph():
            if not fused:
                out = _composed_norm_forward(layer, tx, mode, tg, tb)
            elif mode == "instance":
                out = layer.forward(tx)
            else:
                out, _ = layer.forward(tx, mode=mode)
            T.backward(T.tsum(T.mul(out, g)))
        grads = [tx.grad, tg.grad.reshape(3), tb.grad.reshape(3)]
        results.append((out.data, grads))
    (want, want_grads), (have, have_grads) = results
    assert np.array_equal(have, want)
    for gh, gw in zip(have_grads, want_grads):
        assert np.abs(gh - gw).max() <= 1e-12 * np.abs(gw).max()


def test_conv_and_dense_shapes():
    r = Rng(81)
    conv = Conv2d(3, 8, kernel=3, stride=2, padding=1, rng=r)
    out = conv.forward(T.Tensor(np.zeros((2, 3, 32, 32))))
    assert out.shape == (2, 8, 16, 16)
    dense = Dense(8, 2, rng=r)
    out2 = dense.forward(T.Tensor(np.zeros((5, 8))))
    assert out2.shape == (5, 2)
    assert conv.STATE == dense.STATE == ("weight", "bias")


def test_conv_without_bias_holds_no_bias():
    conv = Conv2d(3, 4, kernel=3, padding=1, bias=False, rng=Rng(82))
    assert conv.bias is None and conv.STATE == ("weight",)
    assert Conv2d.STATE == ("weight", "bias")  # the class default is intact
    x = T.Tensor(Rng(83).gaussian(2 * 3 * 5 * 5).reshape(2, 3, 5, 5))
    want = T.conv2d(x, conv.weight, T.Tensor(np.zeros(4)), padding=1)
    assert np.array_equal(conv.forward(x).data, want.data)


def test_adam_first_step_is_signed_learning_rate():
    p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    p.grad = np.array([0.5, -3.0])
    opt.step()
    # with bias correction the first update is lr * g / (|g| + eps)
    assert np.allclose(p.data, [1.0 - 0.01, -2.0 + 0.01], atol=1e-9)


def test_adam_skips_frozen_params():
    frozen = T.Tensor(np.ones(3), requires_grad=False)
    live = T.Tensor(np.ones(3), requires_grad=True)
    opt = Adam([frozen, live], lr=0.1)
    assert opt.params == [live]
    frozen.grad = np.ones(3)
    live.grad = np.ones(3)
    before = frozen.data.copy()
    opt.step()
    assert np.array_equal(frozen.data, before)
    assert not np.array_equal(live.data, np.ones(3))


def test_adam_minimizes_quadratic():
    r = Rng(91)
    target = r.gaussian(4)
    p = T.Tensor(np.zeros(4), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        with T.graph():
            T.backward(T.tsum(T.square(T.sub(p, T.Tensor(target)))))
        opt.step()
    assert np.abs(p.data - target).max() < 1e-2
