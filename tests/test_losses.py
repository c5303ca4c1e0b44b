"""Objective functions: pinned values, invariants, gradient checks."""

import numpy as np
import pytest

import gdafas.tensor as T
from gdafas.gradcheck import max_rel_error
from gdafas.losses import (
    LossWeights,
    cross_entropy_loss,
    entropy_classifier,
    entropy_depth,
    mse_loss,
    stat_consistency_loss,
    total_loss,
)
from gdafas.rng import Rng, derive_seed


def _stat_pairs(means, variances):
    return [(T.Tensor(m), T.Tensor(v)) for m, v in zip(means, variances)]


def test_stat_loss_identical_statistics_is_zero():
    batch = _stat_pairs([np.array([1.0, -2.0])], [np.array([0.5, 3.0])])
    stored = [(np.array([1.0, -2.0]), np.array([0.5, 3.0]))]
    assert stat_consistency_loss(batch, stored).item() == 0.0


def test_stat_loss_three_four_five():
    # mean diff (3, -4) has norm 5; std diff zero
    batch = _stat_pairs([np.array([3.0, -4.0])], [np.array([1.0, 1.0])])
    stored = [(np.array([0.0, 0.0]), np.array([1.0, 1.0]))]
    assert abs(stat_consistency_loss(batch, stored).item() - 5.0) < 1e-12


def test_stat_loss_averages_over_layers():
    batch = _stat_pairs(
        [np.array([2.0, 0.0]), np.array([4.0, 0.0])],
        [np.array([1.0, 1.0]), np.array([1.0, 1.0])],
    )
    stored = [
        (np.array([0.0, 0.0]), np.array([1.0, 1.0])),
        (np.array([0.0, 0.0]), np.array([1.0, 1.0])),
    ]
    assert abs(stat_consistency_loss(batch, stored).item() - 3.0) < 1e-12


def test_stat_loss_compares_standard_deviations():
    batch = _stat_pairs([np.array([0.0])], [np.array([9.0])])
    stored = [(np.array([0.0]), np.array([4.0]))]
    # std diff is 3 - 2 = 1 (up to the 1e-12 guard inside each sqrt)
    assert abs(stat_consistency_loss(batch, stored).item() - 1.0) < 1e-9


def test_stat_loss_layer_count_mismatch():
    batch = _stat_pairs([np.zeros(2)], [np.ones(2)])
    with pytest.raises(ValueError):
        stat_consistency_loss(batch, [])


def test_stat_loss_positive_when_any_layer_differs():
    batch = _stat_pairs(
        [np.zeros(2), np.array([0.1, 0.0])], [np.ones(2), np.ones(2)]
    )
    stored = [(np.zeros(2), np.ones(2)), (np.zeros(2), np.ones(2))]
    assert stat_consistency_loss(batch, stored).item() > 0.0


def test_stat_loss_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(1001, trial))
        means = [r.gaussian(3), r.gaussian(4)]
        variances = [np.abs(r.gaussian(3)) + 0.3, np.abs(r.gaussian(4)) + 0.3]
        stored = [
            (r.gaussian(3), np.abs(r.gaussian(3)) + 0.3),
            (r.gaussian(4), np.abs(r.gaussian(4)) + 0.3),
        ]

        def build(ts):
            batch = [(ts[0], ts[1]), (ts[2], ts[3])]
            return stat_consistency_loss(batch, stored)

        arrays = [means[0], variances[0], means[1], variances[1]]
        assert max_rel_error(build, arrays) < 1e-5


def test_mse_loss_values_and_shape_check():
    for shape in [(2, 3, 4, 4), (2, 1, 3, 3)]:  # phi features, depth maps
        same = np.ones(shape)
        assert mse_loss(T.Tensor(same), same).item() == 0.0
    a = T.Tensor(np.full((1, 1, 1, 1), 3.0))
    b = np.full((1, 1, 1, 1), 1.0)
    assert abs(mse_loss(a, b).item() - 4.0) < 1e-12
    with pytest.raises(ValueError):
        mse_loss(T.Tensor(np.zeros((1, 2, 3, 3))), np.zeros((1, 2, 3, 4)))
    with pytest.raises(ValueError):
        mse_loss(T.Tensor(np.zeros((1, 1, 2, 2))), np.zeros((1, 1, 3, 3)))


def test_perceptual_loss_gradients_seeded():
    # mse_loss on phi-feature-shaped inputs, as the perceptual term uses it
    for trial in range(20):
        r = Rng(derive_seed(1002, trial))
        gen = r.gaussian(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        tgt = r.gaussian(2 * 3 * 4 * 4).reshape(2, 3, 4, 4)
        assert max_rel_error(lambda ts: mse_loss(ts[0], tgt), [gen]) < 1e-5


def test_depth_regression_pinned_values_and_gradient():
    # mse_loss on depth-map-shaped inputs, as the depth regression uses it
    same = np.ones((2, 1, 3, 3))
    assert mse_loss(T.Tensor(same), same).item() == 0.0
    with pytest.raises(ValueError):
        mse_loss(T.Tensor(np.zeros((1, 1, 2, 2))), np.zeros((1, 1, 3, 3)))
    for trial in range(10):
        r = Rng(derive_seed(1005, trial))
        pred = r.gaussian(8).reshape(2, 1, 2, 2)
        tgt = r.gaussian(8).reshape(2, 1, 2, 2)
        got = mse_loss(T.Tensor(pred), tgt).item()
        assert abs(got - np.mean((pred - tgt) ** 2)) < 1e-12
        assert max_rel_error(lambda ts: mse_loss(ts[0], tgt), [pred]) < 1e-5


def test_entropy_classifier_pinned_values():
    half = T.Tensor(np.array([[0.5, 0.5]]))
    # the 1e-8 log guard shifts the exact ln 2 by ~2e-8
    assert abs(entropy_classifier(half).item() - np.log(2.0)) < 1e-6
    onehot = T.Tensor(np.array([[1.0, 0.0]]))
    assert abs(entropy_classifier(onehot).item()) < 1e-6
    # batch mean over two rows
    both = T.Tensor(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert abs(entropy_classifier(both).item() - 0.5 * np.log(2.0)) < 1e-6


def test_entropy_minimization_drives_confidence_up():
    r = Rng(123)
    logits = T.Tensor(0.1 * r.gaussian(8).reshape(4, 2), requires_grad=True)
    values = []
    for _ in range(100):
        with T.graph():
            ent = entropy_classifier(T.softmax(logits, axis=1))
            values.append(ent.item())
            T.backward(ent)
        logits.data = logits.data - 0.5 * logits.grad
        logits.grad = None
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    final = T.softmax(logits, axis=1).data.max(axis=1)
    assert np.all(final > 0.9)


def test_entropy_depth_pinned_values():
    zeros = T.Tensor(np.zeros((2, 1, 3, 3)))
    assert abs(entropy_depth(zeros).item() - np.log(2.0)) < 1e-6
    saturated = T.Tensor(np.full((1, 1, 2, 2), 20.0))
    assert abs(entropy_depth(saturated).item()) < 1e-6
    negative = T.Tensor(np.full((1, 1, 2, 2), -20.0))
    assert abs(entropy_depth(negative).item()) < 1e-6


def test_entropy_gradients_seeded():
    for trial in range(20):
        r = Rng(derive_seed(1003, trial))
        logits = r.gaussian(8).reshape(4, 2)
        assert max_rel_error(
            lambda ts: entropy_classifier(T.softmax(ts[0], axis=1)), [logits]
        ) < 1e-5
        depth = r.gaussian(1 * 1 * 3 * 3).reshape(1, 1, 3, 3)
        assert max_rel_error(lambda ts: entropy_depth(ts[0]), [depth]) < 1e-5


def test_entropy_gradient_vanishes_at_one_hot():
    logits = T.Tensor(np.array([[12.0, -12.0]]), requires_grad=True)
    with T.graph():
        T.backward(entropy_classifier(T.softmax(logits, axis=1)))
    assert np.abs(logits.grad).max() < 1e-3


def test_total_loss_pinned_arithmetic():
    w = LossWeights(0.01, 0.01)
    out = total_loss(1.0, 2.0, 3.0, 0.0, 4.0, w)
    assert abs(out.item() - 3.07) < 1e-12
    assert total_loss(0.0, 0.0, 0.0, 0.0, 0.0, w).item() == 0.0
    off = LossWeights(0.0, 0.0)
    assert abs(total_loss(1.5, 2.5, 9.0, 9.0, 9.0, off).item() - 4.0) < 1e-12


def test_cross_entropy_pinned_values():
    equal = T.Tensor(np.zeros((3, 2)))
    assert abs(cross_entropy_loss(equal, [0, 1, 0]).item() - np.log(2.0)) < 1e-12
    confident = T.Tensor(np.array([[10.0, -10.0]]))
    assert cross_entropy_loss(confident, [0]).item() < 1e-8


def test_cross_entropy_matches_direct_formula():
    for trial in range(20):
        r = Rng(derive_seed(1004, trial))
        logits = r.gaussian(10).reshape(5, 2)
        labels = (r.uniform(5) > 0.5).astype(int)
        got = cross_entropy_loss(T.Tensor(logits), labels).item()
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        expect = -np.mean(np.log(p[np.arange(5), labels]))
        assert abs(got - expect) < 1e-9
        assert max_rel_error(
            lambda ts: cross_entropy_loss(ts[0], labels), [logits]) < 1e-5

