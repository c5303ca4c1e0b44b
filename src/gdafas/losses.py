"""Adaptation objectives and the stage-1 supervised losses.

The adaptation total is

    total = stat + per + lambda_ent * (ent1 + ent2) + lambda_ph * ph

where ``stat`` aligns batch-norm batch statistics with the frozen running
statistics, ``per`` is a feature-space content term, ``ent1``/``ent2`` are
prediction entropies of the classifier and the depth head, and ``ph`` is the
spectrum phase-alignment term from :mod:`gdafas.spectrum`.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T

_LOG_EPS = 1e-8
_VAR_EPS = 1e-12


@dataclass
class LossWeights:
    lambda_ent: float
    lambda_ph: float


def _l2_norm(diff: T.Tensor) -> T.Tensor:
    return T.sqrt(T.tsum(T.square(diff)))


def stat_consistency_loss(batch_stats, stored_stats) -> T.Tensor:
    """Mean per-layer distance between batch and stored channel statistics.

    Both arguments are aligned lists of (mean, variance) pairs, one entry per
    batch-norm layer; batch entries are tensors so the gradient reaches the
    generator, stored entries are plain arrays of the same size. Variances
    are compared as standard deviations sqrt(var + 1e-12) on both sides.
    """
    if len(batch_stats) != len(stored_stats):
        raise ValueError(
            f"layer count mismatch: {len(batch_stats)} batch vs "
            f"{len(stored_stats)} stored"
        )
    terms = []
    for (b_mean, b_var), (s_mean, s_var) in zip(batch_stats, stored_stats):
        b_std = T.sqrt(T.add(b_var, _VAR_EPS))
        # stored [C] entries take the batch entries' shape ([1,C,1,1] from BN)
        s_mean = np.asarray(s_mean).reshape(b_mean.shape)
        s_std = np.sqrt(np.asarray(s_var) + _VAR_EPS).reshape(b_var.shape)
        terms.append(T.add(_l2_norm(T.sub(b_mean, s_mean)),
                           _l2_norm(T.sub(b_std, s_std))))
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return T.div(total, float(len(terms)))


def mse_loss(pred: T.Tensor, target) -> T.Tensor:
    """Mean squared error over every element: the perceptual term on phi's
    features and the stage-1 depth regression."""
    target = T.as_tensor(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return T.tmean(T.square(T.sub(pred, target)))


def entropy_classifier(p: T.Tensor) -> T.Tensor:
    """Batch mean Shannon entropy of softmax rows, log guarded by 1e-8."""
    plogp = T.mul(p, T.log(T.add(p, _LOG_EPS)))
    return T.neg(T.tmean(T.tsum(plogp, axes=1)))


def entropy_depth(depth_logits: T.Tensor) -> T.Tensor:
    """Mean per-pixel binary entropy of the sigmoid liveness map."""
    r = T.sigmoid(depth_logits)
    one_minus = T.sub(1.0, r)
    ent = T.neg(T.add(T.mul(r, T.log(T.add(r, _LOG_EPS))),
                      T.mul(one_minus, T.log(T.add(one_minus, _LOG_EPS)))))
    return T.tmean(ent)


def total_loss(stat, per, ent1, ent2, ph, weights: LossWeights) -> T.Tensor:
    """Weighted sum of the adaptation components (tensors or plain floats)."""
    ent = T.add(T.as_tensor(ent1), T.as_tensor(ent2))
    out = T.add(T.as_tensor(stat), T.as_tensor(per))
    out = T.add(out, T.mul(ent, weights.lambda_ent))
    return T.add(out, T.mul(T.as_tensor(ph), weights.lambda_ph))


def cross_entropy_loss(logits: T.Tensor, labels) -> T.Tensor:
    """Softmax cross-entropy, mean over the batch; integer labels."""
    labels = np.asarray(labels)
    b, c = logits.shape
    onehot = np.zeros((b, c), logits.data.dtype)
    onehot[np.arange(b), labels] = 1.0
    picked = T.tsum(T.mul(T.log_softmax(logits, axis=1), T.Tensor(onehot)),
                    axes=1)
    return T.neg(T.tmean(picked))
