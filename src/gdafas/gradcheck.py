"""Finite-difference audit of every backward rule and adaptation objective.

Each registered check builds seeded random inputs (nudged away from kinks
such as relu corners), runs one backward pass, and compares every input
gradient against central differences. A deliberate sign-flip fault can be
injected to prove the harness actually detects wrong gradients.
"""

from dataclasses import dataclass

import numpy as np

from . import losses as L
from . import spectrum as S
from . import tensor as T
from .data import InputError
from .rng import Rng, derive_seed

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    trials: int
    max_rel_error: float
    passed: bool


def finite_difference(f, arrays, h: float = 1e-6):
    """Central-difference gradients of scalar f(list of arrays) per array."""
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=np.float64)
        flat = g.reshape(-1)
        for i in range(base.size):
            probe = [a.copy() for a in arrays]
            probe[k].reshape(-1)[i] += h
            hi = f(probe)
            probe[k].reshape(-1)[i] -= 2.0 * h
            lo = f(probe)
            flat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(build, arrays) -> float:
    """Worst relative gradient error of scalar build(tensors) over inputs;
    an input that receives no gradient counts as an infinite error."""
    tensors = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with T.graph():
        T.backward(build(tensors))
    if any(t.grad is None for t in tensors):
        return float("inf")
    numeric = finite_difference(
        lambda arrs: build([T.Tensor(a) for a in arrs]).item(), arrays
    )
    worst = 0.0
    for t, num in zip(tensors, numeric):
        scale = max(np.abs(num).max(), 1e-8)
        worst = max(worst, float(np.abs(t.grad - num).max() / scale))
    return worst


def _off_kinks(x: np.ndarray, gap: float = 0.05) -> np.ndarray:
    """Push values away from zero so relu/sign kinks stay FD-safe."""
    return np.where(np.abs(x) < gap, gap * 2.0, x)


def _u(rng: Rng, shape, low=-1.0, high=1.0) -> np.ndarray:
    return rng.uniform(int(np.prod(shape)), low, high).reshape(shape)


# --- tensor operations -------------------------------------------------------


def _check_add(rng):
    return (lambda ts: T.tsum(T.add(ts[0], ts[1])),
            [_u(rng, (3, 4)), _u(rng, (1, 4))])


def _check_sub(rng):
    return (lambda ts: T.tsum(T.square(T.sub(ts[0], ts[1]))),
            [_u(rng, (3, 4)), _u(rng, (3, 1))])


def _check_mul(rng):
    return (lambda ts: T.tsum(T.mul(ts[0], ts[1])),
            [_u(rng, (2, 3, 4)), _u(rng, (3, 4))])


def _check_div(rng):
    num = _u(rng, (3, 4))
    den = _off_kinks(_u(rng, (3, 4)), 0.3)
    return lambda ts: T.tsum(T.div(ts[0], ts[1])), [num, den]


def _check_neg(rng):
    return lambda ts: T.tsum(T.neg(T.square(ts[0]))), [_u(rng, (5,))]


def _check_square(rng):
    return lambda ts: T.tsum(T.square(ts[0])), [_u(rng, (2, 5))]


def _check_relu(rng):
    return (lambda ts: T.tsum(T.relu(ts[0])),
            [_off_kinks(_u(rng, (4, 4)))])


def _check_exp(rng):
    return lambda ts: T.tsum(T.exp(ts[0])), [_u(rng, (3, 3))]


def _check_log(rng):
    return lambda ts: T.tsum(T.log(ts[0])), [_u(rng, (3, 3), 0.2, 2.0)]


def _check_sqrt(rng):
    return lambda ts: T.tsum(T.sqrt(ts[0])), [_u(rng, (3, 3), 0.2, 2.0)]


def _check_sigmoid(rng):
    return lambda ts: T.tsum(T.sigmoid(ts[0])), [_u(rng, (3, 4), -3.0, 3.0)]


def _check_tsum(rng):
    return (lambda ts: T.tsum(T.square(T.tsum(ts[0], axes=(1,),
                                              keepdims=True))),
            [_u(rng, (3, 4, 2))])


def _check_tmean(rng):
    return (lambda ts: T.tsum(T.square(T.tmean(ts[0], axes=(0, 2)))),
            [_u(rng, (3, 4, 2))])


def _check_matmul(rng):
    return (lambda ts: T.tsum(T.square(T.matmul(ts[0], ts[1]))),
            [_u(rng, (3, 4)), _u(rng, (4, 2))])


def _check_conv2d(rng):
    x = _u(rng, (2, 2, 5, 5))
    w = _u(rng, (3, 2, 3, 3))
    b = _u(rng, (3,))
    return (lambda ts: T.tsum(T.square(
        T.conv2d(ts[0], ts[1], ts[2], stride=1, padding=1))), [x, w, b])


def _check_conv2d_strided(rng):
    x = _u(rng, (1, 2, 6, 6))
    w = _u(rng, (2, 2, 3, 3))
    b = _u(rng, (2,))
    return (lambda ts: T.tsum(T.square(
        T.conv2d(ts[0], ts[1], ts[2], stride=2, padding=1))), [x, w, b])


def _check_upsample_conv2d(rng):
    x = _u(rng, (2, 2, 3, 4))
    w = _u(rng, (3, 2, 3, 3))
    return (lambda ts: T.tsum(T.square(T.upsample_conv2d(ts[0], ts[1]))),
            [x, w])


def _check_upsample(rng):
    return (lambda ts: T.tsum(T.square(T.upsample_nearest(ts[0], 2))),
            [_u(rng, (1, 2, 3, 3))])


def _normalize_case(moment_batch):
    """x [3,2,3,3] against moments [moment_batch,2,1,1], gamma and beta [2]."""
    def make(rng):
        arrays = [_u(rng, (3, 2, 3, 3)),
                  _u(rng, (moment_batch, 2, 1, 1), -0.5, 0.5),
                  _u(rng, (moment_batch, 2, 1, 1), 0.2, 1.5),
                  _u(rng, (2,), 0.5, 1.5),
                  _u(rng, (2,))]
        return lambda ts: T.tsum(T.square(T.normalize(*ts, eps=1e-5))), arrays
    return make


def _moments_case(axes):
    """Both moments of x [3,2,3,3] over ``axes``, squared into the loss."""
    def build(ts):
        mean, var = T.moments(ts[0], axes)
        return T.add(T.tsum(T.square(mean)), T.tsum(T.square(var)))
    return lambda rng: (build, [_u(rng, (3, 2, 3, 3))])


def _check_softmax(rng):
    return (lambda ts: T.tsum(T.square(T.softmax(ts[0], axis=1))),
            [_u(rng, (3, 4), -2.0, 2.0)])


def _check_log_softmax(rng):
    return (lambda ts: T.tsum(T.square(T.log_softmax(ts[0], axis=1))),
            [_u(rng, (3, 4), -2.0, 2.0)])


# --- adaptation objectives ---------------------------------------------------


def _check_stat_consistency(rng):
    b_mean = _u(rng, (6,))
    b_var = _u(rng, (6,), 0.2, 1.5)
    s_mean = _u(rng, (6,))
    s_var = _u(rng, (6,), 0.2, 1.5)

    def build(ts):
        return L.stat_consistency_loss([(ts[0], ts[1])], [(s_mean, s_var)])

    return build, [b_mean, b_var]


def _check_mse(rng):
    pred = _u(rng, (2, 3, 4, 4))
    target = _u(rng, (2, 3, 4, 4))
    return lambda ts: L.mse_loss(ts[0], target), [pred]


def _check_entropy_classifier(rng):
    p = _u(rng, (4, 3), 0.1, 1.0)
    return lambda ts: L.entropy_classifier(ts[0]), [p]


def _check_entropy_depth(rng):
    return (lambda ts: L.entropy_depth(ts[0]),
            [_u(rng, (2, 1, 3, 3), -2.5, 2.5)])


def _check_phase_alignment(rng):
    x = _u(rng, (2, 1, 4, 4), 0.1, 0.9)
    ref = _u(rng, (2, 1, 4, 4), 0.1, 0.9)
    return lambda ts: S.phase_alignment_loss(ref, ts[0]), [x]


def _check_cross_entropy(rng):
    logits = _u(rng, (4, 2), -2.0, 2.0)
    labels = np.array([0, 1, 1, 0])
    return lambda ts: L.cross_entropy_loss(ts[0], labels), [logits]


def _check_total(rng):
    """Full weighted training objective over one shared input tensor."""
    x = _u(rng, (2, 1, 4, 4), 0.15, 0.85)
    ref = _u(rng, (2, 1, 4, 4), 0.15, 0.85)
    s_mean = _u(rng, (1,))
    s_var = _u(rng, (1,), 0.3, 1.0)
    weights = L.LossWeights(lambda_ent=0.01, lambda_ph=0.01)

    def build(ts):
        # batch-norm moments, [1,C,1,1] as BatchNorm2d takes them
        mean, var = T.moments(ts[0], (0, 2, 3))
        stat = L.stat_consistency_loss([(mean, var)], [(s_mean, s_var)])
        per = L.mse_loss(ts[0], ref)
        ent1 = L.entropy_classifier(
            T.softmax(T.tmean(ts[0], axes=(2, 3)), axis=1)
        )
        ent2 = L.entropy_depth(ts[0])
        ph = S.phase_alignment_loss(ref, ts[0])
        return L.total_loss(stat, per, ent1, ent2, ph, weights)

    return build, [x]


CHECKS = (
    ("add", _check_add),
    ("sub", _check_sub),
    ("mul", _check_mul),
    ("div", _check_div),
    ("neg", _check_neg),
    ("square", _check_square),
    ("relu", _check_relu),
    ("exp", _check_exp),
    ("log", _check_log),
    ("sqrt", _check_sqrt),
    ("sigmoid", _check_sigmoid),
    ("tsum", _check_tsum),
    ("tmean", _check_tmean),
    ("matmul", _check_matmul),
    ("conv2d", _check_conv2d),
    ("conv2d_strided", _check_conv2d_strided),
    ("upsample_conv2d", _check_upsample_conv2d),
    ("upsample_nearest", _check_upsample),
    ("normalize", _normalize_case(1)),  # batch-norm moments [1,C,1,1]
    ("normalize_instance", _normalize_case(3)),  # instance-norm [B,C,1,1]
    ("moments", _moments_case((0, 2, 3))),  # batch-norm axes
    ("moments_instance", _moments_case((2, 3))),  # instance-norm axes
    ("softmax", _check_softmax),
    ("log_softmax", _check_log_softmax),
    ("loss_stat_consistency", _check_stat_consistency),
    ("loss_mse", _check_mse),
    ("loss_entropy_classifier", _check_entropy_classifier),
    ("loss_entropy_depth", _check_entropy_depth),
    ("phase_alignment_loss", _check_phase_alignment),
    ("loss_cross_entropy", _check_cross_entropy),
    ("loss_total", _check_total),
)


def _sign_flipped_relu(a):
    """relu with a deliberately wrong backward rule (fault injection)."""
    a = T.as_tensor(a)
    out = T.Tensor(np.maximum(a.data, 0.0))
    T._record(out, [a], lambda g: [-(g * (a.data > 0.0))])
    return out


def run_checks(*, seed: int = 0, trials: int, fault: str = None):
    """Run every registered check; returns a list of CheckResult.

    ``fault="sign-flip"`` swaps in a relu whose backward rule negates the
    gradient; a healthy harness must then report the relu check as failed.
    """
    if fault not in (None, "sign-flip"):
        raise InputError(f"unknown fault {fault!r}")
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    results = []
    for name, make in CHECKS:
        worst = 0.0
        for trial in range(trials):
            # keyed by name, so adding or removing a check moves no other
            rng = Rng(derive_seed(seed, "gradcheck", name, trial))
            build, arrays = make(rng)
            if fault == "sign-flip" and name == "relu":
                build = (lambda ts: T.tsum(_sign_flipped_relu(ts[0])))
            worst = max(worst, max_rel_error(build, arrays))
        results.append(CheckResult(name, trials, worst, worst < TOLERANCE))
    return results


def format_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check'.ljust(width)}  trials  max_rel_error  status"]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.name.ljust(width)}  {r.trials:6d}  {r.max_rel_error:13.3e}"
            f"  {status}"
        )
    return "\n".join(lines)
