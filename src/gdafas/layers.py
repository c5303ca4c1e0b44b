"""Neural network layers and the Adam optimizer.

Each layer class names its persistent fields once, in ``STATE``: Tensor
fields are trainable parameters, ndarray and int fields are plain state.
:mod:`gdafas.models` walks the layers and reads ``STATE`` for parameter
lists, state copies and checkpoints. Both normalization layers take their
moments with ``tensor.moments`` and apply them with the one-node
``tensor.normalize``. Weights and running statistics are held in
``tensor.COMPUTE`` (float32), and Adam moments in their parameter's dtype;
the Rng draws init values in float64 and each layer casts them once. A
weighted layer built without an Rng draws nothing and holds zeros: a
skeleton of the right shapes for a state to be loaded into.
Batch normalization carries running statistics as plain state (never
taped, never touched by the optimizer) and distinguishes three forward
modes:

* ``train``: normalize with batch moments, update the running averages.
* ``stats``: normalize with batch moments, leave the running averages alone.
  The returned batch moments stay on the tape, so losses defined on them can
  push gradient back to whatever produced the input. They keep the
  [1,C,1,1] shape they are computed in, so returning them tapes nothing more.
* ``eval``: normalize with the running averages and take no moments; the
  input array it normalized comes back untaped, so a distribution-shift
  analysis can take its moments and every other caller pays nothing.
"""

import math

import numpy as np

from . import tensor as T
from .rng import Rng


def _init_weight(rng, shape, std):
    """A trainable weight of ``shape`` drawn from N(0, std^2) in float64 and
    cast once; zeros, with no draw, when ``rng`` is None."""
    if rng is None:
        w = np.zeros(shape, T.COMPUTE)
    else:
        w = rng.gaussian(math.prod(shape), std=std).reshape(shape) \
            .astype(T.COMPUTE)
    return T.Tensor(w, requires_grad=True)


class Conv2d:
    """2-d convolution with He-normal weight init. With ``bias=False`` it
    holds no bias tensor, and ``bias`` is left out of its ``STATE``."""

    STATE = ("weight", "bias")

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Rng = None):
        fan_in = in_channels * kernel * kernel
        self.weight = _init_weight(
            rng, (out_channels, in_channels, kernel, kernel),
            np.sqrt(2.0 / fan_in))
        self.bias = T.Tensor(np.zeros(out_channels, T.COMPUTE),
                             requires_grad=True) if bias else None
        if not bias:
            self.STATE = ("weight",)
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        return T.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)


class Dense:
    """Affine map on [B, in] inputs."""

    STATE = ("weight", "bias")

    def __init__(self, in_features: int, out_features: int, rng: Rng = None):
        self.weight = _init_weight(rng, (in_features, out_features),
                                   np.sqrt(1.0 / in_features))
        self.bias = T.Tensor(np.zeros(out_features, T.COMPUTE),
                             requires_grad=True)

    def forward(self, x):
        return T.add(T.matmul(x, self.weight), self.bias)


class BatchNorm2d:
    """Channel normalization over (batch, height, width) with running averages.

    Batch moments use the biased variance (divide by N). Running averages
    start at mean 0 / variance 1 and follow an exponential moving average
    with rate ``momentum``:

        running <- (1 - momentum) * running + momentum * batch

    ``num_updates`` counts train-mode forwards; eval mode before the first
    update is an error because the running averages would still be the
    arbitrary init values. ``forward`` returns ``(output, seen)``: ``seen``
    is the taped ``(mean, var)`` batch-moment pair in train and stats mode,
    and the untaped input array in eval mode.
    """

    STATE = ("gamma", "beta", "running_mean", "running_var", "num_updates")
    eps = 1e-5

    def __init__(self, num_channels: int, momentum: float = 0.1):
        self.gamma = T.Tensor(np.ones(num_channels, T.COMPUTE),
                              requires_grad=True)
        self.beta = T.Tensor(np.zeros(num_channels, T.COMPUTE),
                             requires_grad=True)
        self.running_mean = np.zeros(num_channels, T.COMPUTE)
        self.running_var = np.ones(num_channels, T.COMPUTE)
        self.num_updates = 0
        self.momentum = momentum

    def forward(self, x, mode: str = "train"):
        if mode not in ("train", "stats", "eval"):
            raise ValueError(f"unknown batchnorm mode: {mode!r}")
        c = x.shape[1]
        if mode == "eval":
            if self.num_updates == 0:
                raise RuntimeError(
                    "batchnorm eval before any running-average update"
                )
            seen = x.data
            mean = T.Tensor(self.running_mean.reshape(1, c, 1, 1))
            var = T.Tensor(self.running_var.reshape(1, c, 1, 1))
        else:
            if x.shape[0] * x.shape[2] * x.shape[3] < 2:
                raise ValueError("batch statistics need at least 2 values")
            mean, var = T.moments(x, (0, 2, 3))
            seen = (mean, var)
            if mode == "train":
                m = self.momentum
                self.running_mean = (1.0 - m) * self.running_mean \
                    + m * mean.data.reshape(c)
                self.running_var = (1.0 - m) * self.running_var \
                    + m * var.data.reshape(c)
                self.num_updates += 1
        out = T.normalize(x, mean, var, self.gamma, self.beta, self.eps)
        return out, seen


class InstanceNorm2d:
    """Per-sample, per-channel normalization over the spatial axes."""

    STATE = ("gamma", "beta")
    eps = 1e-5

    def __init__(self, num_channels: int):
        self.gamma = T.Tensor(np.ones(num_channels, T.COMPUTE),
                              requires_grad=True)
        self.beta = T.Tensor(np.zeros(num_channels, T.COMPUTE),
                             requires_grad=True)

    def forward(self, x):
        mean, var = T.moments(x, (2, 3))
        return T.normalize(x, mean, var, self.gamma, self.beta, self.eps)


class Adam:
    """Adam with bias correction; silently skips parameters without a grad.

    Frozen parameters (``requires_grad`` False) are excluded up front, so a
    bundle containing frozen networks can hand its full parameter list over.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float = 1e-4):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            mhat = self.m[i] / (1.0 - b1**self.t)
            vhat = self.v[i] / (1.0 - b2**self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)
