"""Desk-scale networks: feature extractor, heads, perceptual net, generator.

All source-side networks consume 32x32 RGB images in [0, 1]. The feature
extractor F downsamples through three conv/batchnorm/relu blocks; the
classifier H pools the last block into two logits; the depth estimator R maps
the mid-level block to an 8x8 liveness logit map. The perceptual net phi is a
fixed, seeded random two-stage convnet whose output serves as the content
feature space. The generator G is an encoder/residual/decoder network with
instance normalization and a near-identity start: its head's small-logit
output is added to the logit of the input image before the final sigmoid, so
an untrained G approximately reproduces its input.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .layers import (
    BatchNorm2d,
    Conv2d,
    Dense,
    InstanceNorm2d,
    collect_params,
    set_requires_grad,
)
from .rng import Rng, derive_seed

IMAGE_SHAPE = (3, 32, 32)
DEPTH_SHAPE = (1, 8, 8)


class FeatureExtractor:
    """Three stride-2 conv/BN/relu blocks: 3 -> 32 -> 64 -> 128 channels."""

    def __init__(self, rng: Rng):
        self.conv1 = Conv2d(3, 32, 3, stride=2, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(32)
        self.conv2 = Conv2d(32, 64, 3, stride=2, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(64)
        self.conv3 = Conv2d(64, 128, 3, stride=2, padding=1, rng=rng)
        self.bn3 = BatchNorm2d(128)

    def forward(self, x, mode: str):
        b1 = T.relu(self.bn1.forward(self.conv1.forward(x), mode))
        b2 = T.relu(self.bn2.forward(self.conv2.forward(b1), mode))
        b3 = T.relu(self.bn3.forward(self.conv3.forward(b2), mode))
        return b1, b2, b3

    def params(self):
        return collect_params(
            [self.conv1, self.bn1, self.conv2, self.bn2, self.conv3, self.bn3]
        )

    def bn_layers(self):
        return [self.bn1, self.bn2, self.bn3]


class ClassifierHead:
    """Global average pooling over the last block, then a dense map to 2."""

    def __init__(self, rng: Rng):
        self.dense = Dense(128, 2, rng=rng)

    def forward(self, b3):
        return self.dense.forward(T.tmean(b3, axes=(2, 3)))

    def params(self):
        return self.dense.params()

    def bn_layers(self):
        return []


class DepthEstimator:
    """Two conv/BN/relu blocks plus a 1x1 conv onto a [B,1,8,8] logit map."""

    def __init__(self, rng: Rng):
        self.conv1 = Conv2d(64, 64, 3, stride=1, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(64)
        self.conv2 = Conv2d(64, 32, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(32)
        self.conv3 = Conv2d(32, 1, 1, stride=1, padding=0, rng=rng)

    def forward(self, b2, mode: str):
        h = T.relu(self.bn1.forward(self.conv1.forward(b2), mode))
        h = T.relu(self.bn2.forward(self.conv2.forward(h), mode))
        return self.conv3.forward(h)

    def params(self):
        return collect_params(
            [self.conv1, self.bn1, self.conv2, self.bn2, self.conv3]
        )

    def bn_layers(self):
        return [self.bn1, self.bn2]


class PerceptualNet:
    """Two seeded conv/relu stages; their output is the content feature."""

    def __init__(self, rng: Rng):
        self.conv1 = Conv2d(3, 16, 3, stride=1, padding=1, rng=rng)
        self.conv2 = Conv2d(16, 32, 3, stride=2, padding=1, rng=rng)

    def features(self, x):
        h = T.relu(self.conv1.forward(x))
        return T.relu(self.conv2.forward(h))

    def params(self):
        return collect_params([self.conv1, self.conv2])

    def bn_layers(self):
        return []


class ResidualBlock:
    def __init__(self, channels: int, rng: Rng):
        self.conv1 = Conv2d(channels, channels, 3, stride=1, padding=1, rng=rng)
        self.norm1 = InstanceNorm2d(channels)
        self.conv2 = Conv2d(channels, channels, 3, stride=1, padding=1, rng=rng)
        self.norm2 = InstanceNorm2d(channels)

    def forward(self, x):
        h = T.relu(self.norm1.forward(self.conv1.forward(x)))
        return T.add(x, self.norm2.forward(self.conv2.forward(h)))

    def params(self):
        return collect_params([self.conv1, self.norm1, self.conv2, self.norm2])


class Generator:
    """Stride-2 encoder, two residual blocks, nearest-upsampling decoder.

    Instance normalization keeps every statistic per-sample, so the only
    batch statistics in the whole adaptation graph belong to the frozen
    source networks. The head starts near zero (weights scaled down at init),
    which combined with the input-logit skip makes the initial G close to the
    identity map while leaving every parameter with a live gradient path.
    """

    def __init__(self, rng: Rng):
        self.enc1 = Conv2d(3, 32, 3, stride=2, padding=1, rng=rng)
        self.norm1 = InstanceNorm2d(32)
        self.enc2 = Conv2d(32, 64, 3, stride=2, padding=1, rng=rng)
        self.norm2 = InstanceNorm2d(64)
        self.res1 = ResidualBlock(64, rng)
        self.res2 = ResidualBlock(64, rng)
        self.dec1 = Conv2d(64, 32, 3, stride=1, padding=1, rng=rng)
        self.norm3 = InstanceNorm2d(32)
        self.dec2 = Conv2d(32, 16, 3, stride=1, padding=1, rng=rng)
        self.norm4 = InstanceNorm2d(16)
        self.head = Conv2d(16, 3, 3, stride=1, padding=1, rng=rng)
        self.head.weight.data = self.head.weight.data * 0.01

    def forward(self, x):
        x = T.as_tensor(x)
        h = T.relu(self.norm1.forward(self.enc1.forward(x)))
        h = T.relu(self.norm2.forward(self.enc2.forward(h)))
        h = self.res1.forward(h)
        h = self.res2.forward(h)
        h = T.relu(self.norm3.forward(self.dec1.forward(T.upsample_nearest(h, 2))))
        h = T.relu(self.norm4.forward(self.dec2.forward(T.upsample_nearest(h, 2))))
        logits = self.head.forward(h)
        clipped = np.clip(x.data, 0.01, 0.99)
        skip = np.log(clipped) - np.log1p(-clipped)
        return T.sigmoid(T.add(logits, T.Tensor(skip)))

    def params(self):
        return collect_params(
            [self.enc1, self.norm1, self.enc2, self.norm2]
        ) + self.res1.params() + self.res2.params() + collect_params(
            [self.dec1, self.norm3, self.dec2, self.norm4, self.head]
        )


@dataclass
class ModelBundle:
    """The five networks; a parameter's ``requires_grad`` says if it trains."""

    F: FeatureExtractor
    H: ClassifierHead
    R: DepthEstimator
    phi: PerceptualNet
    G: Optional[Generator] = None

    def net(self, name: str):
        nets = {"F": self.F, "H": self.H, "R": self.R, "phi": self.phi,
                "G": self.G}
        if name not in nets:
            raise ValueError(f"unknown network name: {name!r}")
        return nets[name]

    def bn_layers(self):
        """All source-side BN layers in fixed definition order (F then R)."""
        return self.F.bn_layers() + self.H.bn_layers() + self.R.bn_layers()

    def params(self, names=("F", "H", "R", "phi", "G")):
        out = []
        for name in names:
            net = self.net(name)
            if net is not None:
                out.extend(net.params())
        return out


def freeze(bundle: ModelBundle, names) -> ModelBundle:
    """Mark networks untrainable; idempotent, returns the same bundle."""
    for name in names:
        net = bundle.net(name)
        if net is None:
            raise ValueError(f"cannot freeze absent network {name!r}")
        set_requires_grad(net.params(), False)
    return bundle


def build_source_bundle(seed: int) -> ModelBundle:
    """Fresh F, H, R (trainable) and a frozen seeded phi; no generator."""
    bundle = ModelBundle(
        F=FeatureExtractor(Rng(derive_seed(seed, 1))),
        H=ClassifierHead(Rng(derive_seed(seed, 2))),
        R=DepthEstimator(Rng(derive_seed(seed, 3))),
        phi=PerceptualNet(Rng(derive_seed(seed, 4))),
    )
    freeze(bundle, ["phi"])
    return bundle


def build_generator(seed: int) -> Generator:
    return Generator(Rng(derive_seed(seed, 5)))


def forward_source(bundle: ModelBundle, x, mode: str):
    """Run F, H, R on a [B,3,32,32] batch.

    Returns (logits [B,2], depth logit map [B,1,8,8], bn batch stats,
    block features [b1, b2, b3]). The stats list pairs each BN layer's batch
    (mean, variance), each a [1,C,1,1] tensor, in registry order; it is
    empty in eval mode, where running statistics are used instead.
    """
    x = T.as_tensor(x)
    if x.ndim != 4 or x.shape[1:] != IMAGE_SHAPE:
        raise ValueError(
            f"expected input [B,{','.join(map(str, IMAGE_SHAPE))}], "
            f"got {x.shape}"
        )
    b1, b2, b3 = bundle.F.forward(x, mode)
    logits = bundle.H.forward(b3)
    depth = bundle.R.forward(b2, mode)
    if mode == "eval":
        stats = []
    else:
        stats = [(bn.last_batch_mean, bn.last_batch_var)
                 for bn in bundle.bn_layers()]
    return logits, depth, stats, [b1, b2, b3]
