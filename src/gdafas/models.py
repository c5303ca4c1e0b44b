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

Every network derives from :class:`Network`, whose one definition-order walk
over layer attributes is the registry of what a network owns: its trainable
parameters, its state copies (what a checkpoint stores) and its BN layers.
Each head takes F's block outputs and reads the block it is wired to, so a
caller that needs only F, or F and one head, runs just those. A network
built without an Rng (``build_source_bundle(None)``, ``build_generator(None)``)
draws nothing and holds zero weights, ready for ``load_state``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .data import InputError
from .layers import BatchNorm2d, Conv2d, Dense, InstanceNorm2d
from .rng import Rng, derive_seed

IMAGE_SHAPE = (3, 32, 32)
NETS = ("F", "H", "R", "phi", "G")


class Network:
    """Base of every network and of the model bundle.

    Layers (objects whose class names its persistent fields in ``STATE``) and
    sub-networks are attributes; ``layers`` walks them in definition order.
    """

    def layers(self, prefix: str = ""):
        """(dotted name, layer) pairs, sub-networks inlined under their
        attribute name."""
        out = []
        for attr, value in vars(self).items():
            if isinstance(value, Network):
                out.extend(value.layers(f"{prefix}{attr}."))
            elif hasattr(value, "STATE"):
                out.append((prefix + attr, value))
        return out

    def _fields(self):
        for name, layer in self.layers():
            for field in layer.STATE:
                yield f"{name}.{field}", layer, field

    def params(self):
        """The Tensor fields of every layer's ``STATE``, in walk order."""
        fields = (getattr(layer, f) for _, layer, f in self._fields())
        return [v for v in fields if isinstance(v, T.Tensor)]

    def state(self):
        """{dotted name: ``tensor.COMPUTE`` copy} of every persistent field,
        in walk order; an int field is a one-element array."""
        out = {}
        for name, layer, field in self._fields():
            value = getattr(layer, field)
            if isinstance(value, T.Tensor):
                value = value.data
            out[name] = np.array(value, dtype=T.COMPUTE, ndmin=1)
        return out

    def load_state(self, state):
        """Set every persistent field from a :meth:`state`-shaped dict; the
        arrays are taken over, not copied, once in ``tensor.COMPUTE``. An
        int field's value must be a whole number >= 0, every other value
        finite and a running variance >= 0, or ``ValueError``: no run
        writes anything else, as training aborts on a non-finite loss and
        each running-variance update is a convex mix of variances."""
        for name, layer, field in self._fields():
            value = np.asarray(state[name], dtype=T.COMPUTE)
            current = getattr(layer, field)
            if isinstance(current, int):
                count = float(value[0])
                # NaN fails the comparison; an infinity is not is_integer()
                if not (count >= 0 and count.is_integer()):
                    raise ValueError(f"{name} must be a whole number >= 0, "
                                     f"got {count}")
                setattr(layer, field, int(count))
                continue
            if not np.isfinite(value).all():
                raise ValueError(f"{name} holds a non-finite value")
            if field == "running_var" and (value < 0).any():
                raise ValueError(f"{name} holds a negative variance")
            if isinstance(current, T.Tensor):
                current.data = value
            else:
                setattr(layer, field, value)


def _images(x) -> T.Tensor:
    """``x`` as a Tensor, if it is a [B,3,32,32] image batch."""
    x = T.as_tensor(x)
    if x.ndim != 4 or x.shape[1:] != IMAGE_SHAPE:
        dims = ",".join(map(str, IMAGE_SHAPE))
        raise InputError(f"expected input [B,{dims}], got {x.shape}")
    return x


class FeatureExtractor(Network):
    """Three stride-2 conv/BN/relu blocks: 3 -> 32 -> 64 -> 128 channels.

    ``forward`` checks that its input is a [B,3,32,32] image batch (every
    source-side path starts here) and returns the three block outputs and
    what each BN layer returned besides its output.
    """

    def __init__(self, rng: Optional[Rng]):
        self.conv1 = Conv2d(3, 32, 3, stride=2, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(32)
        self.conv2 = Conv2d(32, 64, 3, stride=2, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(64)
        self.conv3 = Conv2d(64, 128, 3, stride=2, padding=1, rng=rng)
        self.bn3 = BatchNorm2d(128)

    def forward(self, x, mode: str):
        x = _images(x)
        h1, m1 = self.bn1.forward(self.conv1.forward(x), mode)
        b1 = T.relu(h1)
        h2, m2 = self.bn2.forward(self.conv2.forward(b1), mode)
        b2 = T.relu(h2)
        h3, m3 = self.bn3.forward(self.conv3.forward(b2), mode)
        return (b1, b2, T.relu(h3)), [m1, m2, m3]


class ClassifierHead(Network):
    """Global average pooling over the last block, then a dense map to 2."""

    def __init__(self, rng: Optional[Rng]):
        self.dense = Dense(128, 2, rng=rng)

    def forward(self, blocks):
        return self.dense.forward(T.tmean(blocks[2], axes=(2, 3)))


class DepthEstimator(Network):
    """Two conv/BN/relu blocks plus a 1x1 conv onto a [B,1,8,8] logit map,
    read from F's mid-level block.

    ``forward`` returns the map and what each BN layer returned besides its
    output.
    """

    def __init__(self, rng: Optional[Rng]):
        self.conv1 = Conv2d(64, 64, 3, stride=1, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(64)
        self.conv2 = Conv2d(64, 32, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(32)
        self.conv3 = Conv2d(32, 1, 1, stride=1, padding=0, rng=rng)

    def forward(self, blocks, mode: str):
        h, m1 = self.bn1.forward(self.conv1.forward(blocks[1]), mode)
        h, m2 = self.bn2.forward(self.conv2.forward(T.relu(h)), mode)
        return self.conv3.forward(T.relu(h)), [m1, m2]


def _conv_no_bias(cin: int, cout: int, stride: int, rng: Optional[Rng]):
    return Conv2d(cin, cout, 3, stride=stride, padding=1, bias=False, rng=rng)


class PerceptualNet(Network):
    """Two seeded conv/relu stages; their output is the content feature.
    phi never trains, so a conv bias would stay at its zero init."""

    def __init__(self, rng: Optional[Rng]):
        self.conv1 = _conv_no_bias(3, 16, 1, rng)
        self.conv2 = _conv_no_bias(16, 32, 2, rng)

    def features(self, x):
        h = T.relu(self.conv1.forward(x))
        return T.relu(self.conv2.forward(h))


class ResidualBlock(Network):
    def __init__(self, channels: int, rng: Optional[Rng]):
        self.conv1 = _conv_no_bias(channels, channels, 1, rng)
        self.norm1 = InstanceNorm2d(channels)
        self.conv2 = _conv_no_bias(channels, channels, 1, rng)
        self.norm2 = InstanceNorm2d(channels)

    def forward(self, x):
        h = T.relu(self.norm1.forward(self.conv1.forward(x)))
        return T.add(x, self.norm2.forward(self.conv2.forward(h)))


class Generator(Network):
    """Stride-2 encoder, two residual blocks, nearest-upsampling decoder.

    Instance normalization keeps every statistic per-sample, so the only
    batch statistics in the whole adaptation graph belong to the frozen
    source networks. The head starts near zero (weights scaled down at init),
    which combined with the input-logit skip makes the initial G close to the
    identity map while leaving every parameter with a live gradient path.
    ``forward`` takes what F does, a [B,3,32,32] image batch.

    Every conv but the head feeds instance norm, which cancels any
    per-channel constant, so they have no bias. Each decoder conv (``dec1``,
    ``dec2``) is a 3x3 pad-1 conv over the 2x nearest upsampling of its
    input, run by ``tensor.upsample_conv2d`` from the low-res input without
    building the upsampled map; its ``forward`` is not called.
    """

    def __init__(self, rng: Optional[Rng]):
        self.enc1 = _conv_no_bias(3, 32, 2, rng)
        self.norm1 = InstanceNorm2d(32)
        self.enc2 = _conv_no_bias(32, 64, 2, rng)
        self.norm2 = InstanceNorm2d(64)
        self.res1 = ResidualBlock(64, rng)
        self.res2 = ResidualBlock(64, rng)
        self.dec1 = _conv_no_bias(64, 32, 1, rng)
        self.norm3 = InstanceNorm2d(32)
        self.dec2 = _conv_no_bias(32, 16, 1, rng)
        self.norm4 = InstanceNorm2d(16)
        self.head = Conv2d(16, 3, 3, stride=1, padding=1, rng=rng)
        self.head.weight.data = self.head.weight.data * 0.01

    def forward(self, x):
        x = _images(x)
        h = T.relu(self.norm1.forward(self.enc1.forward(x)))
        h = T.relu(self.norm2.forward(self.enc2.forward(h)))
        h = self.res1.forward(h)
        h = self.res2.forward(h)
        for conv, norm in ((self.dec1, self.norm3), (self.dec2, self.norm4)):
            h = T.relu(norm.forward(T.upsample_conv2d(h, conv.weight)))
        logits = self.head.forward(h)
        clipped = np.clip(x.data, 0.01, 0.99)
        skip = np.log(clipped) - np.log1p(-clipped)
        return T.sigmoid(T.add(logits, T.Tensor(skip)))


@dataclass
class ModelBundle(Network):
    """The five networks; a parameter's ``requires_grad`` says if it trains.

    The walk names every layer under its network (``F.bn1``); an absent
    generator contributes nothing.
    """

    F: FeatureExtractor
    H: ClassifierHead
    R: DepthEstimator
    phi: PerceptualNet
    G: Optional[Generator] = None

    def net(self, name: str):
        if name not in NETS:
            raise ValueError(f"unknown network name: {name!r}")
        return getattr(self, name)

    def bn_layers(self):
        """All BN layers in walk order (F then R; no other network has one)."""
        return [layer for _, layer in self.layers()
                if isinstance(layer, BatchNorm2d)]

    def params(self, names=NETS):
        """Trainable tensors of the named, present networks, in that order."""
        return [p for name in names if self.net(name) is not None
                for p in self.net(name).params()]


def freeze(bundle: ModelBundle, names) -> ModelBundle:
    """Mark networks untrainable; idempotent, returns the same bundle."""
    for name in names:
        net = bundle.net(name)
        if net is None:
            raise ValueError(f"cannot freeze absent network {name!r}")
        for p in net.params():
            p.requires_grad = False
    return bundle


def _rng(seed: Optional[int], stream: int) -> Optional[Rng]:
    return None if seed is None else Rng(derive_seed(seed, stream))


def build_source_bundle(seed: Optional[int]) -> ModelBundle:
    """Fresh F, H, R (trainable) and a frozen seeded phi; no generator.

    With ``seed`` None nothing is drawn: every weight is zero, a skeleton
    for a loaded state.
    """
    bundle = ModelBundle(
        F=FeatureExtractor(_rng(seed, 1)),
        H=ClassifierHead(_rng(seed, 2)),
        R=DepthEstimator(_rng(seed, 3)),
        phi=PerceptualNet(_rng(seed, 4)),
    )
    freeze(bundle, ["phi"])
    return bundle


def build_generator(seed: Optional[int]) -> Generator:
    """A seeded generator, or with ``seed`` None an undrawn skeleton."""
    return Generator(_rng(seed, 5))


def forward_source(bundle: ModelBundle, x, mode: str):
    """Run F, H, R on a [B,3,32,32] batch: the training and adaptation pass.

    Returns (logits [B,2], depth logit map [B,1,8,8], bn stats, block
    features [b1, b2, b3]). The stats list holds, in ``bn_layers`` order,
    what each BN layer returned besides its output: the taped [1,C,1,1]
    (mean, variance) batch moments in train and stats mode, the untaped
    input array in eval mode (where the layers normalize with their running
    statistics). Scoring and the analyses do not call it: their one pass per
    (dataset, generator), ``pipeline.eval_pass``, runs F and only the heads
    its requested outputs read.
    """
    blocks, f_stats = bundle.F.forward(x, mode)
    logits = bundle.H.forward(blocks)
    depth, r_stats = bundle.R.forward(blocks, mode)
    return logits, depth, f_stats + r_stats, list(blocks)
