"""Synthetic live/spoof image domains, image file IO, manifests, batching.

Each sample is a smooth radial "face" blob on a soft background. Live
samples pair the blob with a nonzero depth dome; spoof samples overlay a
high-frequency grating (a stand-in for recapture moire) and carry an all-zero
depth target. A domain's style (per-channel gain, brightness offset, blur
passes, sensor noise) is applied around the class signal so that styles
shift image statistics without destroying separability.

Rendering is a pure function of (label, spec, seed), so datasets are
byte-identical across machines and reruns. ``render_block`` renders many
records at once, each step once over the block, and gives each record the
bits it gets rendered alone; a domain is rendered ``BLOCK`` records per pass.

Files are binary PPM (images) and PGM (depth); a JSON manifest lists every
record. A loaded dataset keeps each image as the 8-bit pixels its file
holds; ``decode`` turns a batch into ``tensor.COMPUTE`` (float32) values in
[0, 1] where it leaves the dataset.
"""

import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng, derive_seed, gaussian_rows, uniform_rows
from .tensor import COMPUTE

MANIFEST_SCHEMA_VERSION = 1
DEPTH_SHAPE = (1, 8, 8)  # the map the depth estimator predicts


class InputError(ValueError):
    """Bad input: flags, config, dataset, manifest and image files, settings,
    or dataset content such as an unlabeled or one-class split. ``gda``
    exits 1 on it and 2 on any other error."""


def finite_number(value, kind=numbers.Real) -> bool:
    """A finite number of ``kind`` that a float can hold; a bool is not one."""
    try:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        return False


# each setting's JSON type: the test of a value, the rule its refusal states
RULES = {
    int: (lambda v: finite_number(v, numbers.Integral), "an integer"),
    float: (finite_number, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def check_fields(values: dict, rules: dict, prefix: str = ""):
    """Raise ``InputError`` for the first key of ``rules``, in its order,
    whose value in ``values`` fails the rule's test; absent keys pass."""
    for key, (test, rule) in rules.items():
        if key in values and not test(values[key]):
            raise InputError(f"{prefix}{key} must be {rule}, "
                             f"got {values[key]!r}")


# DomainSpec's fields, each refused as "domain <field> must be <rule>"
_DOMAIN_RULES = {
    # the name is the domain's directory under the output root
    "name": (lambda v: isinstance(v, str) and v not in ("", ".", "..")
             and "\0" not in v and os.path.basename(v) == v,
             "a single path component other than . and .."),
    "gain": (lambda v: isinstance(v, tuple) and len(v) == 3
             and all(map(finite_number, v)), "3 finite numbers"),
    "brightness": (finite_number, "finite"),
    "blur": (lambda v: finite_number(v, numbers.Integral) and v >= 0,
             "an integer >= 0"),
    "noise": (lambda v: finite_number(v) and v >= 0, "finite and >= 0"),
    "count_per_class": (lambda v: finite_number(v, numbers.Integral)
                        and v >= 1, "an integer >= 1"),
    "seed": RULES[int],
}


@dataclass
class DomainSpec:
    """Rendering style and size of one synthetic domain."""

    name: str
    gain: tuple = (1.0, 1.0, 1.0)  # per-channel multiplier
    brightness: float = 0.0
    blur: int = 0  # passes of a 3x3 box filter over the scene
    noise: float = 0.01
    count_per_class: int = 100
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.gain, list):
            self.gain = tuple(self.gain)
        check_fields(vars(self), _DOMAIN_RULES, prefix="domain ")


@dataclass
class Dataset:
    """In-memory view of one manifest.

    ``images`` holds the files' uint8 pixels, C-contiguous, 3,072 bytes
    per 32x32 record; ``decode`` a batch of them before it reaches a
    network. Depths are decoded float32 at load.
    """

    images: np.ndarray  # [N,3,32,32] uint8
    labels: np.ndarray  # [N], -1 where the record is unlabeled
    depths: np.ndarray  # [N,1,8,8], zeros where absent
    splits: list = field(default_factory=list)
    domains: list = field(default_factory=list)

    def subset(self, split: str) -> "Dataset":
        keep = [i for i, s in enumerate(self.splits) if s == split]
        return Dataset(
            images=self.images[keep],
            labels=self.labels[keep],
            depths=self.depths[keep],
            splits=[self.splits[i] for i in keep],
            domains=[self.domains[i] for i in keep],
        )


_SIZE = 32
_GRID = np.mgrid[0:_SIZE, 0:_SIZE] / (_SIZE - 1.0)  # (yy, xx)
_DIAGONAL = _GRID[1] + _GRID[0] - 1.0  # xx + yy - 1
_DEPTH_GRID = np.mgrid[0:8, 0:8] / 7.0  # (gy, gx)
_FACE_TONE = np.array([0.55, 0.45, 0.38]).reshape(3, 1, 1)
# A record's scene draws: 5 on a live record, 8 on a spoof; its noise
# draws follow them.
_DRAWS = 8
_LIVE_DRAWS = 5
# Records rendered per pass. Each float64 stage of a pass is then at most
# [16, 3, 32, 32], 393 KB. At 32 records a pass freed enough at once for
# glibc to trim the heap after each pass in a fresh process and fault the
# pages back in: about 9,500 minor faults per 640-record domain, not 300.
BLOCK = 16


def _box_blur(img: np.ndarray, passes: int) -> np.ndarray:
    """3x3 mean filter with edge replication over the last two axes."""
    out = img
    h, w = img.shape[-2:]
    edge = [(0, 0)] * (img.ndim - 2) + [(1, 1), (1, 1)]
    for _ in range(passes):
        padded = np.pad(out, edge, mode="edge")
        out = np.zeros_like(out)
        for dy in range(3):
            for dx in range(3):
                out += padded[..., dy : dy + h, dx : dx + w]
        out /= 9.0
    return out


def _radial(x, y, cx, cy, radius):
    """exp(-((x - cx)^2 + (y - cy)^2) / radius^2), the dome of the face."""
    dist2 = x - cx
    dist2 **= 2
    dy = y - cy
    dy **= 2
    dist2 += dy
    dist2 /= radius * radius
    np.negative(dist2, out=dist2)
    return np.exp(dist2, out=dist2)


def render_block(labels, spec: DomainSpec, seeds):
    """Records of the given labels (1 live, 0 spoof) and render seeds:
    images [B,3,32,32] in [0,1] and depths [B,1,8,8], float64.

    Every step runs once over the block, elementwise, with the operands
    and in the order of one record's formula; steps write in place where
    the value they overwrite is not read again. So a record's values do
    not depend on the block it is rendered in. The grating that marks a
    spoof is injected after the style blur: it models a capture artifact,
    so domain styles must not erase it.
    """
    spoof = np.asarray(labels) == 0
    u = uniform_rows(seeds, np.zeros(len(spoof), np.uint64), _DRAWS)
    u = u[:, :, None, None]
    yy, xx = _GRID

    cx = 0.5 + 0.12 * (u[:, 0] - 0.5)
    cy = 0.5 + 0.12 * (u[:, 1] - 0.5)
    radius = 0.30 + 0.08 * u[:, 2]
    blob = _radial(xx, yy, cx, cy, radius)

    base = 0.25 + 0.1 * u[:, 3]
    tilt = 0.08 * (u[:, 4] - 0.5)
    background = tilt * _DIAGONAL  # base + tilt * (xx + yy - 1)
    background += base
    scene = _FACE_TONE * blob[:, None]
    scene += background[:, None]
    scene = _box_blur(scene, spec.blur)

    if spoof.any():
        # recapture grating: frequency radius in (8, 13] cycles per image,
        # safely above the size/4 = 8 low-frequency band
        v = u[spoof]
        freq = 9.0 + 4.0 * v[:, 5]
        angle = np.pi * v[:, 6]
        phase = 2.0 * np.pi * v[:, 7]
        fx, fy = freq * np.cos(angle), freq * np.sin(angle)
        # 0.1 * sin(2 pi (fx xx + fy yy) + phase)
        grating = fx * xx
        grating += fy * yy
        grating *= 2.0 * np.pi
        grating += phase
        np.sin(grating, out=grating)
        grating *= 0.1
        scene[spoof] += grating[:, None]

    image = scene  # styled: scene * gain + brightness + noise
    image *= np.asarray(spec.gain).reshape(3, 1, 1)
    image += spec.brightness
    offsets = np.where(spoof, _DRAWS, _LIVE_DRAWS).astype(np.uint64)
    noise = gaussian_rows(seeds, offsets, 3 * _SIZE * _SIZE)
    noise *= spec.noise
    noise += 0.0  # 0 + std * z, as Rng.gaussian(n, std=spec.noise) has it
    image += noise.reshape(image.shape)
    np.clip(image, 0.0, 1.0, out=image)

    gy, gx = _DEPTH_GRID
    depth = _radial(gx, gy, cx, cy, radius)[:, None]
    depth[spoof] = 0.0
    return image, depth


# ---------------------------------------------------------------------------
# PPM / PGM


def quantize(image: np.ndarray) -> np.ndarray:
    """Values in [0, 1] to the 8-bit pixels a file stores, rounded."""
    scaled = image * 255.0
    np.round(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    return scaled.astype(np.uint8)


def decode(pixels: np.ndarray) -> np.ndarray:
    """8-bit pixels to ``COMPUTE`` values in [0, 1], the bits of
    ``pixels.astype(COMPUTE) / 255`` in one pass; anything but uint8 raises
    ``TypeError``."""
    dtype = getattr(pixels, "dtype", type(pixels).__name__)
    if dtype != np.uint8:
        raise TypeError(f"decode takes uint8 pixels, got {dtype}")
    return np.divide(pixels, np.float32(255), dtype=COMPUTE)


def _write_netpbm(path: str, magic: str, pixels: np.ndarray):
    """Binary netpbm, maxval 255, of uint8 pixels [C,H,W]."""
    _, h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.transpose(1, 2, 0).tobytes())


def ppm_write(path: str, image: np.ndarray):
    """Binary P6, maxval 255; image is [3,H,W] in [0,1]."""
    _write_netpbm(path, "P6", quantize(image))


def _read_netpbm(path: str, magic: bytes, channels: int):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (IsADirectoryError, NotADirectoryError) as err:
        raise InputError(f"{path}: {err.strerror}")
    if blob[:2] in (b"P3", b"P2"):
        raise InputError(
            f"{path}: ASCII netpbm variant {blob[:2].decode()} not supported,"
            " expected binary " + magic.decode()
        )
    if blob[:2] != magic:
        raise InputError(f"{path}: bad magic {blob[:2]!r}, expected {magic!r}")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with optional '#' comments; payload starts after the maxval whitespace
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(blob):
            raise InputError(f"{path}: malformed header")
        ch = blob[pos:pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos:pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    pos += 1  # single whitespace byte after maxval
    # ASCII decimal digits alone (int() also takes a sign and '_'),
    # at most 9 of them, which bounds what int() parses
    if not all(t.isdigit() and len(t) <= 9 for t in tokens):
        raise InputError(f"{path}: malformed header")
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise InputError(f"{path}: unsupported maxval {maxval}")
    if min(w, h) < 1:
        raise InputError(f"{path}: image of {w}x{h} pixels")
    payload = blob[pos:pos + w * h * channels]
    if len(payload) != w * h * channels:
        raise InputError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype=np.uint8), h, w


def ppm_pixels(path: str) -> np.ndarray:
    """A P6 file's uint8 pixels [3,H,W]."""
    raw, h, w = _read_netpbm(path, b"P6", 3)
    return raw.reshape(h, w, 3).transpose(2, 0, 1)


def ppm_read(path: str) -> np.ndarray:
    """A P6 file decoded to ``COMPUTE`` values [3,H,W] in [0, 1]."""
    return decode(ppm_pixels(path))


def pgm_read(path: str) -> np.ndarray:
    """A P5 file decoded to ``COMPUTE`` values [1,H,W] in [0, 1]."""
    raw, h, w = _read_netpbm(path, b"P5", 1)
    return decode(raw.reshape(1, h, w))


# ---------------------------------------------------------------------------
# dataset generation and manifests


def generate_domain_dataset(spec: DomainSpec, out_dir: str,
                            unlabeled_train: bool = False) -> dict:
    """Render a class-balanced domain to disk and write its manifest.

    Records alternate live/spoof; every fifth record is the held-out test
    split. With ``unlabeled_train`` the train-split records drop their label
    and depth entirely (the adaptation input), while test records stay
    labeled for sealed evaluation. Each pass of ``BLOCK`` records is
    rendered, quantized to its files' pixels and written before the next.
    """
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "depth"), exist_ok=True)
    total = 2 * spec.count_per_class
    # derive_seed(spec.seed, idx) for every idx, as one draw
    seeds = Rng(spec.seed).next_uint64(total)
    records = []
    for start in range(0, total, BLOCK):
        idx = np.arange(start, min(start + BLOCK, total))
        labels = 1 - idx % 2  # even index live, odd spoof
        images, depths = render_block(labels, spec, seeds[idx])
        for i, label, image, depth in zip(idx.tolist(), labels.tolist(),
                                          quantize(images), quantize(depths)):
            split = "test" if i % 5 == 4 else "train"
            stem = f"{spec.name}_{split}_{i:05d}"
            image_rel = f"images/{stem}.ppm"
            _write_netpbm(os.path.join(out_dir, image_rel), "P6", image)
            record = {"image": image_rel, "domain": spec.name, "split": split}
            unlabeled = unlabeled_train and split == "train"
            if not unlabeled:
                record["label"] = label
                depth_rel = f"depth/{stem}.pgm"
                _write_netpbm(os.path.join(out_dir, depth_rel), "P5", depth)
                record["depth"] = depth_rel
            records.append(record)

    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "domain": spec.name,
        "records": records,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


def _check_records(path: str, records):
    """Raise ``InputError`` naming the first record that a dataset load
    could not read: each needs string ``image``, ``split`` and ``domain``,
    an optional string ``depth`` and an optional integer ``label`` of 0 or
    1; no file path may hold a NUL byte."""
    if not isinstance(records, list):
        raise InputError(f"{path}: records must be a list of objects")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise InputError(f"{path}: records[{i}] must be an object")
        for key in ("image", "split", "domain"):
            if not isinstance(rec.get(key), str):
                raise InputError(
                    f"{path}: records[{i}] needs a string {key!r}")
        if "depth" in rec and not isinstance(rec["depth"], str):
            raise InputError(f"{path}: records[{i}] 'depth' must be a string")
        for key in ("image", "depth"):
            if "\0" in rec.get(key, ""):
                raise InputError(f"{path}: records[{i}] {key!r} holds a "
                                 f"NUL byte")
        label = rec.get("label", 0)
        if not RULES[int][0](label) or label not in (0, 1):
            raise InputError(f"{path}: records[{i}] 'label' must be 0 or 1, "
                             f"got {label!r}")


def read_json(path: str):
    """A JSON file's value; a directory, text that is not UTF-8 or not JSON,
    or an integer of too many digits raises ``InputError`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (IsADirectoryError, NotADirectoryError) as err:
        raise InputError(f"{path}: {err.strerror}")
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text: {err}")
    except json.JSONDecodeError as err:
        raise InputError(f"malformed JSON in {path}: line {err.lineno} "
                         f"column {err.colno}: {err.msg}")
    except ValueError as err:  # past the interpreter's integer digit limit
        raise InputError(f"{path}: {err}")


def load_manifest(root: str) -> dict:
    path = os.path.join(root, "manifest.json")
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise InputError(f"{path}: manifest root must be a JSON object")
    version = manifest.get("schema_version")
    if not RULES[int][0](version) or version != MANIFEST_SCHEMA_VERSION:
        raise InputError(
            f"{path}: manifest schema version {version!r}, expected "
            f"{MANIFEST_SCHEMA_VERSION}"
        )
    _check_records(path, manifest.get("records"))
    paths = [rec["image"] for rec in manifest["records"]]
    if len(paths) != len(set(paths)):
        raise InputError(f"{path}: duplicate image paths in manifest")
    return manifest


def load_dataset(root: str) -> Dataset:
    """Read every record of a manifest into memory, images as the uint8
    pixels of their files. Every image must have the first one's shape, and
    every depth map ``DEPTH_SHAPE``. A record's paths are joined to
    ``root``, so an absolute one, or one that climbs out with ``..``, is
    read where it points."""
    manifest = load_manifest(root)
    records = manifest["records"]
    if not records:
        raise InputError(f"{root}: manifest lists no records")

    def read(reader, i, key):
        try:
            return reader(os.path.join(root, records[i][key]))
        except OSError as err:  # a directory is refused in _read_netpbm
            raise InputError(f"{os.path.join(root, 'manifest.json')}: "
                             f"records[{i}] {key!r} cannot be opened: "
                             f"{err.strerror}")

    images = None
    labels, depths = [], []
    splits, domains = [], []
    for i, rec in enumerate(records):
        pixels = read(ppm_pixels, i, "image")
        if images is None:
            images = np.empty((len(records), *pixels.shape), np.uint8)
        elif pixels.shape != images.shape[1:]:
            raise InputError(f"{root}: {rec['image']} has shape "
                             f"{pixels.shape}, expected {images.shape[1:]}")
        images[i] = pixels
        labels.append(rec.get("label", -1))
        if "depth" in rec:
            depth = read(pgm_read, i, "depth")
            if depth.shape != DEPTH_SHAPE:
                raise InputError(f"{root}: {rec['depth']} has shape "
                                 f"{depth.shape}, expected {DEPTH_SHAPE}")
            depths.append(depth)
        else:
            depths.append(np.zeros(DEPTH_SHAPE, COMPUTE))
        splits.append(rec["split"])
        domains.append(rec["domain"])
    return Dataset(
        images=images,
        labels=np.asarray(labels, dtype=np.int64),
        depths=np.stack(depths),
        splits=splits,
        domains=domains,
    )


def merge_datasets(datasets) -> Dataset:
    """Concatenate several in-memory datasets into one pool."""
    return Dataset(
        images=np.concatenate([d.images for d in datasets]),
        labels=np.concatenate([d.labels for d in datasets]),
        depths=np.concatenate([d.depths for d in datasets]),
        splits=sum((d.splits for d in datasets), []),
        domains=sum((d.domains for d in datasets), []),
    )


def batch_iterator(dataset: Dataset, batch_size: int, seed: int):
    """Yield full batches over a seeded shuffle of the dataset, images
    decoded; the remainder that does not fill a batch is dropped."""
    n = len(dataset.images)
    order = Rng(seed).shuffle(np.arange(n))
    for start in range(0, (n // batch_size) * batch_size, batch_size):
        idx = order[start:start + batch_size]
        yield {
            "images": decode(dataset.images[idx]),
            "labels": dataset.labels[idx],
            "depths": dataset.depths[idx],
        }


def default_domain_specs(count_per_class: int = 320, seed: int = 100):
    """The two-domain benchmark pair used by the end-to-end runs.

    The styles share geometry but disagree in channel balance and exposure,
    a gap the generator can close with low-frequency color corrections while
    the spoof grating survives untouched.
    """
    source = DomainSpec(
        name="source",
        gain=(1.0, 0.92, 0.86),
        brightness=0.02,
        blur=0,
        noise=0.01,
        count_per_class=count_per_class,
        seed=derive_seed(seed, 1),
    )
    target = DomainSpec(
        name="target",
        gain=(0.60, 0.85, 1.10),
        brightness=0.12,
        blur=1,
        noise=0.015,
        count_per_class=count_per_class,
        seed=derive_seed(seed, 2),
    )
    return source, target
