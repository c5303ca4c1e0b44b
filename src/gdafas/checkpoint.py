"""Binary checkpoint serialization for model bundles.

Layout (all integers little-endian):

    magic   4 bytes  "GDAC"
    version u16      currently 3
    count   u32      number of named tensors
    entry   repeated count times:
        name_len u16, name utf-8 bytes,
        ndim u8, dims u32 * ndim,
        payload f32 * prod(dims)
    crc32   u32      over every preceding byte

The CRC is verified before any parsing, so a truncated or corrupted file
fails with a checksum error rather than a confusing parse error. A body with
a valid CRC is still not trusted: every read is checked against the body's
end, the last entry must end exactly where the CRC begins, and no entry name
may repeat. Weights are stored at 32-bit precision, the precision the
pipeline computes in (``tensor.COMPUTE``), and load as float32 arrays: a
float32 bundle round-trips bit for bit.

Entries are ``ModelBundle.state()`` in its order: every persistent layer
field of F, H, R, phi and, when present, G, named like ``F.bn1.running_var``.
Layout history: version 2 dropped phi's third conv, which no pass used;
version 3 dropped the ten conv biases that cannot matter, G's eight in front
of instance norm and frozen phi's two (41 entries, 67 with G). Files of an
earlier version are rejected with ``VersionError``; nothing reads them.
"""

import math
import struct
import zlib

import numpy as np

from . import tensor as T
from .models import ModelBundle, build_generator, build_source_bundle

MAGIC = b"GDAC"
VERSION = 3
_MAX_ELEMENTS = 1 << 28  # parse-time guard against absurd dim products


class CheckpointError(Exception):
    """Base class for checkpoint format violations."""


class BadMagicError(CheckpointError):
    pass


class CrcMismatchError(CheckpointError):
    pass


class VersionError(CheckpointError):
    pass


class MissingTensorError(CheckpointError):
    pass


class DimOverflowError(CheckpointError):
    pass


class MalformedError(CheckpointError):
    """The body does not parse to exactly its declared entries."""


def save_checkpoint(bundle: ModelBundle, path: str):
    entries = bundle.state()
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<HI", VERSION, len(entries))
    for name, arr in entries.items():
        if arr.ndim > 255 or any(d >= 1 << 32 for d in arr.shape):
            raise DimOverflowError(f"tensor {name} has unserializable shape")
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype("<f4").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def _parse(blob: bytes):
    if len(blob) < 14:
        raise CrcMismatchError("file too short to hold a checksum")
    (stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored:
        raise CrcMismatchError("checksum mismatch; file corrupt or truncated")
    if blob[:4] != MAGIC:
        raise BadMagicError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, count = struct.unpack("<HI", blob[4:10])
    if version != VERSION:
        raise VersionError(
            f"checkpoint format version {version} unsupported, expected "
            f"{VERSION}"
        )
    body = blob[:-4]
    pos = 10
    tensors = {}

    def take(size):
        nonlocal pos
        if pos + size > len(body):
            raise MalformedError(
                f"entry {len(tensors)} of {count} runs past the end of the body"
            )
        pos += size
        return body[pos - size:pos]

    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedError(f"entry {len(tensors)} has a non-utf-8 name")
        if name in tensors:
            raise MalformedError(f"entry name {name!r} appears more than once")
        (ndim,) = take(1)
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        n = math.prod(dims)
        if n > _MAX_ELEMENTS:
            raise DimOverflowError(
                f"tensor {name} declares {n} elements, over the parse limit"
            )
        raw = np.frombuffer(take(4 * n), dtype="<f4")
        tensors[name] = raw.astype(T.COMPUTE).reshape(dims)
    if pos != len(body):
        raise MalformedError(
            f"{len(body) - pos} bytes follow the last of {count} entries"
        )
    return tensors


def load_checkpoint(path: str) -> ModelBundle:
    """Rebuild a bundle from a checkpoint file.

    The architecture is fixed, so an undrawn skeleton is constructed and
    filled by name; a generator is attached iff the file carries G tensors.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    tensors = _parse(blob)
    bundle = build_source_bundle(None)
    if any(name.startswith("G.") for name in tensors):
        bundle.G = build_generator(None)
    expected = bundle.state()
    missing = expected.keys() - tensors.keys()
    if missing:
        raise MissingTensorError(f"missing tensors: {sorted(missing)[:5]}")
    unknown = tensors.keys() - expected.keys()
    if unknown:
        raise MissingTensorError(f"unknown tensors: {sorted(unknown)[:5]}")
    for name, current in expected.items():
        if tensors[name].shape != current.shape:
            raise MissingTensorError(
                f"tensor {name} shape {tensors[name].shape} != "
                f"{current.shape}"
            )
    bundle.load_state(tensors)
    return bundle
