"""Binary checkpoint serialization for model bundles.

Layout (all integers little-endian):

    magic   4 bytes  "GDAC"
    version u16      currently 3
    count   u32      number of named tensors
    entry   repeated count times:
        header  name_len u16, name utf-8 bytes,
                ndim u8, dims u32 * ndim       (``_header``)
        payload f32 * prod(dims)
    crc32   u32      over every preceding byte

Entries are ``ModelBundle.state()`` in its order: every persistent layer
field of F, H, R, phi and, when present, G, named like ``F.bn1.running_var``.
The architecture is fixed, so exactly one body is valid for each entry
count: 41 entries without G, 67 with it. A load checks the CRC, the magic
and the version, in that order, then compares the body with the one an
undrawn skeleton of that count writes: each entry's header bytes, in walk
order, with its payload inside the body and no byte after the last entry.
No size is read from the file. Each BN layer's ``num_updates`` must hold a
whole number >= 0. Every violation raises ``CheckpointError``, the one
error class. Weights are stored at 32-bit precision, the precision
the pipeline computes in (``tensor.COMPUTE``), and load as float32 arrays: a
float32 bundle round-trips bit for bit.

Layout history: version 2 dropped phi's third conv, which no pass used;
version 3 dropped the ten conv biases that cannot matter, G's eight in front
of instance norm and frozen phi's two. Files of an earlier version are
rejected; nothing reads them.
"""

import struct
import zlib

import numpy as np

from . import tensor as T
from .models import ModelBundle, build_generator, build_source_bundle

MAGIC = b"GDAC"
VERSION = 3


class CheckpointError(Exception):
    """The file is not a checkpoint of this format and architecture."""


def _header(name: str, shape) -> bytes:
    """An entry's bytes before its payload."""
    encoded = name.encode("utf-8")
    return (struct.pack("<H", len(encoded)) + encoded
            + struct.pack(f"<B{len(shape)}I", len(shape), *shape))


def save_checkpoint(bundle: ModelBundle, path: str):
    entries = bundle.state()
    blob = bytearray(MAGIC + struct.pack("<HI", VERSION, len(entries)))
    for name, arr in entries.items():
        blob += _header(name, arr.shape) + arr.astype("<f4").tobytes()
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path: str) -> ModelBundle:
    """Rebuild a bundle from a checkpoint file.

    An undrawn skeleton is built, with a generator when the entry count is
    not the source bundle's, and filled from the payloads in walk order.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 14:
        raise CheckpointError("file too short to hold a checksum")
    body = memoryview(blob)[:-4]
    (stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored:
        raise CheckpointError("checksum mismatch; file corrupt or truncated")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version, count = struct.unpack("<HI", blob[4:10])
    if version != VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} unsupported, expected "
            f"{VERSION}"
        )
    bundle = build_source_bundle(None)
    expected = bundle.state()
    source_count = len(expected)
    if count != source_count:
        bundle.G = build_generator(None)
        expected = bundle.state()
    if count != len(expected):
        raise CheckpointError(
            f"{count} entries, expected {source_count} or {len(expected)}")
    pos, tensors = 10, {}
    for name, current in expected.items():
        header = _header(name, current.shape)
        start = pos + len(header)
        end = start + 4 * current.size
        if body[pos:start] != header:
            raise CheckpointError(
                f"entry {len(tensors)} is not {name} of shape {current.shape}")
        if end > len(body):
            raise CheckpointError(f"entry {name} runs past the end of the body")
        raw = np.frombuffer(body[start:end], dtype="<f4")
        tensors[name] = raw.astype(T.COMPUTE).reshape(current.shape)
        pos = end
    if pos != len(body):
        raise CheckpointError(
            f"{len(body) - pos} bytes follow the last of {count} entries")
    try:
        bundle.load_state(tensors)
    except ValueError as err:
        raise CheckpointError(str(err))
    return bundle
