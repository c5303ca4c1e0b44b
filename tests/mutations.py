"""Seeded mutations of valid input files, shared by the fuzz tests.

``mutate`` makes one bad JSON file of a given kind from a valid document: a
value kind changes one value of the document, at a site it applies to; a
file kind breaks the file itself. ``mutate_netpbm`` breaks a binary image
and ``mutate_checkpoint`` a checkpoint, whose CRC it recomputes, so only
the body's checks can refuse it. ``run_case`` puts the file (or a
directory) in place and runs ``cli.main`` in process. A bad JSON or image
file is bad input (exit 1, one ``error:`` line); a corrupt checkpoint is a
failure (exit 2, one ``failure:`` line).
"""

import json
import struct
import zlib

import numpy as np

from gdafas.cli import main
from gdafas.rng import Rng

# values of another JSON type than a site's, each refused by its rule
WRONG = {
    int: [1.5, "2", [2], {"n": 2}],
    float: ["0.5", [0.5], {"x": 0.5}, True],
    bool: [1, 0.0, "true", [True]],
    str: [3, 0.5, True, ["x"], {"p": "x"}],
    list: ["lab", 3, {"name": "lab"}, True],
    dict: [3, "lab", True, [1]],
}
HUGE = 10 ** 400  # an integer no float can hold
DIGITS = "<a 4,400-digit integer>"
# JSON's structural bytes: one put in place of another breaks the syntax
STRUCTURE = b'{}[]:,"'


def below(rng: Rng, n: int) -> int:
    """A draw from 0 .. n - 1."""
    return int(rng.next_uint64(1)[0] % n)


def pick(rng: Rng, items):
    return items[below(rng, len(items))]


def value_at(doc, path):
    """The value at ``path``, or None where an object leaves its key out."""
    for step in path:
        if isinstance(doc, dict) and step not in doc:
            return None
        doc = doc[step]
    return doc


# each value mutation: the sites it applies to, given the site's JSON type
# and old value, and the value it puts there given (rng, type, old value)
MUTATIONS = {
    "type": (lambda kind, old: kind is not dict,
             lambda rng, kind, old: pick(rng, WRONG[kind])),
    "null": (lambda kind, old: kind is not dict,
             lambda rng, kind, old: None),
    "bool_for_int": (lambda kind, old: kind is int,
                     lambda rng, kind, old: pick(rng, [True, False])),
    # a list becomes its first item, a scalar a list of itself
    "swap": (lambda kind, old: kind is not dict and old is not None,
             lambda rng, kind, old: old[0] if kind is list else [old]),
    "entry": (lambda kind, old: kind is dict,
              lambda rng, kind, old: pick(rng, WRONG[dict])),
    "huge": (lambda kind, old: kind in (int, float),
             lambda rng, kind, old: pick(rng, [HUGE, -HUGE])),
    # over the parser's limit of 4,300 digits; json.dumps cannot write it
    "digits": (lambda kind, old: kind is int,
               lambda rng, kind, old: DIGITS),
}
FILE_KINDS = ("root", "not_utf8", "empty", "truncated", "flip", "directory")


def dump(value) -> bytes:
    return json.dumps(value).encode()


def mutate(rng: Rng, kind: str, doc, sites, refusals):
    """One mutation of the JSON value ``doc``: (what it did, the file's
    bytes or None for a directory in its place, the start of the refusal
    line). A ``MUTATIONS`` kind changes the value at one of ``sites``, each
    (path, JSON type, refusal), that it applies to; a ``FILE_KINDS`` kind, or
    ``digits``, takes its refusal from ``refusals``."""
    doc = json.loads(json.dumps(doc))
    if kind in MUTATIONS:
        applies, make = MUTATIONS[kind]
        path, site_kind, refusal = pick(rng, [
            site for site in sites
            if applies(site[1], value_at(doc, site[0]))])
        new = make(rng, site_kind, value_at(doc, path))
        value_at(doc, path[:-1])[path[-1]] = new
        blob = dump(doc)
        if new == DIGITS:
            blob = blob.replace(dump(DIGITS), b"1" + b"0" * 4400)
            refusal = refusals["digits"]
        return f"{kind} {path}={new!r}"[:120], blob, refusal
    text, refusal = dump(doc), refusals[kind]
    if kind == "root":
        root = pick(rng, [[], [doc], 3, "config", None, True])
        return f"root {root!r}", dump(root), refusal
    if kind == "not_utf8":
        at = below(rng, len(text) + 1)
        return f"not_utf8 at {at}", text[:at] + b"\xff" + text[at:], refusal
    if kind == "empty":
        return kind, b"", refusal
    if kind == "truncated":
        at = 1 + below(rng, len(text) - 1)
        return f"truncated at {at}", text[:at], refusal
    if kind == "flip":
        at = pick(rng, [i for i, b in enumerate(text) if b in STRUCTURE])
        byte = pick(rng, [b for b in STRUCTURE if b != text[at]])
        return (f"flip at {at} to {chr(byte)}",
                text[:at] + bytes([byte]) + text[at + 1:], refusal)
    assert kind == "directory", kind
    return kind, None, refusal


def bad_numbers(old: bytes):
    """Header numbers in place of ``old``: spellings of it that int() reads
    (a sign, a '_') or that are not ASCII decimal, no number, and sizes the
    file's payload or the dataset refuses."""
    n = int(old)
    arabic = "".join(chr(0x660 + int(d)) for d in old.decode()).encode()
    return [b"+" + old, b"0_" + old, b"-" + old, old + b".0", arabic, b"x",
            b"1" * 5000, b"0", *(b"%d" % k for k in (n // 2, n + 1, 2 * n))]


# bytes that are not whitespace, a digit or '#': one in place of a header
# byte breaks the magic or a number
NOT_HEADER = b"AZaz+-_.\0\xff"
NETPBM_KINDS = ("number", "flip", "truncated", "empty", "directory")


def mutate_netpbm(rng: Rng, kind: str, blob: bytes):
    """One bad netpbm file of a ``NETPBM_KINDS`` kind from ``blob``, as
    ``gda`` writes one (``P6\\n32 32\\n255\\n`` and the payload): (what
    it did, the file's bytes or None for a directory in its place)."""
    magic, size, maxval, payload = blob.split(b"\n", 3)
    if kind == "number":
        numbers = [*size.split(b" "), maxval]
        at = below(rng, 3)
        numbers[at] = pick(rng, bad_numbers(numbers[at]))
        return (f"number {at} = {numbers[at][:12]!r}",
                b"\n".join([magic, b" ".join(numbers[:2]), numbers[2],
                            payload]))
    if kind == "flip":
        at = below(rng, len(blob) - len(payload))
        byte = pick(rng, [b for b in NOT_HEADER if b != blob[at]])
        return f"flip at {at}", blob[:at] + bytes([byte]) + blob[at + 1:]
    if kind == "truncated":
        at = below(rng, len(blob))
        return f"truncated at {at}", blob[:at]
    if kind == "empty":
        return kind, b""
    assert kind == "directory", kind
    return kind, None


def reseal(body: bytes) -> bytes:
    """Append a fresh CRC, as anyone editing a checkpoint body can."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def checkpoint_entries(body: bytes):
    """(name, header start, payload start, payload end) of each entry of a
    checkpoint body, the file without its CRC."""
    (count,) = struct.unpack("<I", body[6:10])
    entries, pos = [], 10
    for _ in range(count):
        (size,) = struct.unpack("<H", body[pos:pos + 2])
        at = pos + 2 + size
        ndim = body[at]
        dims = struct.unpack(f"<{ndim}I", body[at + 1:at + 1 + 4 * ndim])
        start = at + 1 + 4 * ndim
        end = start + 4 * int(np.prod(dims))
        entries.append((body[pos + 2:at].decode(), pos, start, end))
        pos = end
    return entries


# the value kinds: the entries each applies to, and the float32 it writes
VALUES = {
    "nan": (lambda name: True, lambda rng: float("nan")),
    "inf": (lambda name: True, lambda rng: pick(rng, [np.inf, -np.inf])),
    "negative_var": (lambda name: name.endswith(".running_var"),
                     lambda rng: -(1 + below(rng, 1000)) / 1024),
    "fractional_updates": (lambda name: name.endswith(".num_updates"),
                           lambda rng: below(rng, 1000) + 0.5),
}
CHECKPOINT_KINDS = ("header", "count", "truncated", "trailing", *VALUES)


def mutate_checkpoint(rng: Rng, kind: str, blob: bytes):
    """One corrupt checkpoint of a ``CHECKPOINT_KINDS`` kind from ``blob``,
    its CRC recomputed: (what it did, the entry whose value it set or None,
    the file's bytes)."""
    body = blob[:-4]
    entries = checkpoint_entries(body)
    name = None
    if kind == "header":
        # a byte of the file's header, or of an entry's name and shape
        first, last = pick(rng, [(0, 10)] + [(head, start)
                                             for _, head, start, _ in entries])
        at = first + below(rng, last - first)
        byte = (body[at] + 1 + below(rng, 255)) % 256
        what, body = f"header byte {at}", (body[:at] + bytes([byte])
                                          + body[at + 1:])
    elif kind == "count":
        count = pick(rng, [n for n in (len(entries) + 1, len(entries) - 1,
                                       0, 41, 67, below(rng, 2 ** 32))
                           if n != len(entries)])
        what = f"count {count}"
        body = body[:6] + struct.pack("<I", count) + body[10:]
    elif kind == "truncated":
        at = below(rng, len(body))
        what, body = f"truncated at {at}", body[:at]
    elif kind == "trailing":
        extra = rng.next_uint64(1 + below(rng, 16)).astype(np.uint8).tobytes()
        what, body = f"{len(extra)} trailing bytes", body + extra
    else:
        applies, make = VALUES[kind]
        name, _, start, end = pick(rng, [e for e in entries if applies(e[0])])
        at = start + 4 * below(rng, (end - start) // 4)
        value = make(rng)
        what = f"{name} at {at} = {value}"
        body = body[:at] + struct.pack("<f", value) + body[at + 4:]
    return what, name, reseal(body)


def run_case(capsys, path, blob, argv):
    """Put ``blob`` at ``path`` (a directory when it is None), run
    ``cli.main(argv)`` and leave an empty file at ``path``; returns (exit
    code, stdout, stderr)."""
    path.unlink()
    if blob is None:
        path.mkdir()
    else:
        path.write_bytes(blob)
    code = main(argv)
    captured = capsys.readouterr()
    if blob is None:
        path.rmdir()
        path.touch()
    return code, captured.out, captured.err
