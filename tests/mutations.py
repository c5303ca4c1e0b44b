"""Seeded mutations of a valid JSON input file, shared by the fuzz tests.

``mutate`` makes one bad file of a given kind from a valid document: a
value kind changes one value of the document, at a site it applies to; a
file kind breaks the file itself. ``run_case`` puts the file (or a directory)
in place and runs ``cli.main`` in process. Every mutation is bad input, so
the tests require exit 1 and one ``error:`` line.
"""

import json

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


def pick(rng: Rng, items):
    return items[int(rng.next_uint64(1)[0] % len(items))]


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
        at = int(rng.next_uint64(1)[0] % (len(text) + 1))
        return f"not_utf8 at {at}", text[:at] + b"\xff" + text[at:], refusal
    if kind == "empty":
        return kind, b"", refusal
    if kind == "truncated":
        at = 1 + int(rng.next_uint64(1)[0] % (len(text) - 1))
        return f"truncated at {at}", text[:at], refusal
    if kind == "flip":
        at = pick(rng, [i for i, b in enumerate(text) if b in STRUCTURE])
        byte = pick(rng, [b for b in STRUCTURE if b != text[at]])
        return (f"flip at {at} to {chr(byte)}",
                text[:at] + bytes([byte]) + text[at + 1:], refusal)
    assert kind == "directory", kind
    return kind, None, refusal


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
