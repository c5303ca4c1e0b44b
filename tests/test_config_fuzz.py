"""Seeded mutations of a valid ``gda gen-data`` config, run through
``cli.main`` in process. Every mutation is bad input: it must exit 1 with one
``error:`` line that names what it refuses, print no traceback and leave no
``--out`` directory behind."""

import json
import shutil
from dataclasses import fields

import pytest

from gdafas.cli import _TRAIN, _TYPES, main
from gdafas.data import DomainSpec
from gdafas.rng import Rng

# every config key at a valid value, and two domains, one unlabeled
BASE = {
    "batch_size": 8, "stage1_epochs": 1, "stage2_steps": 1, "lr": 0.001,
    "eta": 0.1, "lambda_ent": 0.01, "lambda_ph": 0.01, "alpha": 0.1,
    "seed": 3, "use_dsc": True, "data": "d", "model": "m.gdac", "out": "run",
    "source_data": "s", "report": "r.csv", "input": "a.ppm", "ref": "b.ppm",
    "split": "test", "count_per_class": 2, "trials": 2,
    "domains": [
        {"name": "lab", "gain": [1.0, 0.9, 0.8], "brightness": 0.05,
         "blur": 1, "noise": 0.01, "count_per_class": 1, "seed": 4},
        {"name": "field", "unlabeled_train": True},
    ],
}
# the JSON type of each domain key; a gain is a JSON list
DOMAIN_TYPES = {**{f.name: list if f.type is tuple else f.type
                   for f in fields(DomainSpec)}, "unlabeled_train": bool}
# values of another JSON type than the key's, each refused by its rule
WRONG = {
    int: [1.5, "2", [2], {"n": 2}],
    float: ["0.5", [0.5], {"x": 0.5}, True],
    bool: [1, 0.0, "true", [True]],
    str: [3, 0.5, True, ["x"], {"p": "x"}],
    list: ["lab", 3, {"name": "lab"}, True],
    dict: [3, "lab", True, [1]],
}
HUGE = 10 ** 400  # an integer no float can hold
KINDS = ("type", "null", "bool_for_int", "swap", "entry", "huge", "digits",
         "repeated_name", "root", "not_utf8", "empty", "truncated",
         "directory")
CASES = 260


def _sites():
    """(path, JSON type, the start of the refusal line) of each value."""
    training = "error: invalid training configuration: "
    sites = [((key,), kind, f"{training if key in _TRAIN else 'error: '}"
              f"{key} must be") for key, kind in _TYPES.items()
             if kind is not list]
    sites.append((("domains",), list,
                  "error: domains must be a list of objects"))
    for i in range(len(BASE["domains"])):
        sites.append((("domains", i), dict,
                      f"error: domains[{i}] must be a JSON object"))
        for key, kind in DOMAIN_TYPES.items():
            what = key if key == "unlabeled_train" else f"domain {key}"
            sites.append((("domains", i, key), kind,
                          f"error: invalid domains[{i}]: {what} must be"))
    return sites


def _pick(rng: Rng, items):
    return items[int(rng.next_uint64(1)[0] % len(items))]


def _value_at(config, path):
    """The value at ``path``, or None where a domain leaves its key out."""
    for step in path:
        if isinstance(config, dict) and step not in config:
            return None
        config = config[step]
    return config


# each value mutation: the sites it applies to, and the value it puts there
# given (rng, the site's JSON type, its old value)
MUTATIONS = {
    "type": (lambda kind, old: kind is not dict,
             lambda rng, kind, old: _pick(rng, WRONG[kind])),
    "null": (lambda kind, old: kind is not dict,
             lambda rng, kind, old: None),
    "bool_for_int": (lambda kind, old: kind is int,
                     lambda rng, kind, old: _pick(rng, [True, False])),
    # a list becomes its first item, a scalar a list of itself
    "swap": (lambda kind, old: kind is not dict and old is not None,
             lambda rng, kind, old: old[0] if kind is list else [old]),
    "entry": (lambda kind, old: kind is dict,
              lambda rng, kind, old: _pick(rng, WRONG[dict])),
    "huge": (lambda kind, old: kind in (int, float),
             lambda rng, kind, old: _pick(rng, [HUGE, -HUGE])),
    # over the parser's limit of 4,300 digits; json.dumps cannot write it
    "digits": (lambda kind, old: kind is int,
               lambda rng, kind, old: DIGITS),
}
DIGITS = "<a 4,400-digit integer>"


def _mutate(rng: Rng, kind: str):
    """One mutation: (what it did, the file's bytes or None for a
    directory, the start of the refusal line)."""
    config = json.loads(json.dumps(BASE))
    if kind in MUTATIONS:
        applies, make = MUTATIONS[kind]
        path, site_kind, refusal = _pick(rng, [
            site for site in _sites()
            if applies(site[1], _value_at(config, site[0]))])
        new = make(rng, site_kind, _value_at(config, path))
        _value_at(config, path[:-1])[path[-1]] = new
        blob = _dump(config)
        if new == DIGITS:
            blob = blob.replace(_dump(DIGITS), b"1" + b"0" * 4400)
            refusal = "error: cfg.json: Exceeds the limit (4300 digits)"
        return f"{kind} {path}={new!r}"[:120], blob, refusal
    text = _dump(config)
    if kind == "repeated_name":
        config["domains"][1]["name"] = config["domains"][0]["name"]
        return kind, _dump(config), ("error: invalid domains[1]: domain name "
                                     "'lab' is already used")
    if kind == "root":
        root = _pick(rng, [[], [BASE], 3, "config", None, True])
        return f"root {root!r}", _dump(root), (
            "error: cfg.json: config root must be a JSON object")
    if kind == "not_utf8":
        at = int(rng.next_uint64(1)[0] % (len(text) + 1))
        return f"not_utf8 at {at}", text[:at] + b"\xff" + text[at:], (
            "error: cfg.json: not UTF-8 text")
    if kind == "empty":
        return kind, b"", "error: malformed JSON in cfg.json"
    if kind == "truncated":
        at = 1 + int(rng.next_uint64(1)[0] % (len(text) - 1))
        return f"truncated at {at}", text[:at], (
            "error: malformed JSON in cfg.json")
    return kind, None, "error: config file not found: cfg.json"


def _dump(value) -> bytes:
    return json.dumps(value).encode()


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_mutations_exit_one_with_one_error_line(capsys, tmp_path,
                                                       monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config's relative --out lands here
    argv = ["gen-data", "--config", "cfg.json"]
    assert BASE.keys() == _TYPES.keys()
    # the unmutated config is valid: every refusal below is the mutation's
    (tmp_path / "cfg.json").write_bytes(_dump(BASE))
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["domains"] == [
        {"name": "lab", "records": 2}, {"name": "field", "records": 4}]
    shutil.rmtree(tmp_path / "run")

    cfg = tmp_path / "cfg.json"
    rng = Rng(2701)
    wrong = []
    for case in range(CASES):
        kind = KINDS[case % len(KINDS)]
        what, blob, refusal = _mutate(rng, kind)
        cfg.unlink()
        if blob is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(blob)
        code, out, err = _run(capsys, argv)
        lines = err.splitlines()
        if (code != 1 or out or len(lines) != 1
                or not lines[0].startswith(refusal)
                or [p.name for p in tmp_path.iterdir()] != ["cfg.json"]):
            wrong.append(f"{what}: exit {code}, {err!r}")
        if blob is None:
            cfg.rmdir()
            cfg.touch()
        shutil.rmtree(tmp_path / "run", ignore_errors=True)
    assert wrong == []


@pytest.mark.parametrize("config, line", [
    ({"lr": HUGE}, "invalid training configuration: lr must be a finite "
     f"number, got {HUGE}"),
    ({"seed": -HUGE}, "invalid training configuration: seed must be an "
     f"integer, got {-HUGE}"),
    ({"trials": HUGE}, f"trials must be an integer, got {HUGE}"),
    ({"domains": [{"name": "a", "noise": HUGE}]},
     f"invalid domains[0]: domain noise must be finite and >= 0, got {HUGE}"),
    ({"domains": [{"name": "a", "gain": [1, HUGE, 1]}]},
     f"invalid domains[0]: domain gain must be 3 finite numbers, "
     f"got (1, {HUGE}, 1)"),
], ids=["lr", "seed", "trials", "domain_noise", "domain_gain"])
def test_an_integer_beyond_the_float_range_exits_one(capsys, tmp_path,
                                                      config, line):
    # it used to escape the type check as an OverflowError (exit 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = _run(capsys, ["gen-data", "--config", str(cfg),
                                 "--out", str(tmp_path / "d")])
    assert (code, err) == (1, f"error: {line}\n")
    assert not (tmp_path / "d").exists()


def test_an_integer_of_too_many_digits_exits_one(capsys, tmp_path):
    # the JSON parser's digit limit raised a plain ValueError (exit 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1' + "0" * 4400 + "}")
    code, _, err = _run(capsys, ["gen-data", "--config", str(cfg),
                                 "--out", str(tmp_path / "d")])
    assert code == 1
    assert err.startswith(f"error: {cfg}: Exceeds the limit (4300 digits)")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "d").exists()


def test_a_domain_name_with_a_nul_byte_exits_one(capsys, tmp_path):
    # no path component holds one: it failed in os.makedirs (exit 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domains": [{"name": "a\0b"}]}))
    code, _, err = _run(capsys, ["gen-data", "--config", str(cfg),
                                 "--out", str(tmp_path / "d")])
    assert (code, err) == (1, "error: invalid domains[0]: domain name must "
                           "be a single path component other than . and .., "
                           "got 'a\\x00b'\n")
    assert not (tmp_path / "d").exists()


def test_a_domain_name_too_long_for_the_file_system_exits_one(capsys,
                                                              tmp_path):
    # it passes the name rule and failed in os.makedirs (exit 2), leaving
    # --out behind with the domains made before it
    name = "n" * 300
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domains": [{"name": "lab"}, {"name": name}],
                               "count_per_class": 1}))
    out = tmp_path / "d"
    code, _, err = _run(capsys, ["gen-data", "--config", str(cfg),
                                 "--out", str(out)])
    assert (code, err) == (1, f"error: cannot make directory "
                           f"{out / name}: File name too long\n")
    assert not out.exists()
    # a --out that was there before keeps what it held, and only that
    out.mkdir()
    (out / "keep").write_text("")
    code, _, err = _run(capsys, ["gen-data", "--config", str(cfg),
                                 "--out", str(out)])
    assert code == 1 and len(err.splitlines()) == 1
    assert sorted(p.name for p in out.iterdir()) == ["keep"]
