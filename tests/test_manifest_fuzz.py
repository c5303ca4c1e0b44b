"""Seeded mutations of a valid dataset ``manifest.json``, run through
``cli.main`` in process by ``gda train-source``. Every mutation is bad
input: it must exit 1 with one ``error:`` line that names what it refuses,
print nothing on stdout and leave no ``--out`` directory behind."""

import os
import shutil

import gdafas.data as D
from gdafas.rng import Rng
from mutations import FILE_KINDS, MUTATIONS, dump, mutate, pick, run_case

KINDS = (*MUTATIONS, *FILE_KINDS, "nul", "long", "dir")
CASES = 160
PATHS = {  # a record path that cannot be read, and how it is refused
    "nul": ["images/a\0b.ppm", "\0"],
    "long": ["n" * 300, "images/" + "n" * 300 + ".ppm"],
    "dir": ["images", "depth", ".", ""],
}


def _sites(manifest, m):
    """(path, JSON type, the start of the refusal line) of each value the
    loader reads."""
    sites = [(("schema_version",), int, f"error: {m}: manifest schema "
              f"version"),
             (("records",), list, f"error: {m}: records must be a list of "
              f"objects")]
    for i, record in enumerate(manifest["records"]):
        at = f"error: {m}: records[{i}] "
        sites.append((("records", i), dict, at + "must be an object"))
        sites += [(("records", i, key), str, at + f"needs a string {key!r}")
                  for key in ("image", "split", "domain")]
        sites.append((("records", i, "depth"), str,
                      at + "'depth' must be a string"))
        sites.append((("records", i, "label"), int,
                      at + "'label' must be 0 or 1"))
    return sites


def _path_case(rng, kind, manifest, data, m):
    """A record's image or depth path set to one of ``PATHS[kind]``."""
    manifest = {**manifest, "records": [dict(r) for r in manifest["records"]]}
    i = int(rng.next_uint64(1)[0] % len(manifest["records"]))
    key = pick(rng, ["image", "depth"])
    value = manifest["records"][i][key] = pick(rng, PATHS[kind])
    refusal = {"nul": f"error: {m}: records[{i}] {key!r} holds a NUL byte",
               "long": f"error: {m}: records[{i}] {key!r} cannot be opened: "
               f"File name too long",
               "dir": f"error: {os.path.join(data, value)}: Is a directory"}
    return f"{kind} records[{i}][{key!r}]={value!r}"[:120], dump(manifest), \
        refusal[kind]


def test_manifest_mutations_exit_one_with_one_error_line(capsys, tmp_path):
    data = str(tmp_path / "data")
    manifest = D.generate_domain_dataset(
        D.DomainSpec(name="a", count_per_class=2, seed=5), data)
    m = os.path.join(data, "manifest.json")
    out = tmp_path / "out"
    argv = ["train-source", "--data", data, "--out", str(out),
            "--batch-size", "2", "--stage1-epochs", "1"]
    refusals = {
        "digits": f"error: {m}: Exceeds the limit (4300 digits)",
        "root": f"error: {m}: manifest root must be a JSON object",
        "not_utf8": f"error: {m}: not UTF-8 text",
        "empty": f"error: malformed JSON in {m}",
        "truncated": f"error: malformed JSON in {m}",
        "flip": f"error: malformed JSON in {m}",
        "directory": f"error: {m}: Is a directory",
    }
    # the unmutated manifest trains: every refusal below is the mutation's
    path = tmp_path / "data" / "manifest.json"
    code, _, _ = run_case(capsys, path, dump(manifest), argv)
    assert code == 0
    shutil.rmtree(out)

    rng = Rng(2901)
    sites = _sites(manifest, m)
    wrong = []
    for case in range(CASES):
        kind = KINDS[case % len(KINDS)]
        if kind in PATHS:
            what, blob, refusal = _path_case(rng, kind, manifest, data, m)
        else:
            what, blob, refusal = mutate(rng, kind, manifest, sites,
                                         refusals)
        code, stdout, err = run_case(capsys, path, blob, argv)
        lines = err.splitlines()
        if (code != 1 or stdout or len(lines) != 1
                or not lines[0].startswith(refusal) or out.exists()):
            wrong.append(f"{what}: exit {code}, {err!r}")
        shutil.rmtree(out, ignore_errors=True)
    assert wrong == []
