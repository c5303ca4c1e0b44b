"""Seeded mutations of the binary input files, run through ``cli.main`` in
process: the PPM images and PGM depth maps of a dataset through ``gda
train-source``, an image through ``gda specmix --input`` and CRC-resealed
checkpoint bodies through ``gda eval``. A bad image exits 1 with one
``error:`` line and a corrupt checkpoint exits 2 with one ``failure:``
line; neither prints on stdout or leaves its ``--out`` behind."""

import os
import shutil

import pytest

import gdafas.data as D
from gdafas.checkpoint import save_checkpoint
from gdafas.cli import main
from gdafas.models import build_generator, build_source_bundle
from gdafas.rng import Rng
from mutations import (CHECKPOINT_KINDS, NETPBM_KINDS, below,
                       mutate_checkpoint, mutate_netpbm, run_case)

CASES = 100


def _refused(code, stdout, err, out, expect, names=None):
    """Why a case's outcome is wrong, or None if it is a refusal."""
    lines = err.splitlines()
    start = "error: " if expect == 1 else "failure: "
    if (code != expect or stdout or len(lines) != 1
            or not lines[0].startswith(start) or os.path.exists(out)):
        return f"exit {code}, {stdout!r}, {err!r}"
    if names is not None and names not in lines[0]:
        return f"{lines[0]!r} does not name {names}"
    return None


def _fuzz(capsys, rng, kinds, make, argv, out, expect):
    """Run ``CASES`` cases, ``kinds`` in turn; ``make(kind)`` gives (what,
    the file to replace, its bytes, what the refusal must name)."""
    wrong = []
    for case in range(CASES):
        what, path, blob, names = make(kinds[case % len(kinds)])
        code, stdout, err = run_case(capsys, path, blob, argv)
        why = _refused(code, stdout, err, out, expect, names)
        if why:
            wrong.append(f"{what}: {why}")
        if os.path.isdir(out):
            shutil.rmtree(out)
        elif os.path.exists(out):
            os.remove(out)
    return wrong


@pytest.mark.parametrize("key", ["image", "depth"])
def test_dataset_file_mutations_exit_one(capsys, tmp_path, key):
    data = str(tmp_path / "data")
    records = D.generate_domain_dataset(
        D.DomainSpec(name="a", count_per_class=2, seed=5), data)["records"]
    out = tmp_path / "out"
    argv = ["train-source", "--data", data, "--out", str(out),
            "--batch-size", "2", "--stage1-epochs", "1"]
    pristine = {rec[key]: (tmp_path / "data" / rec[key]).read_bytes()
                for rec in records}
    rng = Rng(3001)

    def make(kind):
        # not the first image, whose shape every other image must have
        name = records[1 + below(rng, len(records) - 1) if key == "image"
                       else below(rng, len(records))][key]
        for other, blob in pristine.items():
            (tmp_path / "data" / other).write_bytes(blob)
        what, blob = mutate_netpbm(rng, kind, pristine[name])
        return f"{name} {what}", tmp_path / "data" / name, blob, name

    # the unmutated files train: every refusal below is the mutation's
    assert main(argv) == 0
    capsys.readouterr()
    shutil.rmtree(out)
    assert _fuzz(capsys, rng, NETPBM_KINDS, make, argv, out, 1) == []


def test_specmix_input_mutations_exit_one(capsys, tmp_path):
    ref = tmp_path / "ref.ppm"
    D.ppm_write(str(ref), Rng(7).uniform(3 * 32 * 32).reshape(3, 32, 32))
    path, out = tmp_path / "in.ppm", tmp_path / "mix.ppm"
    path.write_bytes(ref.read_bytes())
    argv = ["specmix", "--input", str(path), "--ref", str(ref),
            "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    os.remove(out)
    rng = Rng(3002)

    def make(kind):
        what, blob = mutate_netpbm(rng, kind, ref.read_bytes())
        return what, path, blob, None

    assert _fuzz(capsys, rng, NETPBM_KINDS, make, argv, out, 1) == []


def test_checkpoint_mutations_exit_two(capsys, tmp_path):
    bundle = build_source_bundle(13)
    bundle.G = build_generator(13)
    for bn in bundle.bn_layers():  # eval needs stored statistics
        bn.num_updates = 1
    path, out = tmp_path / "model.gdac", tmp_path / "out"
    save_checkpoint(bundle, str(path))
    pristine = path.read_bytes()
    D.generate_domain_dataset(D.DomainSpec(name="a", count_per_class=5,
                                           seed=5), str(tmp_path / "data"))
    argv = ["eval", "--model", str(path), "--data", str(tmp_path / "data"),
            "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    shutil.rmtree(out)
    rng = Rng(3003)

    def make(kind):
        what, name, blob = mutate_checkpoint(rng, kind, pristine)
        return what, path, blob, name

    assert _fuzz(capsys, rng, CHECKPOINT_KINDS, make, argv, out, 2) == []
