import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import gdafas.data as D
from gdafas.rng import Rng, derive_seed
from oracles import render_record


def render(label, spec, seed):
    image, depth = D.render_block([label], spec, [seed])
    return image[0], depth[0]


def test_render_is_deterministic():
    spec = D.DomainSpec(name="a", seed=7)
    img1, dep1 = render(1, spec, 123)
    img2, dep2 = render(1, spec, 123)
    assert np.array_equal(img1, img2)
    assert np.array_equal(dep1, dep2)
    img3, _ = render(1, spec, 124)
    assert not np.array_equal(img1, img3)


def test_render_contract():
    spec = D.DomainSpec(name="a")
    live_img, live_dep = render(1, spec, 5)
    spoof_img, spoof_dep = render(0, spec, 5)
    for img in (live_img, spoof_img):
        assert img.shape == (3, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0
    assert live_dep.shape == (1, 8, 8)
    assert live_dep.max() > 0.5  # dome peak near the face center
    assert np.array_equal(spoof_dep, np.zeros((1, 8, 8)))


def test_spoof_has_high_frequency_energy():
    # the grating must dominate the upper frequency band for every seed,
    # in both domain styles, or the class signal is not learnable
    freqs = np.fft.fftfreq(32, d=1.0 / 32)
    fy, fx = np.meshgrid(freqs, freqs, indexing="ij")
    high_band = np.sqrt(fx * fx + fy * fy) >= 8.0
    for spec in D.default_domain_specs(count_per_class=1)[:2]:
        for trial in range(50):
            live, _ = render(1, spec, derive_seed(11, trial))
            spoof, _ = render(0, spec, derive_seed(11, trial))

            def band_energy(img):
                f = np.fft.fft2(img, axes=(1, 2))
                return float((np.abs(f) ** 2)[:, high_band].sum())

            assert band_energy(spoof) > 1.5 * band_energy(live)


@pytest.mark.parametrize("blur", [0, 1, 2, 3])
@pytest.mark.parametrize("noise", [0.0, 0.03])
def test_block_renders_each_record_as_the_one_record_renderer(tmp_path, blur,
                                                             noise):
    spec = D.DomainSpec(name="a", gain=(0.5, 0.85, 1.15), brightness=0.15,
                        blur=blur, noise=noise, seed=blur)
    # both labels, out of the order a generated domain takes them
    labels = [1, 0, 0, 1, 1] * 5
    seeds = [derive_seed(7, i) for i in range(len(labels))]
    images, depths = D.render_block(labels, spec, seeds)
    for i, (label, seed) in enumerate(zip(labels, seeds)):
        image, depth = render_record(label, spec, seed)
        assert images[i].tobytes() == image.tobytes(), i
        assert depths[i].tobytes() == depth.tobytes(), i

    # every file holds the pixels of its record's one-record render, for
    # one record of each label and for a last pass that is not full
    for count in (1, D.BLOCK // 2 + 3):
        out = tmp_path / f"{blur}_{noise}_{count}"
        manifest = D.generate_domain_dataset(
            replace(spec, count_per_class=count), str(out))
        assert len(manifest["records"]) == 2 * count
        for i, rec in enumerate(manifest["records"]):
            image, depth = render_record(rec["label"], spec,
                                         derive_seed(spec.seed, i))
            for key, values, magic in (("image", image, b"P6"),
                                       ("depth", depth, b"P5")):
                pixels = np.clip(np.round(values * 255.0), 0, 255)
                _, h, w = values.shape
                want = magic + f"\n{w} {h}\n255\n".encode() + pixels.astype(
                    np.uint8).transpose(1, 2, 0).tobytes()
                assert (out / rec[key]).read_bytes() == want, (key, i)


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(3, 32, 32))
    path = str(tmp_path / "x.ppm")
    D.ppm_write(path, img)
    back = D.ppm_read(path)
    assert back.shape == (3, 32, 32)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    dep = rng.uniform(size=(1, 8, 8))
    path = str(tmp_path / "x.pgm")
    pixels = D.quantize(dep)
    D._write_netpbm(path, "P5", pixels)
    back = D.pgm_read(path)
    assert back.shape == (1, 8, 8)
    assert np.max(np.abs(back - dep)) <= 0.5 / 255 + 1e-12
    # depths decode as images do
    assert back.dtype == np.float32
    assert np.array_equal(back, D.decode(pixels))


def test_netpbm_extremes_exact(tmp_path):
    path = str(tmp_path / "x.ppm")
    D.ppm_write(path, np.zeros((3, 4, 4)))
    assert np.array_equal(D.ppm_read(path), np.zeros((3, 4, 4)))
    D.ppm_write(path, np.ones((3, 4, 4)))
    assert np.array_equal(D.ppm_read(path), np.ones((3, 4, 4)))


def test_netpbm_rejects_ascii_variants(tmp_path):
    p3 = tmp_path / "a.ppm"
    p3.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(ValueError, match="P3"):
        D.ppm_read(str(p3))
    p2 = tmp_path / "a.pgm"
    p2.write_bytes(b"P2\n1 1\n255\n0\n")
    with pytest.raises(ValueError, match="P2"):
        D.pgm_read(str(p2))


def test_netpbm_rejects_bad_magic_and_truncation(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"XX\n1 1\n255\n...")
    with pytest.raises(ValueError, match="magic"):
        D.ppm_read(str(bad))

    short = tmp_path / "short.ppm"
    D.ppm_write(str(short), np.ones((3, 4, 4)))
    blob = short.read_bytes()
    short.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="truncated"):
        D.ppm_read(str(short))

    for size in (b"0 0", b"0 4", b"4 0"):
        short.write_bytes(b"P6\n" + size + b"\n255\n")
        with pytest.raises(D.InputError, match="pixels"):
            D.ppm_read(str(short))


def test_netpbm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    img = D.pgm_read(str(path))
    assert img.shape == (1, 2, 2)
    assert np.allclose(img * 255, [[[0, 64], [128, 255]]])


def test_generate_manifest_contract(tmp_path):
    spec = D.DomainSpec(name="src", count_per_class=10, seed=3)
    manifest = D.generate_domain_dataset(spec, str(tmp_path))
    records = manifest["records"]
    assert manifest["schema_version"] == 1
    assert len(records) == 20
    labels = [rec["label"] for rec in records]
    assert labels.count(1) == 10 and labels.count(0) == 10
    splits = [rec["split"] for rec in records]
    assert splits.count("test") == 4  # every fifth record
    for rec in records:
        assert os.path.exists(tmp_path / rec["image"])
        assert os.path.exists(tmp_path / rec["depth"])
    assert D.load_manifest(str(tmp_path)) == manifest


def test_manifest_rejects_duplicates_and_bad_version(tmp_path):
    spec = D.DomainSpec(name="src", count_per_class=5, seed=3)
    D.generate_domain_dataset(spec, str(tmp_path))
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())

    broken = json.loads(path.read_text())
    broken["records"][1]["image"] = broken["records"][0]["image"]
    path.write_text(json.dumps(broken))
    with pytest.raises(ValueError, match="duplicate"):
        D.load_manifest(str(tmp_path))

    manifest["schema_version"] = 99
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="schema version"):
        D.load_manifest(str(tmp_path))


def test_unlabeled_target_manifest(tmp_path):
    spec = D.DomainSpec(name="tgt", count_per_class=10, seed=4)
    manifest = D.generate_domain_dataset(
        spec, str(tmp_path), unlabeled_train=True
    )
    for rec in manifest["records"]:
        if rec["split"] == "train":
            assert "label" not in rec and "depth" not in rec
        else:
            assert "label" in rec and "depth" in rec

    data = D.load_dataset(str(tmp_path))
    train = data.subset("train")
    assert np.all(train.labels == -1)
    assert np.array_equal(train.depths, np.zeros_like(train.depths))
    test = data.subset("test")
    assert np.all(test.labels >= 0)


def test_regeneration_is_byte_identical(tmp_path):
    spec = D.DomainSpec(name="src", count_per_class=6, seed=9)
    D.generate_domain_dataset(spec, str(tmp_path / "a"))
    D.generate_domain_dataset(spec, str(tmp_path / "b"))
    manifest_a = (tmp_path / "a" / "manifest.json").read_bytes()
    manifest_b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert manifest_a == manifest_b
    for rec in json.loads(manifest_a)["records"]:
        for key in ("image", "depth"):
            file_a = (tmp_path / "a" / rec[key]).read_bytes()
            file_b = (tmp_path / "b" / rec[key]).read_bytes()
            assert file_a == file_b


def test_load_dataset_and_merge(tmp_path):
    spec_a = D.DomainSpec(name="a", count_per_class=5, seed=1)
    spec_b = D.DomainSpec(name="b", count_per_class=5, seed=2)
    D.generate_domain_dataset(spec_a, str(tmp_path / "a"))
    D.generate_domain_dataset(spec_b, str(tmp_path / "b"))
    ds_a = D.load_dataset(str(tmp_path / "a"))
    ds_b = D.load_dataset(str(tmp_path / "b"))
    assert ds_a.images.shape == (10, 3, 32, 32)
    assert ds_a.depths.shape == (10, 1, 8, 8)
    merged = D.merge_datasets([ds_a, ds_b])
    assert merged.images.shape == (20, 3, 32, 32)
    assert merged.domains.count("a") == 10
    assert merged.domains.count("b") == 10


def test_load_dataset_keeps_file_pixels(tmp_path):
    spec = D.DomainSpec(name="a", count_per_class=4, seed=3)
    manifest = D.generate_domain_dataset(spec, str(tmp_path))
    ds = D.load_dataset(str(tmp_path))
    assert ds.images.dtype == np.uint8
    assert ds.images.flags.c_contiguous
    assert ds.images.nbytes == 8 * 3 * 32 * 32
    read = np.stack([D.ppm_read(str(tmp_path / rec["image"]))
                     for rec in manifest["records"]])
    assert read.dtype == np.float32
    assert D.decode(ds.images).tobytes() == read.tobytes()


def test_decode_is_the_float32_division_on_every_byte():
    pixels = np.arange(256, dtype=np.uint8)
    want = pixels.astype(np.float32) / 255.0
    got = D.decode(pixels)
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    assert got[0] == 0.0 and got[255] == 1.0


@pytest.mark.parametrize("value", [
    np.zeros((2, 3), np.float32), np.zeros(3, np.int64),
    np.zeros(3, bool), [0, 255],
])
def test_decode_takes_only_uint8(value):
    with pytest.raises(TypeError, match="uint8"):
        D.decode(value)


def test_load_dataset_rejects_mixed_shapes_and_no_records(tmp_path):
    spec = D.DomainSpec(name="a", count_per_class=1, seed=3)
    manifest = D.generate_domain_dataset(spec, str(tmp_path))
    D.ppm_write(str(tmp_path / manifest["records"][1]["image"]),
                np.zeros((3, 1, 1)))
    with pytest.raises(ValueError, match=r"shape \(3, 1, 1\)"):
        D.load_dataset(str(tmp_path))
    manifest["records"] = []
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="no records"):
        D.load_dataset(str(tmp_path))


def test_load_dataset_names_a_depth_map_of_another_shape(tmp_path):
    spec = D.DomainSpec(name="a", count_per_class=1, seed=3)
    manifest = D.generate_domain_dataset(spec, str(tmp_path))
    depth = manifest["records"][1]["depth"]
    (tmp_path / depth).write_bytes(b"P5\n16 16\n255\n" + bytes(256))
    with pytest.raises(ValueError, match=rf"{depth} has shape \(1, 16, 16\),"
                                         rf" expected \(1, 8, 8\)"):
        D.load_dataset(str(tmp_path))
    # maps that agree with each other but not with the depth estimator
    # would fail stage 1's loss deep in training
    for rec in manifest["records"]:
        (tmp_path / rec["depth"]).write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    with pytest.raises(D.InputError, match=r"has shape \(1, 4, 4\), "
                                           r"expected \(1, 8, 8\)"):
        D.load_dataset(str(tmp_path))


def test_generate_holds_file_pixels_not_floats(tmp_path):
    # rendered records wait for their files as uint8 pixels: 3,136 bytes
    # each, where float64 images and depths took 24.6 KB
    spec = D.DomainSpec(name="a", seed=3)
    peaks = {}
    for count in (20, 200):
        out = str(tmp_path / str(count))
        tracemalloc.start()
        D.generate_domain_dataset(replace(spec, count_per_class=count), out)
        peaks[count] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    per_record = (peaks[200] - peaks[20]) / (2 * (200 - 20))
    assert per_record < 6000, per_record


def test_batch_iterator_covers_epoch_deterministically(tmp_path):
    spec = D.DomainSpec(name="a", count_per_class=7, seed=1)
    D.generate_domain_dataset(spec, str(tmp_path))
    ds = D.load_dataset(str(tmp_path))

    batches = list(D.batch_iterator(ds, batch_size=4, seed=5))
    # three full batches of the seeded shuffle; the remainder of 2 is dropped
    order = Rng(5).shuffle(np.arange(14))
    assert len(batches) == 3
    for k, batch in enumerate(batches):
        idx = order[4 * k:4 * k + 4]
        assert batch["images"].dtype == np.float32
        assert np.array_equal(batch["images"], D.decode(ds.images[idx]))
        for key in ("labels", "depths"):
            assert np.array_equal(batch[key], getattr(ds, key)[idx])

    again = list(D.batch_iterator(ds, batch_size=4, seed=5))
    for b1, b2 in zip(batches, again):
        assert np.array_equal(b1["images"], b2["images"])


def test_default_domains_separate_in_channel_means():
    source, target = D.default_domain_specs(count_per_class=25)
    means = {}
    for spec in (source, target):
        imgs = [render(1 - (i % 2), spec, derive_seed(spec.seed, i))[0]
                for i in range(50)]
        means[spec.name] = np.stack(imgs).mean(axis=(0, 2, 3))
    gap = np.abs(means["source"] - means["target"])
    assert np.all(gap >= 0.05)


@pytest.mark.parametrize("field, value", [
    ("name", ""), ("name", 5),
    ("gain", 5), ("gain", (1.0, 1.0)), ("gain", (1.0, float("nan"), 1.0)),
    ("gain", "abc"), ("brightness", float("inf")),
    ("blur", -1), ("blur", 1.5), ("noise", -0.01), ("noise", float("nan")),
    ("count_per_class", 0), ("count_per_class", -3), ("count_per_class", 2.0),
])
def test_domain_spec_rejects_bad_fields(field, value):
    spec = {"name": "a", field: value}
    with pytest.raises(ValueError, match=f"domain {field} must be"):
        D.DomainSpec(**spec)


def test_domain_spec_takes_gain_as_a_list():
    assert D.DomainSpec(name="a", gain=[1, 0.5, 2]).gain == (1, 0.5, 2)
