"""Model bundle construction, forward contracts, freezing, checkpoints."""

import hashlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import gdafas.tensor as T
from gdafas import checkpoint
from gdafas.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from gdafas.cli import main as cli_main
from gdafas.data import InputError
from gdafas.models import (
    build_generator,
    build_source_bundle,
    forward_source,
    freeze,
)
from gdafas.rng import Rng
from mutations import reseal


def _warm_bn(bundle, seed=3):
    x = T.Tensor(Rng(seed).uniform(4 * 3 * 32 * 32).reshape(4, 3, 32, 32))
    forward_source(bundle, x, "train")
    return x


def test_build_is_deterministic():
    a = build_source_bundle(7)
    b = build_source_bundle(7)
    for pa, pb in zip(a.params(("F", "H", "R", "phi")),
                      b.params(("F", "H", "R", "phi"))):
        assert np.array_equal(pa.data, pb.data)
    c = build_source_bundle(8)
    diffs = [
        not np.array_equal(pa.data, pc.data)
        for pa, pc in zip(a.params(("F",)), c.params(("F",)))
    ]
    assert any(diffs)


def _state_digest(net) -> str:
    h = hashlib.sha256()
    for name, arr in net.state().items():
        h.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (0, "5846219ea51e942ed64398e360219f684da36eb19811ef87b07c432693b3a10b"),
    (7, "c49fec5a8fe53d1a58f2136540503e46a822534f2e7c951df6b1a162679843c5"),
], ids=["seed0", "seed7"])
def test_seeded_init_state_is_pinned(seed, digest):
    # every init byte of F, H, R, phi and G, in walk order, for two seeds
    bundle = build_source_bundle(seed)
    bundle.G = build_generator(seed)
    assert _state_digest(bundle) == digest


def test_skeleton_has_the_seeded_layout_and_zero_weights():
    seeded, skeleton = build_source_bundle(3), build_source_bundle(None)
    seeded.G, skeleton.G = build_generator(3), build_generator(None)
    a, b = seeded.state(), skeleton.state()
    assert list(a) == list(b)
    assert all(a[k].shape == b[k].shape and a[k].dtype == b[k].dtype
               for k in a)
    weights = [k for k in b if k.endswith(".weight")]
    assert len(weights) == 18 and not any(b[k].any() for k in weights)
    assert [p.requires_grad for p in seeded.params()] == \
        [p.requires_grad for p in skeleton.params()]


def test_forward_source_shapes_and_stats():
    bundle = build_source_bundle(7)
    x = T.Tensor(Rng(1).uniform(4 * 3 * 32 * 32).reshape(4, 3, 32, 32))
    logits, depth, stats, feats = forward_source(bundle, x, "train")
    assert logits.shape == (4, 2)
    assert depth.shape == (4, 1, 8, 8)
    assert len(stats) == 5
    assert [f.shape for f in feats] == [
        (4, 32, 16, 16), (4, 64, 8, 8), (4, 128, 4, 4)
    ]
    assert len(bundle.bn_layers()) == 5
    with pytest.raises(ValueError):
        forward_source(bundle, T.Tensor(np.zeros((2, 3, 16, 16))), "train")


def test_forward_source_eval_is_deterministic_and_returns_bn_inputs():
    bundle = build_source_bundle(7)
    x = _warm_bn(bundle)
    running = [(bn.running_mean.copy(), bn.running_var.copy())
               for bn in bundle.bn_layers()]
    l1, d1, stats, feats = forward_source(bundle, x, "eval")
    l2, d2, _, _ = forward_source(bundle, x, "eval")
    # eval normalizes with running statistics and takes no moments; its
    # stats are the untaped arrays each BN layer normalized, in walk order
    f, r = bundle.F, bundle.R
    pre_bn = [f.conv1.forward(x), f.conv2.forward(feats[0]),
              f.conv3.forward(feats[1]), r.conv1.forward(feats[1])]
    h = T.relu(r.bn1.forward(pre_bn[3], "eval")[0])
    pre_bn.append(r.conv2.forward(h))
    assert len(stats) == 5
    for seen, want, bn in zip(stats, pre_bn, bundle.bn_layers()):
        assert type(seen) is np.ndarray
        assert seen.shape[:2] == (4, bn.running_mean.shape[0])
        assert np.array_equal(seen, want.data)
    assert all(np.array_equal(bn.running_mean, m) and
               np.array_equal(bn.running_var, v)
               for bn, (m, v) in zip(bundle.bn_layers(), running))
    assert np.array_equal(l1.data, l2.data)
    assert np.array_equal(d1.data, d2.data)


def test_train_mode_stats_match_recomputed_moments():
    bundle = build_source_bundle(9)
    x = T.Tensor(Rng(2).uniform(6 * 3 * 32 * 32).reshape(6, 3, 32, 32))
    pre_bn = bundle.F.conv1.forward(x)
    _, _, stats, _ = forward_source(bundle, x, "stats")
    mean, var = stats[0]
    assert mean.shape == var.shape == (1, 32, 1, 1)
    axes = (0, 2, 3)
    assert np.allclose(mean.data, pre_bn.data.mean(axis=axes, keepdims=True),
                       atol=1e-12)
    assert np.allclose(var.data, pre_bn.data.var(axis=axes, keepdims=True),
                       atol=1e-12)


def test_phi_is_frozen_and_invariant():
    bundle = build_source_bundle(7)
    assert all(not p.requires_grad for p in bundle.phi.params())
    x = T.Tensor(Rng(1).uniform(2 * 3 * 32 * 32).reshape(2, 3, 32, 32))
    f1 = bundle.phi.features(x).data
    f2 = bundle.phi.features(x).data
    assert np.array_equal(f1, f2)
    assert f1.shape == (2, 32, 16, 16)


def test_generator_contract():
    g = build_generator(5)
    x = T.Tensor(Rng(6).uniform(2 * 3 * 32 * 32).reshape(2, 3, 32, 32))
    out = g.forward(x)
    assert out.shape == (2, 3, 32, 32)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0
    # same seed rebuild matches
    g2 = build_generator(5)
    for pa, pb in zip(g.params(), g2.params()):
        assert np.array_equal(pa.data, pb.data)
    # G takes only what F takes: an odd size would fail deep in its decoder
    for shape in ((2, 3, 33, 33), (2, 3, 64, 64), (3, 32, 32)):
        with pytest.raises(InputError, match=r"\[B,3,32,32\]"):
            g.forward(np.zeros(shape, np.float32))


def test_generator_starts_near_identity():
    g = build_generator(5)
    x = T.Tensor(0.1 + 0.8 * Rng(6).uniform(2 * 3 * 32 * 32).reshape(2, 3, 32, 32))
    out = g.forward(x)
    assert np.abs(out.data - x.data).max() < 0.05


def test_gradient_reaches_every_generator_parameter():
    bundle = build_source_bundle(7)
    freeze(bundle, ["F", "H", "R"])
    g = build_generator(7)
    x = T.Tensor(Rng(8).uniform(4 * 3 * 32 * 32).reshape(4, 3, 32, 32))
    with T.graph():
        out = g.forward(x)
        logits, depth, stats, _ = forward_source(bundle, out, "stats")
        loss = T.add(T.tmean(T.square(logits)), T.tmean(T.square(depth)))
        loss = T.add(loss, T.tmean(T.square(bundle.phi.features(out))))
        T.backward(loss)
    for p in g.params():
        assert p.grad is not None
        assert np.abs(p.grad).max() > 0.0


def test_every_generator_parameter_gets_a_live_gradient():
    # in float64 a conv bias in front of instance norm gets only rounding
    # noise (norms 2e-17 to 4e-16 at this seed), far below every live
    # tensor's (at least 4e-2); G holds no such parameter
    g = build_generator(5)
    for p in g.params():
        p.data = p.data.astype(np.float64)
    x = T.Tensor(0.1 + 0.8 * Rng(6).uniform(4 * 3 * 32 * 32)
                 .reshape(4, 3, 32, 32))
    with T.graph():
        out = g.forward(x)
        T.backward(T.tsum(T.mul(out, Rng(7).gaussian(out.size)
                                .reshape(out.shape))))
    for name, p in zip(g.state(), g.params(), strict=True):
        assert np.linalg.norm(p.grad) > 1e-8, name
    assert len(g.params()) == 26


def test_generator_decoder_matches_composed_upsampling(monkeypatch):
    # G in float64, with a head large enough that the decoder shows in its
    # output: the fused decoder convs compute what upsample-then-conv did
    def run():
        g = build_generator(5)
        g.head.weight.data = g.head.weight.data * 100.0
        for p in g.params():
            p.data = p.data.astype(np.float64)
        x = T.Tensor(0.1 + 0.8 * Rng(6).uniform(4 * 3 * 32 * 32)
                     .reshape(4, 3, 32, 32))
        with T.graph():
            out = g.forward(x)
            T.backward(T.tsum(T.mul(out, Rng(7).gaussian(out.size)
                                    .reshape(out.shape))))
        return [out.data] + [p.grad for p in g.params()]

    fused = run()
    monkeypatch.setattr(T, "upsample_conv2d", lambda h, w: T.conv2d(
        T.upsample_nearest(h, 2), w, stride=1, padding=1))
    for have, want in zip(fused, run()):
        scale = max(1.0, np.abs(want).max())
        assert np.abs(have - want).max() <= 1e-12 * scale


def test_freeze_blocks_updates_and_is_idempotent():
    bundle = build_source_bundle(7)
    freeze(bundle, ["F", "H", "R"])
    freeze(bundle, ["F"])  # second call is a no-op
    assert all(not p.requires_grad
               for p in bundle.params(("F", "H", "R", "phi")))
    with pytest.raises(ValueError):
        freeze(bundle, ["G"])  # absent network


def test_checkpoint_roundtrip(tmp_path):
    bundle = build_source_bundle(11)
    _warm_bn(bundle)
    bundle.G = build_generator(11)
    path = str(tmp_path / "model.gdac")
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)
    assert loaded.G is not None
    originals = bundle.params(("F", "H", "R", "phi", "G"))
    restored = loaded.params(("F", "H", "R", "phi", "G"))
    assert len(originals) == len(restored)
    for a, b in zip(originals, restored):
        assert np.array_equal(b.data, a.data.astype(np.float32).astype(np.float64))
    for bn_a, bn_b in zip(bundle.bn_layers(), loaded.bn_layers()):
        assert np.array_equal(
            bn_b.running_mean,
            bn_a.running_mean.astype(np.float32).astype(np.float64),
        )
        assert bn_b.num_updates == bn_a.num_updates
    # loaded source bundle is eval-ready and deterministic
    x = T.Tensor(Rng(3).uniform(2 * 3 * 32 * 32).reshape(2, 3, 32, 32))
    l1, _, _, _ = forward_source(loaded, x, "eval")
    l2, _, _, _ = forward_source(load_checkpoint(path), x, "eval")
    assert np.array_equal(l1.data, l2.data)


def test_checkpoint_without_generator(tmp_path):
    bundle = build_source_bundle(11)
    _warm_bn(bundle)
    path = str(tmp_path / "source.gdac")
    save_checkpoint(bundle, path)
    assert load_checkpoint(path).G is None


def test_checkpoint_error_taxonomy(tmp_path):
    bundle = build_source_bundle(11)
    _warm_bn(bundle)
    path = str(tmp_path / "model.gdac")
    save_checkpoint(bundle, path)
    blob = open(path, "rb").read()

    truncated = tmp_path / "trunc.gdac"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(str(truncated))

    flipped = bytearray(blob)
    flipped[40] ^= 0xFF
    corrupt = tmp_path / "corrupt.gdac"
    corrupt.write_bytes(bytes(flipped))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(str(corrupt))

    bad_magic = reseal(b"XGDA" + blob[4:-4])
    path_magic = tmp_path / "magic.gdac"
    path_magic.write_bytes(bad_magic)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(str(path_magic))

    # an older or newer format version has no reader
    for version in (1, 4):
        bumped = reseal(blob[:4] + struct.pack("<H", version) + blob[6:-4])
        path_version = tmp_path / f"version{version}.gdac"
        path_version.write_bytes(bumped)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path_version))
        assert f"version {version}" in str(err.value)


def test_version_2_checkpoint_is_rejected(tmp_path, monkeypatch):
    # a file in the version-2 layout: it also stored the ten conv biases
    # version 3 dropped (G's eight in front of instance norm, phi's two)
    bundle = build_source_bundle(11)
    bundle.G = build_generator(11)
    current, entries = bundle.state(), {}
    for name, arr in current.items():
        entries[name] = arr
        layer = name.removesuffix(".weight")
        if arr.ndim == 4 and f"{layer}.bias" not in current:
            entries[f"{layer}.bias"] = np.zeros(arr.shape[0], np.float32)
    assert len(entries) == 77
    path = str(tmp_path / "version2.gdac")
    monkeypatch.setattr(checkpoint, "VERSION", 2)
    save_checkpoint(SimpleNamespace(state=lambda: entries), path)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="version 2 unsupported"):
        load_checkpoint(path)


def _count_plus_one(body: bytes) -> bytes:
    (count,) = struct.unpack("<I", body[6:10])
    return body[:6] + struct.pack("<I", count + 1) + body[10:]


def _first_entry_twice(body: bytes) -> bytes:
    """F.conv1.weight written twice, the second copy filled with 7.0."""
    (name_len,) = struct.unpack("<H", body[10:12])
    assert body[12:12 + name_len] == b"F.conv1.weight"
    at = 12 + name_len
    ndim = body[at]
    dims = struct.unpack(f"<{ndim}I", body[at + 1:at + 1 + 4 * ndim])
    head = at + 1 + 4 * ndim
    end = head + 4 * int(np.prod(dims))
    again = body[10:head] + np.full(dims, 7.0, "<f4").tobytes()
    return _count_plus_one(body[:end] + again + body[end:])


def _bn1_gamma_beta_swapped(body: bytes) -> bytes:
    """F.bn1.gamma and F.bn1.beta, both of shape (32,), in each other's
    place: every entry is well formed, but out of walk order."""
    gamma, beta, end = (body.index(name) - 2 for name in (
        b"F.bn1.gamma", b"F.bn1.beta", b"F.bn1.running_mean"))
    return body[:gamma] + body[beta:end] + body[gamma:beta] + body[end:]


def _first_value(name: bytes, value: float):
    """The first float32 of entry ``name``'s payload set to ``value``."""
    def damage(body: bytes) -> bytes:
        # the name, then ndim and its dims, then the payload
        at = body.index(name) + len(name)
        at += 1 + 4 * body[at]
        return body[:at] + struct.pack("<f", value) + body[at + 4:]
    return damage


def _resealed(damage):
    return lambda blob: reseal(damage(blob[:-4]))


def _flip_byte_40(blob: bytes) -> bytes:
    return blob[:40] + bytes([blob[40] ^ 0xFF]) + blob[41:]


@pytest.mark.parametrize("damage, message", [
    (_resealed(_count_plus_one), "42 entries, expected 41 or 67"),
    # trailing bytes after the last entry
    (_resealed(lambda body: body + b"\x00" * 7), "7 bytes follow"),
    # last payload cut short
    (_resealed(lambda body: body[:-2]), "runs past the end"),
    # first name not utf-8
    (_resealed(lambda body: body[:12] + b"\xff" + body[13:]),
     "entry 0 is not F.conv1.weight"),
    (_resealed(_first_entry_twice), "42 entries"),
    (_flip_byte_40, "checksum mismatch"),
    (_resealed(lambda body: b"XGDA" + body[4:]), "bad magic"),
    (_resealed(lambda body: body[:4] + struct.pack("<H", 4) + body[6:]),
     "version 4 unsupported"),
    (_resealed(_bn1_gamma_beta_swapped), "entry 2 is not F.bn1.gamma"),
    (_resealed(_first_value(b"F.bn1.num_updates", float("nan"))),
     "F.bn1.num_updates must be a whole number >= 0, got nan"),
    (_resealed(_first_value(b"F.bn1.num_updates", float("inf"))),
     "F.bn1.num_updates must be a whole number >= 0, got inf"),
    (_resealed(_first_value(b"F.bn1.num_updates", -5.0)),
     "F.bn1.num_updates must be a whole number >= 0, got -5.0"),
    # no run writes a non-finite value or a negative running variance
    (_resealed(_first_value(b"F.conv1.weight", float("nan"))),
     "F.conv1.weight holds a non-finite value"),
    (_resealed(_first_value(b"H.dense.bias", float("inf"))),
     "H.dense.bias holds a non-finite value"),
    (_resealed(_first_value(b"R.bn2.running_mean", float("-inf"))),
     "R.bn2.running_mean holds a non-finite value"),
    (_resealed(_first_value(b"F.bn3.running_var", float("nan"))),
     "F.bn3.running_var holds a non-finite value"),
    (_resealed(_first_value(b"F.bn1.running_var", -0.25)),
     "F.bn1.running_var holds a negative variance"),
], ids=["count_plus_one", "trailing_bytes", "truncated_payload",
        "non_utf8_name", "repeated_entry_name", "crc_mismatch", "bad_magic",
        "version", "entries_swapped", "updates_nan", "updates_inf",
        "updates_negative", "weight_nan", "bias_inf", "running_mean_neg_inf",
        "running_var_nan", "running_var_negative"])
def test_resealed_malformed_body_is_rejected(tmp_path, capsys, damage,
                                             message):
    # also the unsealed CRC case, so every kind of damage meets the CLI
    bundle = build_source_bundle(11)
    path = tmp_path / "model.gdac"
    save_checkpoint(bundle, str(path))
    bad = tmp_path / "bad.gdac"
    bad.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(str(bad))
    # the CLI reports it as a runtime failure, not a traceback
    assert cli_main(["eval", "--model", str(bad), "--data",
                     str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failure: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_checkpoint_dim_product_over_limit(tmp_path):
    bundle = build_source_bundle(11)
    path = tmp_path / "model.gdac"
    save_checkpoint(bundle, str(path))
    body = path.read_bytes()[:-4]
    (name_len,) = struct.unpack("<H", body[10:12])
    at = 12 + name_len  # the first entry's ndim byte
    # 65536**4 = 2**64 would wrap to 0 in int64 arithmetic
    for dims in ((1 << 15, 1 << 14), (65536,) * 4):
        head = body[:at] + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
        bad = tmp_path / "huge.gdac"
        bad.write_bytes(reseal(head + body[at + 1 + 4 * body[at]:]))
        with pytest.raises(CheckpointError, match="is not F.conv1.weight"):
            load_checkpoint(str(bad))


def test_checkpoint_missing_tensor(tmp_path):
    bundle = build_source_bundle(11)
    _warm_bn(bundle)
    path = str(tmp_path / "model.gdac")
    save_checkpoint(bundle, path)
    blob = bytearray(open(path, "rb").read())
    # rename the first tensor so an expected name disappears
    (name_len,) = struct.unpack("<H", blob[10:12])
    blob[12:12 + name_len] = b"X" * name_len
    bad = tmp_path / "renamed.gdac"
    bad.write_bytes(reseal(bytes(blob[:-4])))
    with pytest.raises(CheckpointError, match="is not F.conv1.weight"):
        load_checkpoint(str(bad))


def _conv(name, cout, cin, k, bias=True):
    weight = [(f"{name}.weight", (cout, cin, k, k))]
    return weight + [(f"{name}.bias", (cout,))] if bias else weight


def _bn(name, c):
    return [(f"{name}.{field}", (c,))
            for field in ("gamma", "beta", "running_mean", "running_var")] \
        + [(f"{name}.num_updates", (1,))]


def _inorm(name, c):
    return [(f"{name}.gamma", (c,)), (f"{name}.beta", (c,))]


_SOURCE_ENTRIES = (
    _conv("F.conv1", 32, 3, 3) + _bn("F.bn1", 32)
    + _conv("F.conv2", 64, 32, 3) + _bn("F.bn2", 64)
    + _conv("F.conv3", 128, 64, 3) + _bn("F.bn3", 128)
    + [("H.dense.weight", (128, 2)), ("H.dense.bias", (2,))]
    + _conv("R.conv1", 64, 64, 3) + _bn("R.bn1", 64)
    + _conv("R.conv2", 32, 64, 3) + _bn("R.bn2", 32)
    + _conv("R.conv3", 1, 32, 1)
    # phi never trains, so its convs have no bias
    + _conv("phi.conv1", 16, 3, 3, False)
    + _conv("phi.conv2", 32, 16, 3, False)
)
# every G conv but the head feeds instance norm and has no bias
_GENERATOR_ENTRIES = (
    _conv("G.enc1", 32, 3, 3, False) + _inorm("G.norm1", 32)
    + _conv("G.enc2", 64, 32, 3, False) + _inorm("G.norm2", 64)
    + [entry for block in ("G.res1", "G.res2")
       for entry in _conv(f"{block}.conv1", 64, 64, 3, False)
       + _inorm(f"{block}.norm1", 64)
       + _conv(f"{block}.conv2", 64, 64, 3, False)
       + _inorm(f"{block}.norm2", 64)]
    + _conv("G.dec1", 32, 64, 3, False) + _inorm("G.norm3", 32)
    + _conv("G.dec2", 16, 32, 3, False) + _inorm("G.norm4", 16)
    + _conv("G.head", 3, 16, 3)
)


@pytest.mark.parametrize("with_generator", [False, True])
def test_checkpoint_entries_are_pinned(tmp_path, with_generator):
    # the .gdac entry list, in file order: a rename, reorder, addition or
    # drop of any layer field changes the format and must bump VERSION
    bundle = build_source_bundle(11)
    want = _SOURCE_ENTRIES
    if with_generator:
        bundle.G = build_generator(11)
        want = _SOURCE_ENTRIES + _GENERATOR_ENTRIES
    assert len(want) == (67 if with_generator else 41)
    path = tmp_path / "model.gdac"
    save_checkpoint(bundle, str(path))
    blob = path.read_bytes()
    body, pos, entries = blob[:-4], 10, []
    while pos < len(body):
        (name_len,) = struct.unpack("<H", body[pos:pos + 2])
        name = body[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        ndim = body[pos]
        dims = struct.unpack(f"<{ndim}I", body[pos + 1:pos + 1 + 4 * ndim])
        pos += 1 + 4 * ndim + 4 * int(np.prod(dims))
        entries.append((name, dims))
    assert struct.unpack("<I", blob[6:10])[0] == len(entries)
    assert entries == want
    assert [(k, v.shape) for k, v in bundle.state().items()] == want


def test_every_layer_array_is_registered():
    # a Tensor or array a layer holds outside STATE would be left out of
    # parameter lists, checkpoints and the frozen-model check
    bundle = build_source_bundle(11)
    bundle.G = build_generator(11)
    walked = bundle.layers()
    assert len(walked) == 31  # 14 source-side layers, 17 in G
    for name, layer in walked:
        arrays = {attr for attr, value in vars(layer).items()
                  if isinstance(value, (T.Tensor, np.ndarray))}
        assert arrays <= set(layer.STATE), (name, arrays - set(layer.STATE))
        assert set(layer.STATE) <= set(vars(layer)), name
    # every network attribute is a layer or a sub-network the walk enters
    nets = [bundle.net(n) for n in ("F", "H", "R", "phi", "G")]
    nets += [bundle.G.res1, bundle.G.res2]
    known = {id(obj) for obj in nets} | {id(layer) for _, layer in walked}
    for net in nets:
        for attr, value in vars(net).items():
            assert id(value) in known, attr
