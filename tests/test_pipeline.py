import dataclasses
import pathlib
import re

import numpy as np
import pytest

import gdafas.data as D
import gdafas.layers as layers
import gdafas.models as models
import gdafas.pipeline as P
import gdafas.tensor as T
from gdafas.checkpoint import load_checkpoint, save_checkpoint
from gdafas.rng import Rng
from oracles import full_eval_pass, graph_bytes


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny two-domain corpus plus a trained source model, shared read-only."""
    root = tmp_path_factory.mktemp("pipe")
    src_spec = D.DomainSpec(name="source", gain=(1.0, 0.92, 0.86),
                            brightness=0.02, noise=0.01,
                            count_per_class=16, seed=21)
    tgt_spec = D.DomainSpec(name="target", gain=(0.60, 0.85, 1.10),
                            brightness=0.12, noise=0.01,
                            count_per_class=16, seed=22)
    D.generate_domain_dataset(src_spec, str(root / "src"))
    D.generate_domain_dataset(tgt_spec, str(root / "tgt"),
                              unlabeled_train=True)
    src = D.load_dataset(str(root / "src"))
    tgt = D.load_dataset(str(root / "tgt"))
    config = P.TrainConfig(batch_size=8, stage1_epochs=10, stage2_steps=3,
                           lr=1e-3, seed=77)
    bundle, log = P.train_source(config, [src])
    return {"root": root, "src": src, "tgt": tgt, "config": config,
            "bundle": bundle, "log": log}


def _state_equal(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(v, b[k]) for k, v in a.items())


def test_train_config_validation():
    with pytest.raises(ValueError):
        P.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        P.TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        P.TrainConfig(eta=-0.1)
    for field in ("lambda_ent", "lambda_ph"):
        with pytest.raises(ValueError, match="nonnegative"):
            P.TrainConfig(**{field: -0.1})
    with pytest.raises(ValueError):
        P.TrainConfig(alpha=0.0)
    with pytest.raises(ValueError):
        P.TrainConfig(alpha=1.5)
    for field in ("lr", "eta", "lambda_ent", "lambda_ph"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                P.TrainConfig(**{field: bad})
    # lambda ~ U(0, eta) must stay a convex mixing weight
    with pytest.raises(ValueError):
        P.TrainConfig(eta=1.5)
    assert P.TrainConfig(eta=1.0).eta == 1.0
    # JSON values of the wrong type are refused, not truncated or coerced
    for field, bad in (("stage1_epochs", 1.5), ("stage1_epochs", True),
                       ("batch_size", 4.0), ("stage2_steps", "3"),
                       ("seed", 1.5), ("seed", "7"), ("lr", True),
                       ("eta", "0.1"), ("alpha", None), ("use_dsc", "no"),
                       ("use_dsc", 0)):
        with pytest.raises(ValueError, match=field):
            P.TrainConfig(**{field: bad})
    # the full message of each rule, first in field order, types before
    # ranges
    for kwargs, message in (
            ({"stage2_steps": 2.5},
             "stage2_steps must be an integer, got 2.5"),
            ({"seed": False}, "seed must be an integer, got False"),
            ({"alpha": "0.1"}, "alpha must be a finite number, got '0.1'"),
            ({"lr": np.inf}, "lr must be a finite number, got inf"),
            ({"lambda_ent": [0.1]},
             "lambda_ent must be a finite number, got [0.1]"),
            ({"use_dsc": None}, "use_dsc must be true or false, got None"),
            ({"seed": "1", "batch_size": 1.5},
             "batch_size must be an integer, got 1.5"),
            ({"batch_size": 0, "eta": "x"},
             "eta must be a finite number, got 'x'")):
        with pytest.raises(D.InputError) as info:
            P.TrainConfig(**kwargs)
        assert str(info.value) == message
    # an integer is a number, and a numpy integer is an integer
    assert P.TrainConfig(lr=1, seed=np.int64(3)).seed == 3


def test_train_source_learns_and_accumulates_stats(workspace):
    log = workspace["log"]
    assert log[0][1] > np.mean([row[1] for row in log[-3:]])
    for bn in workspace["bundle"].bn_layers():
        assert bn.num_updates == len(log)


def test_train_source_input_validation(workspace):
    config = workspace["config"]
    empty = workspace["src"].subset("no-such-split")
    with pytest.raises(ValueError, match="no training records"):
        P.train_source(config, [empty])
    with pytest.raises(ValueError, match="label"):
        P.train_source(config, [workspace["tgt"]])


def test_train_source_checkpoint_is_deterministic(workspace, tmp_path):
    config = P.TrainConfig(batch_size=8, stage1_epochs=2, lr=1e-3, seed=5)
    blobs, logs = [], []
    for name in ("a.gdac", "b.gdac"):
        bundle, log = P.train_source(config, [workspace["src"]])
        save_checkpoint(bundle, str(tmp_path / name))
        blobs.append((tmp_path / name).read_bytes())
        logs.append(log)
    assert blobs[0] == blobs[1]
    assert logs[0] == logs[1]
    assert all(len(row) == len(P.STAGE1_LOG) for row in logs[0])


def test_train_source_aborts_on_non_finite(workspace, monkeypatch):
    real = models.build_source_bundle

    def poisoned(seed):
        bundle = real(seed)
        bundle.F.conv1.weight.data[0, 0, 0, 0] = np.nan
        return bundle

    monkeypatch.setattr(P.models, "build_source_bundle", poisoned)
    with pytest.raises(RuntimeError, match="non-finite"):
        P.train_source(workspace["config"], [workspace["src"]])
    assert T.tape_size() == 0  # the aborted step's graph is not left behind


def test_evaluate_report_contract(workspace):
    report = P.evaluate(workspace["bundle"], workspace["src"].subset("test"))
    assert 0.0 <= report.auc <= 1.0
    assert 0.0 <= report.hter <= 1.0
    assert report.roc[0] == (0.0, 0.0)
    assert report.roc[-1] == (1.0, 1.0)
    tprs = [p[1] for p in report.roc]
    assert all(b >= a - 1e-12 for a, b in zip(tprs, tprs[1:]))
    assert "source" in report.per_domain


def test_evaluate_is_deterministic(workspace):
    test_set = workspace["src"].subset("test")
    rep1 = P.evaluate(workspace["bundle"], test_set)
    rep2 = P.evaluate(workspace["bundle"], test_set)
    assert rep1 == rep2


def test_evaluate_rejects_unlabeled(workspace):
    with pytest.raises(ValueError, match="label"):
        P.evaluate(workspace["bundle"], workspace["tgt"].subset("train"))
    with pytest.raises(ValueError, match="empty"):
        P.evaluate(workspace["bundle"],
                   workspace["src"].subset("no-such-split"))


def test_evaluate_merged_reports_both_domains(workspace):
    merged = D.merge_datasets([workspace["src"].subset("test"),
                               workspace["tgt"].subset("test")])
    report = P.evaluate(workspace["bundle"], merged)
    assert set(report.per_domain) == {"source", "target"}


def test_adapt_preserves_frozen_model_and_moves_generator(workspace):
    bundle = workspace["bundle"]
    before = [bundle.net(name).state() for name in P.FROZEN]
    generator = models.build_generator(3)
    g_before = [p.data.copy() for p in generator.params()]

    config = P.TrainConfig(batch_size=8, stage2_steps=3, lr=1e-2, seed=9)
    P.adapt_generator(config, bundle, workspace["tgt"], generator=generator)

    for name, old in zip(P.FROZEN, before):
        assert _state_equal(old, bundle.net(name).state())
    moved = [not np.array_equal(old, p.data)
             for old, p in zip(g_before, generator.params())]
    assert any(moved)


def test_adapt_log_totals_match_declared_weights(workspace):
    bundle = workspace["bundle"]
    config = P.TrainConfig(batch_size=8, stage2_steps=3, lr=1e-3, seed=10,
                           lambda_ent=0.05, lambda_ph=0.002)
    _, rows = P.adapt_generator(config, bundle, workspace["tgt"],
                                generator=models.build_generator(4))
    assert all(len(row) == len(P.STAGE2_LOG) for row in rows)
    for step, stat, per, ent1, ent2, ph, ema, total in rows:
        expected = stat + per + 0.05 * (ent1 + ent2) + 0.002 * ph
        assert abs(total - expected) < 1e-9
    # stat_ema is the 0.9/0.1 running mean of the stat column, bit for bit
    emas = []
    for row in rows:
        emas.append(row[1] if not emas else 0.9 * emas[-1] + 0.1 * row[1])
    assert [row[6] for row in rows] == emas


def test_stage2_step_tapes_three_nodes_per_norm_layer(workspace, monkeypatch):
    # moments (a tmean node and the variance node) plus one normalize node
    grown = []

    def spy(forward):
        def wrapped(self, *args, **kwargs):
            before = T.tape_size()
            out = forward(self, *args, **kwargs)
            grown.append((type(self).__name__, T.tape_size() - before))
            return out
        return wrapped

    for cls in (layers.BatchNorm2d, layers.InstanceNorm2d):
        monkeypatch.setattr(cls, "forward", spy(cls.forward))
    config = P.TrainConfig(batch_size=8, stage2_steps=1, seed=12)
    P.adapt_generator(config, workspace["bundle"], workspace["tgt"],
                      generator=models.build_generator(12))
    assert sorted({name for name, _ in grown}) == ["BatchNorm2d",
                                                   "InstanceNorm2d"]
    assert len(grown) == 13  # 8 in G, 5 in F and R
    assert all(n == 3 for _, n in grown), grown


def _spy_float32(monkeypatch):
    """Record the dtype and shape of the open graph's taped outputs at every
    backward and check, after every Adam step, that each trainable
    parameter, gradient and moment is float32."""
    tapes, steps, taped = [], [], []
    backward, record, step = T.backward, T._record, layers.Adam.step

    def spy_record(out, inputs, fn):
        before = T.tape_size()
        record(out, inputs, fn)
        if T.tape_size() > before:
            taped.append((out.data.dtype, out.shape))
        return out

    def spy_backward(loss):
        tapes.append(taped[len(taped) - T.tape_size():])
        taped.clear()
        backward(loss)

    def spy_step(self):
        step(self)
        arrays = [a for p in self.params for a in (p.data, p.grad)]
        arrays += self.m + self.v
        steps.append(all(a.dtype == np.float32 for a in arrays))

    monkeypatch.setattr(T, "_record", spy_record)
    monkeypatch.setattr(T, "backward", spy_backward)
    monkeypatch.setattr(layers.Adam, "step", spy_step)
    return tapes, steps


def _wide_nodes_are_float32(tape):
    # every [B,C,H,W] activation; only scalar loss arithmetic is float64
    return all(dtype == np.float32 for dtype, shape in tape
               if len(shape) == 4 and shape[2] * shape[3] > 1)


def test_real_steps_compute_in_float32(workspace, monkeypatch):
    tapes, steps = _spy_float32(monkeypatch)
    config = P.TrainConfig(batch_size=8, stage1_epochs=1, stage2_steps=1,
                           seed=13)
    bundle, log = P.train_source(config, [workspace["src"]])
    P.adapt_generator(config, bundle, workspace["tgt"])
    monkeypatch.undo()
    assert len(steps) == len(tapes) == len(log) + 1
    assert [len(tape) for tape in tapes] == [42] * len(log) + [167]
    assert all(_wide_nodes_are_float32(tape) for tape in tapes)
    assert all(steps)
    # the adapted generator and the bundle's running statistics too
    assert all(p.data.dtype == np.float32 for p in bundle.params())
    assert all(bn.running_mean.dtype == bn.running_var.dtype == np.float32
               for bn in bundle.bn_layers())


def test_step_graphs_hold_at_most_six_tenths_of_the_kept_copies(workspace,
                                                                monkeypatch):
    # A stage-1 and a stage-2 step at batch 8 held 5,703,948 and 23,115,204
    # bytes before backward while each norm layer kept its centred, squared
    # and normalized copies and each conv its padded input
    held, backward = [], T.backward

    def spy(loss):
        held.append(graph_bytes())
        backward(loss)

    monkeypatch.setattr(T, "backward", spy)
    config = P.TrainConfig(batch_size=8, stage1_epochs=1, stage2_steps=1,
                           seed=13)
    bundle, log = P.train_source(config, [workspace["src"]])
    P.adapt_generator(config, bundle, workspace["tgt"])
    monkeypatch.undo()
    assert len(held) == len(log) + 1
    assert max(held[:-1]) <= 0.6 * 5_703_948, held
    assert held[-1] <= 0.6 * 23_115_204, held


def test_step_graphs_hold_only_what_backward_reads(workspace, monkeypatch):
    # The same steps held 2,680,684 and 11,405,436 bytes before backward
    # while each node also kept its output and every input: the normalize
    # outputs under each relu, the add operands and the phase loss's
    # reference. Keeping only what each backward reads, they held 2,017,516
    # and 7,512,364.
    held, backward = [], T.backward

    def spy(loss):
        held.append(graph_bytes())
        backward(loss)

    monkeypatch.setattr(T, "backward", spy)
    config = P.TrainConfig(batch_size=8, stage1_epochs=1, stage2_steps=1,
                           seed=13)
    bundle, log = P.train_source(config, [workspace["src"]])
    P.adapt_generator(config, bundle, workspace["tgt"])
    monkeypatch.undo()
    assert len(held) == len(log) + 1
    assert max(held[:-1]) <= 0.8 * 2_680_684, held
    assert held[-1] <= 0.7 * 11_405_436, held


def _layer_arrays(net):
    """(dotted name, array) of every Tensor or ndarray persistent field."""
    for name, layer in net.layers():
        for field in layer.STATE:
            value = getattr(layer, field)
            if isinstance(value, T.Tensor):
                value = value.data
            if isinstance(value, np.ndarray):
                yield f"{name}.{field}", value


def test_loaded_bundle_and_generator_copy_stay_float32(workspace, tmp_path,
                                                       monkeypatch):
    bundle = _copy_source(workspace["bundle"])
    bundle.G = models.build_generator(6)
    path = str(tmp_path / "model.gdac")
    save_checkpoint(bundle, path)
    loaded = load_checkpoint(path)
    wide = [name for name, a in _layer_arrays(loaded) if a.dtype != np.float32]
    assert not wide
    # adaptation without a generator argument trains a copy of loaded.G
    _, steps = _spy_float32(monkeypatch)
    config = P.TrainConfig(batch_size=8, stage2_steps=2, lr=1e-2, seed=6)
    P.adapt_generator(config, loaded, workspace["tgt"])
    monkeypatch.undo()
    assert steps == [True, True]
    wide = [name for name, a in _layer_arrays(loaded) if a.dtype != np.float32]
    assert not wide


def test_adapt_requires_trained_statistics(workspace):
    fresh = models.build_source_bundle(1)
    config = P.TrainConfig(stage2_steps=1)
    with pytest.raises(ValueError, match="running statistics"):
        P.adapt_generator(config, fresh, workspace["tgt"])


def test_adapt_aborts_on_non_finite(workspace):
    generator = models.build_generator(5)
    generator.head.weight.data[0, 0, 0, 0] = np.nan
    config = P.TrainConfig(batch_size=8, stage2_steps=1, seed=2)
    before = workspace["bundle"].G
    with pytest.raises(RuntimeError, match="non-finite"):
        P.adapt_generator(config, workspace["bundle"], workspace["tgt"],
                          generator=generator)
    assert T.tape_size() == 0
    # the caller's bundle never takes on the poisoned generator
    assert workspace["bundle"].G is before


def test_stage2_abort_leaves_no_graph_behind(workspace, monkeypatch):
    # G stylizes 16x16 images, then F's input check raises mid-step: the
    # nodes G taped go with the step's graph
    tgt = workspace["tgt"]
    small = dataclasses.replace(tgt, images=tgt.images[:, :, ::2, ::2])
    config = P.TrainConfig(batch_size=8, stage2_steps=1, seed=12)
    with pytest.raises(ValueError, match="32"):
        P.adapt_generator(config, workspace["bundle"], small,
                          generator=models.build_generator(12))
    assert T._graph is None and T.tape_size() == 0
    walked, backward = [], T.backward

    def spy(loss):
        walked.append(T.tape_size())
        backward(loss)

    monkeypatch.setattr(T, "backward", spy)
    P.adapt_generator(config, workspace["bundle"], tgt,
                      generator=models.build_generator(12))
    assert walked == [167]  # one stage-2 step's own nodes, as pinned above


def _copy_source(bundle):
    """A trained source bundle copied through the state registry."""
    copy = models.build_source_bundle(0)
    copy.load_state(bundle.state())
    return copy


def _poison_step(monkeypatch, at_step, act):
    """Run ``act`` after the stage-2 total of step ``at_step`` is built."""
    real = P.L.total_loss
    calls = []

    def wrapped(*args):
        total = real(*args)
        calls.append(None)
        return act(total) if len(calls) == at_step + 1 else total

    monkeypatch.setattr(P.L, "total_loss", wrapped)


def test_adapt_abort_leaves_bundle_generator_untouched(workspace,
                                                       monkeypatch):
    # without a generator argument, adaptation trains a copy of bundle.G
    bundle = _copy_source(workspace["bundle"])
    bundle.G = models.build_generator(8)
    generator, before = bundle.G, bundle.G.state()
    _poison_step(monkeypatch, 2, lambda total: T.mul(total, float("nan")))
    config = P.TrainConfig(batch_size=8, stage2_steps=5, lr=1e-2, seed=8)
    with pytest.raises(RuntimeError,
                       match="non-finite stage-2 loss at step 2"):
        P.adapt_generator(config, bundle, workspace["tgt"])
    assert bundle.G is generator
    assert _state_equal(generator.state(), before)


def test_adapt_continues_from_bundle_generator(workspace):
    # the copy starts from bundle.G's weights, so a run without a generator
    # argument equals one handed a same-valued generator
    bundle = _copy_source(workspace["bundle"])
    bundle.G = models.build_generator(3)
    passed = models.build_generator(3)
    config = P.TrainConfig(batch_size=8, stage2_steps=2, lr=1e-2, seed=8)
    _, rows_copy = P.adapt_generator(config, bundle, workspace["tgt"])
    _, rows_passed = P.adapt_generator(config, _copy_source(bundle),
                                       workspace["tgt"], generator=passed)
    assert rows_copy == rows_passed
    assert _state_equal(bundle.G.state(), passed.state())


@pytest.mark.parametrize("mutate", [
    lambda b: b.F.conv2.weight.data.__setitem__((0, 0, 0, 0), 0.5),
    lambda b: b.R.bn2.running_var.__setitem__(3, 2.0),
    lambda b: setattr(b.F.bn3, "num_updates", b.F.bn3.num_updates + 1),
    lambda b: b.phi.conv1.weight.data.__setitem__((1, 0, 0, 0), 0.25),
], ids=["F_weight", "R_bn2_running_var", "F_bn3_num_updates", "phi_weight"])
def test_frozen_model_check_catches_mutation(workspace, monkeypatch, mutate):
    bundle = _copy_source(workspace["bundle"])
    bundle.G = models.build_generator(9)
    generator, before = bundle.G, bundle.G.state()

    def act(total):
        mutate(bundle)
        return total

    _poison_step(monkeypatch, 0, act)
    config = P.TrainConfig(batch_size=8, stage2_steps=2, lr=1e-2, seed=9)
    with pytest.raises(RuntimeError, match="frozen source model was mutated"):
        P.adapt_generator(config, bundle, workspace["tgt"])
    assert bundle.G is generator
    assert _state_equal(generator.state(), before)


def test_adapt_rejects_stage2_batch_below_four(workspace):
    for batch_size in (1, 2, 3):
        config = P.TrainConfig(batch_size=batch_size, stage2_steps=1)
        with pytest.raises(ValueError, match="at least 4"):
            P.adapt_generator(config, workspace["bundle"], workspace["tgt"],
                              generator=models.build_generator(5))


def test_stage2_batch_is_even_part_of_batch_size(workspace):
    pool = workspace["tgt"].subset("train")
    for batch_size, drawn in ((4, 4), (5, 4), (9, 8)):
        config = P.TrainConfig(batch_size=batch_size, seed=6)
        assert P._draw_stage2_batch(pool, config, step=0).shape[0] == drawn


def test_stage2_batch_is_half_original_half_mixed(workspace):
    pool = workspace["tgt"].subset("train")
    config = P.TrainConfig(batch_size=8, seed=6)
    batch = P._draw_stage2_batch(pool, config, step=0)
    assert batch.shape == (8, 3, 32, 32) and batch.dtype == np.float32
    pool_index = {img.tobytes() for img in D.decode(pool.images)}
    for img in batch[:4]:
        assert img.tobytes() in pool_index  # untouched originals
    assert batch.min() >= 0.0 and batch.max() <= 1.0
    again = P._draw_stage2_batch(pool, config, step=0)
    assert np.array_equal(batch, again)
    other = P._draw_stage2_batch(pool, config, step=1)
    assert not np.array_equal(batch, other)


def test_eval_pass_streaming_is_exact(workspace):
    src_train = workspace["src"].subset("train")
    bundle = workspace["bundle"]
    whole = P.eval_pass(bundle, src_train, None, P.EVAL_OUTPUTS,
                        batch_size=len(src_train.images))
    streamed = P.eval_pass(bundle, src_train, None, P.EVAL_OUTPUTS,
                           batch_size=5)
    for (m1, v1), (m2, v2) in zip(whole["moments"], streamed["moments"]):
        assert np.max(np.abs(m1 - m2)) < 1e-10
        assert np.max(np.abs(v1 - v2)) < 1e-10
    # float32 compute rounds per batch shape, but no record sees another
    assert np.allclose(whole["scores"], streamed["scores"], rtol=0,
                       atol=1e-6)
    for name in P.BLOCK_NAMES:
        assert np.allclose(whole["features"][name],
                           streamed["features"][name], rtol=0, atol=1e-6)


def test_eval_pass_scores_agree_at_batches_of_whole_row_blocks(workspace):
    # F's pooled features do not depend on the batch size, but H's float32
    # [n,128]@[128,2] GEMM rounds rows that fall in a tail block of fewer
    # than four rows differently; at batch sizes that are multiples of 4
    # every row lies in a full block, so the scores are bitwise equal
    bundle = workspace["bundle"]
    data = D.merge_datasets([workspace["src"], workspace["tgt"]] * 2)
    assert len(data.images) == 128
    for generator in (None, models.build_generator(4)):
        want = P.predict_scores(bundle, data, generator, batch_size=16)
        for batch in (32, 48, 64):
            got = P.predict_scores(bundle, data, generator, batch_size=batch)
            assert np.array_equal(got, want), (generator, batch)


def test_bn_discrepancy_orders_source_below_target(workspace):
    bundle = workspace["bundle"]
    rows_src = P.bn_discrepancy(bundle, workspace["src"].subset("train"))
    rows_tgt = P.bn_discrepancy(bundle, workspace["tgt"].subset("train"))
    assert [r[0] for r in rows_src] == ["F.bn1", "F.bn2", "F.bn3", "R.bn1",
                                        "R.bn2"]
    mean_src = np.mean([r[1] for r in rows_src])
    mean_tgt = np.mean([r[1] for r in rows_tgt])
    assert mean_src < mean_tgt


@pytest.mark.parametrize("batch", [64, 10], ids=["default", "streamed"])
@pytest.mark.parametrize("stylized", [False, True], ids=["raw", "stylized"])
def test_eval_paths_match_full_pass_bitwise(workspace, stylized, batch):
    # every pass output runs only part of F/H/R, on the same arrays as the
    # full pass, so each number is the full pass's, bit for bit
    bundle, data = workspace["bundle"], workspace["tgt"]
    generator = models.build_generator(4) if stylized else None
    kw = {} if batch == 64 else {"batch_size": batch}
    scores, moments, pooled = full_eval_pass(bundle, data, generator, batch)
    got = P.eval_pass(bundle, data, generator, P.EVAL_OUTPUTS, **kw)
    assert np.array_equal(got["scores"], scores)
    for name, want in zip(P.BLOCK_NAMES, pooled):
        assert np.array_equal(got["features"][name], want)
    assert len(got["moments"]) == len(moments) == 5
    for (mean, var), (want_mean, want_var) in zip(got["moments"], moments):
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(var, want_var)
    # the wrappers return the same numbers
    assert np.array_equal(P.predict_scores(bundle, data, generator, **kw),
                          scores)
    feats = P.block_features(bundle, data, generator, **kw)
    for name, want in zip(P.BLOCK_NAMES, pooled):
        assert np.array_equal(feats[name], want)
    named = [(n, bn) for n, bn in bundle.layers()
             if isinstance(bn, layers.BatchNorm2d)]
    want_rows = [(n, float(np.mean(np.abs(m - bn.running_mean))),
                  float(np.mean(np.abs(v - bn.running_var))))
                 for (n, bn), (m, v) in zip(named, moments)]
    assert P.bn_rows(bundle, got["moments"]) == want_rows
    assert P.bn_discrepancy(bundle, data, generator, **kw) == want_rows


class _MomentSpy(np.ndarray):
    """A BN layer's returned input that counts moments taken of it."""

    taken = 0

    def _take(self, moment, *args, **kwargs):
        _MomentSpy.taken += 1
        return moment(self.view(np.ndarray), *args, **kwargs)

    def mean(self, *args, **kwargs):
        return self._take(np.ndarray.mean, *args, **kwargs)

    def var(self, *args, **kwargs):
        return self._take(np.ndarray.var, *args, **kwargs)


def _spy_networks(monkeypatch):
    """Count F, H and R forwards and the moments taken of eval BN inputs."""
    calls = {"F": 0, "H": 0, "R": 0}
    for net, cls in (("F", models.FeatureExtractor),
                     ("H", models.ClassifierHead),
                     ("R", models.DepthEstimator)):
        def counted(self, *args, _net=net, _real=cls.forward):
            calls[_net] += 1
            return _real(self, *args)
        monkeypatch.setattr(cls, "forward", counted)
    real_bn = layers.BatchNorm2d.forward

    def bn(self, x, mode="train"):
        out, seen = real_bn(self, x, mode)
        return out, (seen.view(_MomentSpy) if mode == "eval" else seen)

    monkeypatch.setattr(layers.BatchNorm2d, "forward", bn)
    _MomentSpy.taken = 0
    return calls


def test_eval_paths_run_only_what_they_read(workspace, monkeypatch):
    bundle, data = workspace["bundle"], workspace["tgt"].subset("test")
    src = workspace["src"]
    generator = models.build_generator(4)
    calls = _spy_networks(monkeypatch)
    n = len(data.images)
    P.evaluate(bundle, data)
    P.evaluate(bundle, data, generator=generator)
    assert calls == {"F": 2 * -(-n // 64), "H": 2 * -(-n // 64), "R": 0}
    P.mmd_curve(bundle, src, data)
    P.mmd_curve(bundle, src, data, generator=generator)
    m = len(src.images)
    assert calls["R"] == 0 and calls["H"] == 2 * -(-n // 64)
    assert calls["F"] == 4 * -(-n // 64) + 2 * -(-m // 64)
    assert _MomentSpy.taken == 0
    calls.update(F=0, H=0, R=0)
    for gen in (None, generator):
        P.bn_discrepancy(bundle, data, generator=gen, batch_size=3)
    batches = 2 * -(-n // 3)
    assert calls == {"F": batches, "H": 0, "R": batches}
    # one mean and one variance per BN layer per batch
    assert _MomentSpy.taken == 2 * 5 * batches
    # each subset of the pass outputs runs only the networks it reads
    b = -(-n // 64)
    for outputs, want in ((("scores",), {"F": b, "H": b, "R": 0}),
                          (("features",), {"F": b, "H": 0, "R": 0}),
                          (("moments", "features"), {"F": b, "H": 0, "R": b})):
        calls.update(F=0, H=0, R=0)
        _MomentSpy.taken = 0
        P.eval_pass(bundle, data, None, outputs)
        assert calls == want, outputs
        assert _MomentSpy.taken == (2 * 5 * b if "moments" in outputs else 0)


def test_eval_paths_reject_an_empty_dataset(workspace):
    bundle, data = workspace["bundle"], workspace["tgt"]
    empty = data.subset("no-such-split")
    assert len(empty.images) == 0
    for call in (lambda: P.predict_scores(bundle, empty),
                 lambda: P.block_features(bundle, empty),
                 *(lambda out=out: P.eval_pass(bundle, empty, None, (out,))
                   for out in P.EVAL_OUTPUTS),
                 lambda: P.bn_discrepancy(bundle, empty),
                 lambda: P.mmd_curve(bundle, data, empty),
                 lambda: P.mmd_curve(bundle, empty, data),
                 lambda: P.evaluate(bundle, empty)):
        with pytest.raises(ValueError, match="empty"):
            call()


def _count_draws(monkeypatch):
    draws = []
    real = Rng.gaussian

    def counted(self, n, *args, **kwargs):
        draws.append(n)
        return real(self, n, *args, **kwargs)

    monkeypatch.setattr(Rng, "gaussian", counted)
    return draws


def test_copies_and_loads_build_networks_without_drawing(workspace, tmp_path,
                                                          monkeypatch):
    bundle = _copy_source(workspace["bundle"])
    bundle.G = models.build_generator(3)
    path = str(tmp_path / "model.gdac")
    save_checkpoint(bundle, path)
    g_convs = sum(isinstance(layer, layers.Conv2d)
                  for _, layer in bundle.G.layers())
    draws = _count_draws(monkeypatch)
    loaded = load_checkpoint(path)
    assert draws == []
    assert _state_equal(loaded.state(), bundle.state())
    config = P.TrainConfig(batch_size=8, stage2_steps=1, lr=1e-2, seed=8)
    P.adapt_generator(config, loaded, workspace["tgt"])
    assert draws == []
    # without a generator to copy, a fresh seeded one is drawn
    loaded.G = None
    P.adapt_generator(config, loaded, workspace["tgt"])
    assert len(draws) == g_convs


def test_mmd_curve_contract(workspace):
    curve = P.mmd_curve(workspace["bundle"], workspace["src"].subset("test"),
                        workspace["tgt"].subset("test"))
    assert [name for name, _ in curve] == list(P.BLOCK_NAMES)
    assert all(value >= 0.0 for _, value in curve)


def test_ablation_config_algebra():
    config = P.TrainConfig(eta=0.1, use_dsc=True)
    nsc = P.ablation_config(config, "nsc")
    assert nsc.eta == 0.0 and nsc.use_dsc is False
    nsc_dsc = P.ablation_config(config, "nsc_dsc")
    assert nsc_dsc.eta == 0.0 and nsc_dsc.use_dsc is True
    assert P.ablation_config(config, "full") == config
    # a config shared with an adapt run that turned the content terms off
    # must not make the full row a copy of nsc
    no_dsc = dataclasses.replace(config, use_dsc=False)
    assert P.ablation_config(no_dsc, "full") == config
    with pytest.raises(ValueError):
        P.ablation_config(config, "half")


def test_ablation_run_rows(workspace):
    # an adapted bundle (gda ablate --model adapted.gdac) keeps its G
    bundle = _copy_source(workspace["bundle"])
    bundle.G = models.build_generator(4)
    generator, before = bundle.G, bundle.G.state()
    config = P.TrainConfig(batch_size=8, stage2_steps=2, lr=1e-3, seed=13)
    results = P.ablation_run(config, bundle, workspace["tgt"],
                             workspace["tgt"].subset("test"))
    assert [name for name, _ in results] == list(P.ABLATION_ROWS)
    baseline = P.evaluate(workspace["bundle"], workspace["tgt"].subset("test"))
    assert results[0][1].auc == baseline.auc
    assert bundle.G is generator
    assert _state_equal(generator.state(), before)


def test_both_stages_take_steps_through_one_loop():
    # one graph, one backward and one optimizer step in the whole module
    source = pathlib.Path(P.__file__).read_text()
    counts = [source.count(call)
              for call in ("T.graph()", "T.backward(", ".step()")]
    assert counts == [1, 1, 1]


def test_pipeline_writes_no_files():
    # the pipeline returns results; only the CLI writes a run directory
    io = re.compile(r"\bopen\(|\bos\.|makedirs|save_checkpoint")
    source = pathlib.Path(P.__file__).read_text().splitlines()
    named = [f"{i}: {line.strip()}" for i, line in enumerate(source, 1)
             if io.search(line)]
    assert named == []
