"""Scorecard for the package: one check per promised behavior.

Every test prints a single PASS/FAIL line with its measured numbers (the
``capsys.disabled`` block writes straight to the terminal), so a full run
reads as a scorecard even when everything is green. The expensive stage-1 /
stage-2 workflow runs once in a module fixture and is shared by the
end-to-end, ablation, and discrepancy checks.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gdafas import checkpoint, data, gradcheck, layers, models
from gdafas import metrics as M
from gdafas import pipeline as P
from gdafas import spectrum as S
from gdafas import tensor as T
from gdafas.cli import main as cli_main
from oracles import naive_dft2d, roc_auc_pairs

STAGE1 = dict(batch_size=32, stage1_epochs=6, lr=1e-3, seed=100)
# Small phase weight: the cosine objective's gradients are stiff through
# low-amplitude bins and a larger weight stalls descent at this image size.
ADAPT = dict(batch_size=16, stage2_steps=120, lr=3e-3,
             lambda_ph=1e-3, seed=100)


def report(capsys, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generate the two-domain benchmark, train stage 1, adapt stage 2."""
    root = tmp_path_factory.mktemp("accept")
    t0 = time.perf_counter()
    source_spec, target_spec = data.default_domain_specs()
    data.generate_domain_dataset(source_spec, str(root / "source"))
    data.generate_domain_dataset(target_spec, str(root / "target"),
                                 unlabeled_train=True)
    source = data.load_dataset(str(root / "source"))
    target = data.load_dataset(str(root / "target"))

    stage1 = P.TrainConfig(**STAGE1)
    bundle, _ = P.train_source(stage1, [source])
    os.makedirs(root / "src_run")
    checkpoint.save_checkpoint(bundle, str(root / "src_run" / "source.gdac"))
    src_auc = P.evaluate(bundle, source.subset("test")).auc
    raw_tgt_auc = P.evaluate(bundle, target.subset("test")).auc

    stage2 = P.TrainConfig(**ADAPT)
    bundle, _ = P.adapt_generator(stage2, bundle, target)
    generator = bundle.G
    adapted_tgt_auc = P.evaluate(bundle, target.subset("test"),
                                 generator=generator).auc
    return {
        "root": root,
        "source": source,
        "target": target,
        "bundle": bundle,
        "generator": generator,
        "src_auc": src_auc,
        "raw_tgt_auc": raw_tgt_auc,
        "adapted_tgt_auc": adapted_tgt_auc,
        "elapsed": time.perf_counter() - t0,
    }


def _taped_op_kinds(root, monkeypatch):
    """Op kinds on the tape at the backward of one real stage-1 step and one
    real stage-2 step, named by each node's backward rule: the rule
    ``add.<locals>.<lambda>`` is kind ``add``."""
    kinds, backward = set(), T.backward

    def spy(loss):
        kinds.update(node.fn.__qualname__.split(".")[0] for node in T._graph)
        backward(loss)

    source_spec, target_spec = data.default_domain_specs(5, seed=3)
    data.generate_domain_dataset(source_spec, str(root / "source"))
    data.generate_domain_dataset(target_spec, str(root / "target"),
                                 unlabeled_train=True)
    monkeypatch.setattr(T, "backward", spy)
    bundle, log = P.train_source(
        P.TrainConfig(batch_size=8, stage1_epochs=1, seed=3),
        [data.load_dataset(str(root / "source"))])
    _, adapt_log = P.adapt_generator(
        P.TrainConfig(batch_size=4, stage2_steps=1, seed=3), bundle,
        data.load_dataset(str(root / "target")))
    monkeypatch.undo()
    assert len(log) == len(adapt_log) == 1
    return kinds


def test_gradient_suite(capsys, tmp_path, monkeypatch):
    kinds = _taped_op_kinds(tmp_path, monkeypatch)
    t0 = time.perf_counter()
    results = gradcheck.run_checks(seed=0, trials=20)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_error for r in results)
    # every op a training step tapes must have a check of its own
    unchecked = sorted(kinds - {r.name for r in results})
    ok = (all(r.passed for r in results) and worst < 1e-4
          and not unchecked and elapsed < 120.0)
    report(capsys, "gradient-suite", ok,
           f"{len(results)} checks x 20 trials, worst rel err "
           f"{worst:.2e} (< 1e-4), {elapsed:.1f}s (< 120s)"
           + (f"; taped but unchecked: {unchecked}" if unchecked else ""))


def test_spectrum_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)

    x = rng.random((16, 12))
    roundtrip = np.abs(np.fft.ifft2(np.fft.fft2(x)) - x).max()

    y = rng.random((8, 8))
    fast, naive = np.fft.fft2(y), naive_dft2d(y)
    fft_vs_naive = max(np.abs(fast.real - naive.real).max(),
                       np.abs(fast.imag - naive.imag).max())

    amp, _ = S.amp_phase(np.fft.fft2(y))
    parseval = abs((y ** 2).sum() - (amp ** 2).sum() / y.size) \
        / (y ** 2).sum()

    # mid-range pixels keep the mixed image inside [0,1], so the final
    # clip is a no-op and the identities hold exactly
    imgs = 0.25 + 0.5 * rng.random((3, 3, 16, 16))
    ref = 0.25 + 0.5 * rng.random((3, 3, 16, 16))
    lam_zero = np.abs(S.specmix(imgs, ref, np.zeros(3)) - imgs).max()
    self_ref = np.abs(
        S.specmix(imgs, imgs, rng.random(3)) - imgs
    ).max()

    mixed = S.specmix(imgs, ref, np.full(3, 0.5))
    amp_before, phase_before = S.amp_phase(np.fft.fft2(imgs))
    amp_after, phase_after = S.amp_phase(np.fft.fft2(mixed))
    keep = (amp_before > 1e-8) & (amp_after > 1e-8)
    wrap = np.abs(phase_after - phase_before)
    phase_drift = np.minimum(wrap, 2.0 * np.pi - wrap)[keep].max()

    elapsed = time.perf_counter() - t0
    ok = (roundtrip < 1e-9 and fft_vs_naive < 1e-9 and parseval < 1e-6
          and lam_zero < 1e-6 and self_ref < 1e-6 and phase_drift < 1e-6
          and elapsed < 30.0)
    report(capsys, "spectrum-identities", ok,
           f"roundtrip {roundtrip:.1e}, fft-vs-naive {fft_vs_naive:.1e}, "
           f"parseval {parseval:.1e}, mix identities "
           f"{max(lam_zero, self_ref):.1e}, phase drift {phase_drift:.1e}, "
           f"{elapsed:.1f}s (< 30s)")


def test_running_average_recurrence(capsys):
    bn = layers.BatchNorm2d(3, momentum=0.1)
    rng = np.random.default_rng(11)
    means, variances = [], []
    for _ in range(1000):
        x = rng.normal(size=(2, 3, 4, 4))
        bn.forward(T.Tensor(x), mode="train")
        means.append(x.mean(axis=(0, 2, 3)))
        variances.append(x.var(axis=(0, 2, 3)))
    k = len(means)
    w = 0.1 * 0.9 ** np.arange(k - 1, -1, -1.0)
    mean_closed = (w[:, None] * np.array(means)).sum(axis=0)
    var_closed = 0.9 ** k + (w[:, None] * np.array(variances)).sum(axis=0)
    drift = max(np.abs(bn.running_mean - mean_closed).max(),
                np.abs(bn.running_var - var_closed).max())

    out, _ = bn.forward(T.Tensor(3.0 * rng.normal(size=(8, 3, 8, 8))),
                        mode="train")
    out = out.data
    out_mean = np.abs(out.mean(axis=(0, 2, 3))).max()
    out_var = np.abs(out.var(axis=(0, 2, 3)) - 1.0).max()

    ok = drift < 1e-12 and out_mean < 1e-6 and out_var < 1e-5
    report(capsys, "bn-recurrence", ok,
           f"closed-form drift {drift:.1e} over 1000 steps (< 1e-12), "
           f"normalized |mean| {out_mean:.1e} (< 1e-6), "
           f"|var-1| {out_var:.1e} (< 1e-5)")


def _frozen_state(bundle):
    blobs = [p.data.tobytes() for p in bundle.params(("F", "H", "R", "phi"))]
    for bn in bundle.bn_layers():
        blobs.append(bn.running_mean.tobytes())
        blobs.append(bn.running_var.tobytes())
        blobs.append(bytes([bn.num_updates % 256]))
    return blobs


def test_frozen_model_contract(workspace, capsys):
    bundle = checkpoint.load_checkpoint(
        str(workspace["root"] / "src_run" / "source.gdac")
    )
    before = _frozen_state(bundle)
    generator = models.build_generator(4242)
    gen_before = [p.data.copy() for p in generator.params()]

    config = P.TrainConfig(batch_size=8, stage2_steps=500, lr=3e-3,
                           lambda_ph=1e-3, seed=4242)
    P.adapt_generator(config, bundle, workspace["target"],
                      generator=generator)

    frozen_ok = _frozen_state(bundle) == before
    moved = sum(not np.array_equal(old, p.data)
                for old, p in zip(gen_before, generator.params()))
    ok = frozen_ok and moved > 0
    report(capsys, "frozen-contract", ok,
           f"500 steps: frozen nets bitwise unchanged {frozen_ok}, "
           f"{moved}/{len(gen_before)} generator tensors moved")


def test_end_to_end_adaptation(workspace, capsys):
    src = workspace["src_auc"]
    raw = workspace["raw_tgt_auc"]
    adapted = workspace["adapted_tgt_auc"]
    elapsed = workspace["elapsed"]
    ok = (src >= 0.95 and src - raw >= 0.10 and adapted - raw >= 0.10
          and elapsed < 900.0)
    report(capsys, "end-to-end-adaptation", ok,
           f"source AUC {src:.4f} (>= 0.95), raw target AUC {raw:.4f} "
           f"(gap {src - raw:.4f} >= 0.10), adapted target AUC "
           f"{adapted:.4f} (gain {adapted - raw:.4f} >= 0.10), "
           f"{elapsed:.0f}s (< 900s)")


def test_ablation_component_trend(workspace, capsys):
    eval_set = workspace["target"].subset("test")
    scores = {row: [] for row in P.ABLATION_ROWS}
    for seed in (201, 202, 203):
        # 200 steps: the content-constrained rows converge slower than
        # full SpecMix and need the margin to saturate
        config = P.TrainConfig(batch_size=16, stage2_steps=200, lr=3e-3,
                               lambda_ph=1e-3, seed=seed)
        for row, rep in P.ablation_run(config, workspace["bundle"],
                                       workspace["target"], eval_set):
            scores[row].append(rep.auc)
    mean = {row: float(np.mean(vals)) for row, vals in scores.items()}
    ordered = (mean["full"] >= mean["nsc_dsc"] >= mean["nsc"]
               >= mean["baseline"])
    ok = ordered and mean["full"] - mean["baseline"] >= 0.05
    report(capsys, "ablation-trend", ok,
           "mean AUC over 3 seeds: " +
           ", ".join(f"{row} {mean[row]:.4f}" for row in P.ABLATION_ROWS) +
           f"; full-baseline gap {mean['full'] - mean['baseline']:.4f} "
           f"(>= 0.05)")


def test_discrepancy_shrinks_after_adaptation(workspace, capsys):
    bundle = workspace["bundle"]
    generator = workspace["generator"]
    pool = workspace["target"].subset("train")
    raw_rows = P.bn_discrepancy(bundle, pool)
    sty_rows = P.bn_discrepancy(bundle, pool, generator=generator)
    raw_mean = float(np.mean([r[1] for r in raw_rows]))
    sty_mean = float(np.mean([r[1] for r in sty_rows]))

    src_test = workspace["source"].subset("test")
    tgt_test = workspace["target"].subset("test")
    raw_mmd = P.mmd_curve(bundle, src_test, tgt_test)[0][1]
    sty_mmd = P.mmd_curve(bundle, src_test, tgt_test,
                          generator=generator)[0][1]

    ok = sty_mean < raw_mean and sty_mmd < raw_mmd
    report(capsys, "discrepancy-analysis", ok,
           f"mean BN mean-gap stylized {sty_mean:.4f} < raw "
           f"{raw_mean:.4f}; shallow-block MMD stylized {sty_mmd:.4f} "
           f"< raw {raw_mmd:.4f}")


def test_checkpoint_float32_bound(workspace, capsys, tmp_path):
    # the bundle computes in float32, the precision checkpoints store, so
    # a save/load round trip must change no bit of any tensor or logit
    bundle = replace(workspace["bundle"], G=workspace["generator"])
    path = str(tmp_path / "adapted.gdac")
    checkpoint.save_checkpoint(bundle, path)
    loaded = checkpoint.load_checkpoint(path)
    before, after = bundle.state(), loaded.state()
    moved = [name for name, value in before.items()
             if value.tobytes() != after[name].tobytes()]

    def logits(b, images, stylized):
        x = b.G.forward(T.Tensor(images)) if stylized else images
        return models.forward_source(b, x, mode="eval")[0].data

    worst = 0.0
    for domain in ("source", "target"):
        images = data.decode(workspace[domain].subset("test").images)
        for stylized in (False, True):
            delta = np.abs(logits(bundle, images, stylized)
                           - logits(loaded, images, stylized))
            worst = max(worst, float(delta.max()))
    ok = worst == 0.0 and not moved
    report(capsys, "checkpoint-float32", ok,
           f"max eval-logit change after save/load {worst:.1e} (== 0) over "
           f"raw and stylized source/target test records; "
           f"{len(before) - len(moved)}/{len(before)} tensors bit-identical"
           + (f"; moved: {moved[:5]}" if moved else ""))


def test_metric_oracles(capsys):
    sep_scores, sep_labels = [0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]
    auc_sep = M.roc_auc(sep_scores, sep_labels)
    th, _, _ = M.eer_threshold(sep_scores, sep_labels)
    hter_sep = M.hter(sep_scores, sep_labels, th)
    auc_mixed = M.roc_auc([0.9, 0.1, 0.8, 0.2], [1, 1, 0, 0])
    # 2 of 10 spoofs above 0.5 and 1 of 10 lives below: FAR 0.2, FRR 0.1
    hter_example = M.hter([0.9] * 9 + [0.4] + [0.6, 0.7] + [0.1] * 8,
                          [1] * 10 + [0] * 10, 0.5)

    rng = np.random.default_rng(8)
    oracle_gap, monotone = 0.0, True
    for _ in range(100):
        n = int(rng.integers(8, 40))
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 1, 0
        oracle_gap = max(oracle_gap,
                         abs(M.roc_auc(scores, labels)
                             - roc_auc_pairs(scores, labels)))
        points = M.roc_points(scores, labels)
        fars = [p[0] for p in points]
        tprs = [p[1] for p in points]
        monotone &= (all(a <= b for a, b in zip(fars, fars[1:]))
                     and all(a <= b for a, b in zip(tprs, tprs[1:])))

    ok = (auc_sep == 1.0 and hter_sep == 0.0 and auc_mixed == 0.5
          and abs(hter_example - 0.15) < 1e-12
          and oracle_gap < 1e-12 and monotone)
    report(capsys, "metric-oracles", ok,
           f"pinned AUC {auc_sep}/{auc_mixed}, pinned HTER {hter_sep}/"
           f"{hter_example:.2f}, rank-vs-pairs gap {oracle_gap:.1e} "
           f"on 100 sets, ROC monotone {monotone}")


def _tree(root: Path) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = Path(dirpath) / name
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_cli_rerun_determinism(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"count_per_class": 8, "batch_size": 8, '
                   '"stage1_epochs": 2, "stage2_steps": 3, "lr": 0.001}')

    def chain():
        def run(*argv):
            assert cli_main(list(argv)) == 0, argv
            capsys.readouterr()
        run("gen-data", "--config", str(cfg), "--out",
            str(tmp_path / "data"), "--seed", "3")
        images = tmp_path / "data" / "source" / "images"
        first, second = sorted(os.listdir(images))[:2]
        run("train-source", "--config", str(cfg), "--data",
            str(tmp_path / "data" / "source"), "--out",
            str(tmp_path / "s"), "--seed", "3")
        run("adapt", "--config", str(cfg), "--model",
            str(tmp_path / "s" / "source.gdac"), "--data",
            str(tmp_path / "data" / "target"), "--out",
            str(tmp_path / "a"), "--seed", "3")
        run("eval", "--model", str(tmp_path / "a" / "adapted.gdac"),
            "--data", str(tmp_path / "data" / "target"),
            "--report", str(tmp_path / "report.csv"))
        run("analyze-stats", "--model",
            str(tmp_path / "a" / "adapted.gdac"), "--data",
            str(tmp_path / "data" / "target"), "--source-data",
            str(tmp_path / "data" / "source"), "--out",
            str(tmp_path / "an"))
        run("specmix", "--input", str(images / first), "--ref",
            str(images / second), "--eta", "0.1", "--seed", "5",
            "--out", str(tmp_path / "mix.ppm"))
        run("grad-check", "--seed", "1", "--trials", "2", "--out",
            str(tmp_path / "g"))

    chain()
    snap_a = _tree(tmp_path)
    chain()
    snap_b = _tree(tmp_path)
    same_names = sorted(snap_a) == sorted(snap_b)
    diffs = [k for k in snap_a if snap_a[k] != snap_b.get(k)]
    ok = same_names and not diffs
    report(capsys, "cli-determinism", ok,
           f"{len(snap_a)} artifacts byte-identical across reruns"
           + ("" if not diffs else f"; changed: {diffs[:5]}"))
