"""The three workloads: how each is set up, what one round repeats, and the
checks its outputs must pass.

Every workload drives the public entry points the `gda` command uses. The
workload seed only chooses the rendered data; model seeds and
hyperparameters are fixed, so the same seed gives the same inputs and the
same outputs, and every round of a run repeats the previous one exactly.

A workload's `round` returns what its checks need, and `digest` the small
part of that which must repeat exactly from round to round; the checks get
the last round's result and every round's digest. `ops` is the number of
operations one round attempts; `unit` says whether the timed operation is an
optimizer step inside the round ("step") or the whole round ("round").
`setups` is how many times a run sets the workload up; `setup_s` is their
median. `baseline` runs untimed between set-up and the first round.
"""

import os
import time

import numpy as np

from gdafas import checkpoint
from gdafas import data as D
from gdafas import models
from gdafas import pipeline as P
from gdafas.rng import derive_seed

import oracles

# Stage 1 as in the README workflow, cut to two epochs over the 512 source
# training images: 32 steps, after which source AUC is already 1.
STAGE1 = P.TrainConfig(batch_size=32, stage1_epochs=2, lr=1e-3, seed=100)
# Stage 2 as in the README workflow, cut to 28 steps.
ADAPT = P.TrainConfig(batch_size=16, stage2_steps=28, lr=3e-3,
                      lambda_ph=1e-3, seed=100)
# The scoring checkpoint only has to be adapted, not good: a short stage 2
# keeps set-up cheap.
SCORE_ADAPT = P.TrainConfig(batch_size=16, stage2_steps=6, lr=3e-3,
                            lambda_ph=1e-3, seed=100)
SOURCE_PER_CLASS = 320
# Scoring set: 512 labeled target records, four times the 128-record test
# split of the default pair, so ROC sweeps and MMD do measurable work.
SCORE_PER_CLASS = 256
EDGE = 4                       # steps averaged at each end of a training log


def wide_target_spec(seed: int) -> D.DomainSpec:
    """A target farther from the source than the default pair's.

    On the default pair adaptation saturates (AUC 1.0), so a loss of
    adaptation quality could not show; on this style the raw model scores
    0.59-0.75 over seeds 1-10 and the adapted one 0.93-0.99.
    """
    return D.DomainSpec(name="target", gain=(0.50, 0.85, 1.15),
                        brightness=0.15, blur=3, noise=0.03,
                        count_per_class=SOURCE_PER_CLASS,
                        seed=derive_seed(seed, 2))


def _load(spec, root, unlabeled_train=False) -> D.Dataset:
    path = os.path.join(root, spec.name)
    D.generate_domain_dataset(spec, path, unlabeled_train=unlabeled_train)
    return D.load_dataset(path)


def _through_checkpoint(bundle, root):
    path = os.path.join(root, "model.gdac")
    checkpoint.save_checkpoint(bundle, path)
    return checkpoint.load_checkpoint(path)


def _arrays(bundle, names):
    """Every parameter and batch-norm state array of the named networks."""
    out = [p.data.copy() for p in bundle.params(names)]
    for bn in bundle.bn_layers():
        out += [bn.running_mean.copy(), bn.running_var.copy(),
                np.array([float(bn.num_updates)])]
    return out


def _edges(log, column):
    values = [row[column] for row in log]
    return float(np.mean(values[:EDGE])), float(np.mean(values[-EDGE:]))


def _mean_gap(rows) -> float:
    """Mean over batch-norm layers of |delta mean| + |delta var|."""
    return float(np.mean([d_mean + d_var for _, d_mean, d_var in rows]))


class Failures(list):
    def expect(self, ok, what):
        if not ok:
            self.append(what)


class TrainSource:
    """Stage-1 training of F/H/R at batch 32 on the default source domain."""

    unit = "step"
    ops = STAGE1.stage1_epochs * (2 * SOURCE_PER_CLASS * 4 // 5
                                  // STAGE1.batch_size)
    setups = 7                 # about a second each, and the noisiest

    def setup(self, root, seed):
        source_spec, _ = D.default_domain_specs(SOURCE_PER_CLASS, seed)
        return {"root": root, "source": _load(source_spec, root)}

    def baseline(self, state, tracer):
        pass

    def round(self, state):
        bundle, log = P.train_source(STAGE1, [state["source"]])
        return {"bundle": bundle, "log": log}

    def digest(self, result):
        return result["log"]

    def check(self, state, last, digests):
        bad = Failures()
        bundle, log = last["bundle"], last["log"]
        bad.expect(all(d == log for d in digests),
                   "rounds differ: training is not repeatable in-process")
        bad.expect(len(log) == self.ops, f"{len(log)} steps, expected {self.ops}")
        first, end = _edges(log, 3)
        bad.expect(end < first, f"loss did not descend: {first:.4g} -> {end:.4g}")
        updates = [bn.num_updates for bn in bundle.bn_layers()]
        bad.expect(all(u == len(log) for u in updates),
                   f"BN num_updates {updates} != {len(log)} steps")
        names = ("F", "H", "R", "phi")
        loaded = _through_checkpoint(bundle, state["root"])
        pairs = list(zip(_arrays(bundle, names), _arrays(loaded, names)))
        bad.expect(all(oracles.within_f32_rounding(a, b) for a, b in pairs),
                   "checkpoint round trip moved a tensor beyond float32 rounding")
        bad.expect(loaded.G is None, "checkpoint round trip invented a generator")
        auc = P.evaluate(bundle, state["source"].subset("test")).auc
        return bad, {"auc": auc, "train_loss_end": end}


class AdaptFull:
    """Stage 2 with every objective term at batch 16, against a stage-1
    model trained in set-up and passed through a checkpoint."""

    unit = "step"
    ops = ADAPT.stage2_steps
    setups = 3

    def setup(self, root, seed):
        source_spec, _ = D.default_domain_specs(SOURCE_PER_CLASS, seed)
        source = _load(source_spec, root)
        target = _load(wide_target_spec(seed), root, unlabeled_train=True)
        bundle, _ = P.train_source(STAGE1, [source])
        return {"root": root, "target": target,
                "bundle": _through_checkpoint(bundle, root)}

    def baseline(self, state, tracer):
        state["frozen"] = _arrays(state["bundle"], ("F", "H", "R", "phi"))

    def round(self, state):
        generator = models.build_generator(ADAPT.seed)
        _, log = P.adapt_generator(ADAPT, state["bundle"], state["target"],
                                   generator=generator)
        return {"generator": generator, "log": log}

    def digest(self, result):
        return result["log"]

    def check(self, state, last, digests):
        bad = Failures()
        bundle = state["bundle"]
        generator, log = last["generator"], last["log"]
        bad.expect(all(d == log for d in digests),
                   "rounds differ: adaptation is not repeatable in-process")
        frozen = _arrays(bundle, ("F", "H", "R", "phi"))
        bad.expect(len(frozen) == len(state["frozen"]) and all(
            np.array_equal(a, b) for a, b in zip(state["frozen"], frozen)),
            "a frozen tensor or running statistic changed")
        init = models.build_generator(ADAPT.seed).params()
        moved = [not np.array_equal(a.data, b.data)
                 for a, b in zip(init, generator.params())]
        bad.expect(all(moved), f"{moved.count(False)} of {len(moved)} G tensors"
                   " did not change")
        w = ADAPT.weights()
        for step, stat, per, ent1, ent2, ph, _, total in log:
            want = stat + per + w.lambda_ent * (ent1 + ent2) + w.lambda_ph * ph
            if abs(total - want) > 1e-12 * max(1.0, abs(want)):
                bad.append(f"step {step}: logged total {total!r} != {want!r}")
                break
        first, end = _edges(log, 1)
        bad.expect(end < first, f"stat term did not fall: {first:.4g} -> {end:.4g}")
        test = state["target"].subset("test")
        raw_auc = P.evaluate(bundle, test).auc
        auc = P.evaluate(bundle, test, generator=generator).auc
        gap = _mean_gap(P.bn_discrepancy(bundle, test, generator=generator)) \
            / _mean_gap(P.bn_discrepancy(bundle, test))
        bad.expect(gap < 1.0, f"stat_gap_ratio {gap:.4g} is not below 1")
        bad.expect(auc >= raw_auc, f"adapted AUC {auc:.4f} < raw {raw_auc:.4f}")
        return bad, {"auc": auc, "raw_auc": raw_auc, "stat_gap_ratio": gap,
                     "stat_ratio": end / first}


class Score:
    """Inference only: score a labeled target set raw and stylized, then
    compute the `analyze-stats` curves raw and stylized."""

    unit = "round"
    ops = 6
    setups = 3

    def setup(self, root, seed):
        source_spec, target_spec = D.default_domain_specs(SOURCE_PER_CLASS, seed)
        target_spec.count_per_class = SCORE_PER_CLASS
        source = _load(source_spec, root)
        target = _load(target_spec, root)
        bundle, _ = P.train_source(STAGE1, [source])
        bundle, _ = P.adapt_generator(SCORE_ADAPT, bundle, target)
        return {"root": root, "source": source, "target": target,
                "bundle": _through_checkpoint(bundle, root)}

    def baseline(self, state, tracer):
        """Keep what `predict_scores` and `block_features` return inside a
        round, so the checks see the scores and features behind its reports."""
        state["captured"] = None

        def keep(key, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if state["captured"] is not None:
                    state["captured"][key].append(result)
                return result
            return wrapper

        for attr, key in (("predict_scores", "scores"),
                          ("block_features", "features")):
            tracer.patch(P, attr, keep(key, getattr(P, attr)))

    def round(self, state):
        bundle, source, target = state["bundle"], state["source"], state["target"]
        state["captured"] = captured = {"scores": [], "features": []}
        times, out = {}, {"captured": captured}
        calls = [
            ("raw", lambda: P.evaluate(bundle, target)),
            ("stylized", lambda: P.evaluate(bundle, target, generator=bundle.G)),
            ("bn_raw", lambda: P.bn_discrepancy(bundle, target)),
            ("bn_stylized", lambda: P.bn_discrepancy(bundle, target,
                                                     generator=bundle.G)),
            ("mmd_raw", lambda: P.mmd_curve(bundle, source, target)),
            ("mmd_stylized", lambda: P.mmd_curve(bundle, source, target,
                                                 generator=bundle.G)),
        ]
        for name, call in calls:
            t0 = time.perf_counter()
            out[name] = call()
            times[name] = time.perf_counter() - t0
        state["captured"] = None
        out["times"] = times
        return out

    def digest(self, result):
        return [(result[k].auc, result[k].eer_threshold, result[k].roc)
                for k in ("raw", "stylized")] + [
            result[k] for k in ("bn_raw", "bn_stylized", "mmd_raw", "mmd_stylized")]

    def check(self, state, last, digests):
        bad = Failures()
        bundle, target = state["bundle"], state["target"]
        labels = target.labels
        bad.expect(all(d == digests[-1] for d in digests),
                   "rounds differ: scoring is not repeatable in-process")
        scores = last["captured"]["scores"]
        subset = D.Dataset(target.images[:160], labels[:160], target.depths[:160])
        for key, generator, s in (("raw", None, scores[0]),
                                  ("stylized", bundle.G, scores[1])):
            report = last[key]
            bad.expect(len(s) == len(labels) and np.all(np.isfinite(s))
                       and s.min() >= 0.0 and s.max() <= 1.0,
                       f"{key}: scores outside [0, 1]")
            again = P.predict_scores(bundle, subset, generator, batch_size=48)
            bad.expect(np.allclose(again, s[:160], rtol=0, atol=1e-12),
                       f"{key}: scores depend on the scoring batch size")
            pairs = oracles.pair_auc(s, labels)
            bad.expect(abs(report.auc - pairs) <= 1e-12,
                       f"{key}: AUC {report.auc!r} != pair count {pairs!r}")
            th, far, frr = oracles.far_frr(s, labels)
            gaps = np.abs(far - frr)
            at = gaps[th == report.eer_threshold]
            bad.expect(at.size == 1 and at[0] <= gaps.min() + 1e-15,
                       f"{key}: EER threshold does not minimize |FAR-FRR|")
        feats = last["captured"]["features"]
        for key, src, tgt in (("mmd_raw", feats[0], feats[1]),
                              ("mmd_stylized", feats[2], feats[3])):
            for (block, value) in last[key]:
                want = oracles.rbf_mmd(src[block], tgt[block])
                bad.expect(abs(value - want) <= 1e-6 * abs(want) + 1e-12,
                           f"{key} {block}: mmd {value!r} != {want!r}")
        n = len(labels)
        t = last["times"]
        return bad, {
            "auc": last["stylized"].auc,
            "raw_auc": last["raw"].auc,
            "score_raw_images_per_s": n / t["raw"],
            "score_stylized_images_per_s": n / t["stylized"],
            "analyze_s": sum(v for k, v in t.items() if k not in ("raw", "stylized")),
            "stat_gap_ratio": _mean_gap(last["bn_stylized"]) / _mean_gap(last["bn_raw"]),
        }


WORKLOADS = {"train-source": TrainSource, "adapt-full": AdaptFull, "score": Score}
