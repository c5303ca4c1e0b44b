"""Two-stage training, evaluation, and style-gap analyses.

Stage 1 fits the source model (classifier plus depth head) on labeled source
data. Stage 2 freezes that model and trains only the generator so that
stylized target batches reproduce the stored batch-norm statistics while
keeping target content, optionally diversified by amplitude mixing. Scoring
and the style-gap analyses read one streaming pass per (dataset, generator),
``eval_pass``. Both training stages take their steps through one loop,
``_take_steps``, which runs each step inside its own ``tensor.graph()``, so
a step that raises leaves no taped nodes behind; evaluation opens no graph
and tapes nothing. The module writes no files: each function returns its
results, and the CLI writes them into a run directory.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import losses as L
from . import metrics as M
from . import models
from . import spectrum as S
from . import tensor as T
from .data import (RULES, Dataset, InputError, batch_iterator,
                   check_fields, decode, merge_datasets)
from .layers import Adam, BatchNorm2d
from .rng import Rng, derive_seed

FROZEN = ("F", "H", "R", "phi")
BLOCK_NAMES = ("b1", "b2", "b3")
EVAL_OUTPUTS = ("scores", "moments", "features")


@dataclass
class TrainConfig:
    """Hyperparameters for both stages."""

    batch_size: int = 32
    stage1_epochs: int = 20
    stage2_steps: int = 2000
    lr: float = 1e-4
    eta: float = 0.1            # SpecMix amplitude-mixing cap
    lambda_ent: float = 0.01
    lambda_ph: float = 0.01
    alpha: float = 0.1          # batch-norm running-statistic update ratio
    seed: int = 0
    use_dsc: bool = True        # perceptual + phase content terms

    def __post_init__(self):
        # JSON configs reach here unconverted: 1.5 epochs, a "7" seed or a
        # true learning rate must be refused, not truncated or coerced
        check_fields(vars(self), {f.name: RULES[f.type] for f in fields(self)})
        if min(self.batch_size, self.stage1_epochs, self.stage2_steps) < 1:
            raise InputError("batch size, epochs, and steps must be >= 1")
        if self.lr <= 0:
            raise InputError(f"learning rate must be positive and finite, "
                             f"got {self.lr}")
        # lambda ~ U(0, eta) must stay a convex amplitude-mixing weight
        if not 0 <= self.eta <= 1:
            raise InputError(f"eta must lie in [0, 1], got {self.eta}")
        if min(self.lambda_ent, self.lambda_ph) < 0:
            raise InputError("loss weights must be nonnegative")
        if not 0 < self.alpha <= 1:
            raise InputError("alpha must lie in (0, 1]")

    def weights(self) -> L.LossWeights:
        return L.LossWeights(self.lambda_ent, self.lambda_ph)


@dataclass
class EvalReport:
    auc: float
    hter: float
    eer_threshold: float
    hter_at_half: float
    roc: list = field(default_factory=list)       # (FAR, TPR) pairs
    per_domain: dict = field(default_factory=dict)


def _take_steps(opt: Adam, stage: str, steps) -> list:
    """The step protocol of both stages; returns the log rows. Each
    ``next(steps)`` computes one step's ``(total, parts)`` (parts: loss-part
    floats) inside the graph opened for it. A non-finite total aborts;
    otherwise the step logs ``(step, *parts.values(), total)`` and takes one
    Adam step. A generator's frame keeps a step's tensors until the next step
    replaces them: freed at each step's end, they would let glibc trim the
    heap for the next step to fault back in (CHANGES.md records the fault
    counts and step times that chose this)."""
    rows = []
    while True:
        with T.graph():
            taken = next(steps, None)
            if taken is None:
                return rows
            total, parts = taken
            if not np.isfinite(total.item()):
                detail = ", ".join(f"{k}={v:.6g}" for k, v in parts.items())
                raise RuntimeError(f"non-finite {stage} loss at step "
                                   f"{len(rows)} ({detail}); aborting")
            rows.append((len(rows), *parts.values(), total.item()))
            opt.zero_grad()
            T.backward(total)
            opt.step()


# ---------------------------------------------------------------------------
# stage 1: source training

STAGE1_LOG = ("step", "cross_entropy", "depth_mse", "total")


def train_source(config: TrainConfig, datasets):
    """Fit F/H/R on the pooled labeled training records of a list of
    datasets; returns (bundle, log rows), one ``STAGE1_LOG`` row per step.

    The classification and depth objectives are summed unweighted; batch-norm
    running statistics accumulate in train mode with ratio ``config.alpha``.
    """
    pool = merge_datasets(datasets).subset("train")
    if len(pool.images) == 0:
        raise InputError("source manifest has no training records")
    if len(pool.images) < config.batch_size:
        # batches drop their remainder, so no step would run
        raise InputError(
            f"source has {len(pool.images)} training records, fewer than "
            f"batch_size {config.batch_size}"
        )
    if np.any(pool.labels < 0):
        raise InputError("source training requires labeled records")

    bundle = models.build_source_bundle(config.seed)
    for bn in bundle.bn_layers():
        bn.momentum = config.alpha
    opt = Adam(bundle.params(("F", "H", "R")), lr=config.lr)

    def steps():
        for epoch in range(config.stage1_epochs):
            epoch_seed = derive_seed(config.seed, "stage1", epoch)
            for batch in batch_iterator(pool, config.batch_size, epoch_seed):
                logits, depth, _, _ = models.forward_source(
                    bundle, batch["images"], mode="train"
                )
                ce = L.cross_entropy_loss(logits, batch["labels"])
                dm = L.mse_loss(depth, batch["depths"])
                yield T.add(ce, dm), {"cross_entropy": ce.item(),
                                      "depth_mse": dm.item()}

    return bundle, _take_steps(opt, "stage-1", steps())


# ---------------------------------------------------------------------------
# stage 2: generator adaptation

STAGE2_LOG = ("step", "stat", "per", "ent1", "ent2", "ph", "stat_ema",
              "total")


def _verify_snapshot(bundle, snapshot):
    """Raise unless every frozen network's state equals ``snapshot``, a list
    of their ``state()`` dicts taken in ``FROZEN`` order."""
    for name, before in zip(FROZEN, snapshot):
        after = bundle.net(name).state()
        if not all(np.array_equal(v, after[k]) for k, v in before.items()):
            raise RuntimeError(
                "frozen source model was mutated during adaptation"
            )


def _draw_stage2_batch(pool: Dataset, config: TrainConfig, step: int):
    """Half decoded original target images, half amplitude-mixed copies of
    them."""
    rng = Rng(derive_seed(config.seed, "stage2", step))
    half = config.batch_size // 2
    order = rng.shuffle(np.arange(len(pool.images)))
    idx = np.asarray(order[:half])
    originals = decode(pool.images[idx])
    mixed, _, _ = S.specmix_batch(originals, rng, config.eta)
    return np.concatenate([originals, mixed], axis=0)


def adapt_generator(config: TrainConfig, bundle, target_dataset,
                    generator=None):
    """Train only the generator against the frozen source model.

    Per step: draw a target batch, diversify half of it by amplitude mixing,
    stylize with G, run the frozen model collecting per-layer batch
    statistics (running statistics untouched), assemble the statistic,
    content, and entropy objectives, and take an Adam step on G alone. The
    frozen networks' state is copied before the run and verified bitwise
    after it. A passed ``generator`` is trained in place; without one, a
    copy of ``bundle.G`` (or a fresh seeded generator) is. The bundle
    receives the trained generator only after that check passes, so an
    aborted run leaves ``bundle.G`` as it was. Returns (bundle, log rows),
    one ``STAGE2_LOG`` row per step.
    """
    if any(bn.num_updates == 0 for bn in bundle.bn_layers()):
        raise InputError(
            "source model has no stored running statistics; train it first"
        )
    if config.batch_size < 4:
        raise InputError(
            f"stage-2 batch_size must be at least 4, got {config.batch_size}"
        )
    pool = target_dataset.subset("train")
    if len(pool.images) < 2:
        raise InputError("adaptation needs at least two target images")

    if generator is None and bundle.G is None:
        generator = models.build_generator(config.seed)
    elif generator is None:
        generator = models.build_generator(None)
        generator.load_state(bundle.G.state())
    models.freeze(bundle, FROZEN)
    snapshot = [bundle.net(name).state() for name in FROZEN]

    opt = Adam(generator.params(), lr=config.lr)
    weights = config.weights()
    stored = [(bn.running_mean, bn.running_var) for bn in bundle.bn_layers()]

    def steps():
        for step in range(config.stage2_steps):
            x_t = _draw_stage2_batch(pool, config, step)
            x_st = generator.forward(T.Tensor(x_t))
            logits, depth, batch_stats, _ = models.forward_source(
                bundle, x_st, mode="stats"
            )
            l_stat = L.stat_consistency_loss(batch_stats, stored)
            if config.use_dsc:
                feat_tgt = bundle.phi.features(T.Tensor(x_t))
                feat_gen = bundle.phi.features(x_st)
                l_per = L.mse_loss(feat_gen, feat_tgt)
                l_ph = S.phase_alignment_loss(x_t, x_st)
            else:
                l_per = T.Tensor(0.0)
                l_ph = T.Tensor(0.0)
            l_ent1 = L.entropy_classifier(T.softmax(logits, axis=1))
            l_ent2 = L.entropy_depth(depth)
            total = L.total_loss(l_stat, l_per, l_ent1, l_ent2, l_ph,
                                 weights)
            yield total, {"stat": l_stat.item(), "per": l_per.item(),
                          "ent1": l_ent1.item(), "ent2": l_ent2.item(),
                          "ph": l_ph.item()}

    rows = _take_steps(opt, "stage-2", steps())
    # monitoring-only running mean of the statistic loss
    for i, row in enumerate(rows):
        stat_ema = row[1] if i == 0 else 0.9 * stat_ema + 0.1 * row[1]
        rows[i] = (*row[:-1], stat_ema, row[-1])

    _verify_snapshot(bundle, snapshot)
    # only a run that finished with the source model intact hands G over
    bundle.G = generator
    return bundle, rows


# ---------------------------------------------------------------------------
# evaluation


def eval_pass(bundle, dataset: Dataset, generator, outputs,
              batch_size: int = 64) -> dict:
    """One streaming eval-mode pass of the frozen model over a dataset.

    Each manifest-order batch is decoded, stylized by ``generator`` when one
    is given and run through F. ``outputs`` names what to return, a subset of
    ``EVAL_OUTPUTS``; only the networks those read run:

    - ``scores``: live-class probabilities [N] (float64), through H;
    - ``features``: {block: [N, C]}, F's spatially pooled block outputs;
    - ``moments``: (mean, variance) of each BN layer's input over the
      dataset, in ``bn_layers`` order, through R too. The layers normalize
      with their stored statistics and are never updated; the per-batch
      float64 moments of the inputs they return are pooled exactly via
      E[x^2] - E[x]^2 with batch-size weights.
    """
    if len(dataset.images) == 0:
        raise InputError("dataset is empty: no records to run the model on")
    scores, pooled = [], {name: [] for name in BLOCK_NAMES}
    mean_acc = [0.0] * len(bundle.bn_layers())
    sq_acc = list(mean_acc)
    for start in range(0, len(dataset.images), batch_size):
        x = decode(dataset.images[start:start + batch_size])
        if generator is not None:
            x = generator.forward(T.Tensor(x)).data
        blocks, f_inputs = bundle.F.forward(x, "eval")
        if "scores" in outputs:
            logits = bundle.H.forward(blocks)
            # float64, so float32 rounding cannot tie near saturation
            p = T.softmax(logits.data.astype(np.float64), axis=1).data
            scores.append(p[:, 1])
        if "features" in outputs:
            for name, feat in zip(BLOCK_NAMES, blocks):
                pooled[name].append(feat.data.mean(axis=(2, 3)))
        if "moments" in outputs:
            _, r_inputs = bundle.R.forward(blocks, "eval")
            w = float(x.shape[0])
            for i, a in enumerate(f_inputs + r_inputs):
                mean = a.mean(axis=(0, 2, 3), dtype=np.float64)
                var = a.var(axis=(0, 2, 3), dtype=np.float64)
                mean_acc[i] = mean_acc[i] + w * mean
                sq_acc[i] = sq_acc[i] + w * (var + mean * mean)
    result = {}
    if "scores" in outputs:
        result["scores"] = np.concatenate(scores)
    if "features" in outputs:
        result["features"] = {name: np.concatenate(parts)
                              for name, parts in pooled.items()}
    if "moments" in outputs:
        n = float(len(dataset.images))   # the batch weights' exact sum
        means = [m_sum / n for m_sum in mean_acc]
        result["moments"] = [(m, np.maximum(q_sum / n - m * m, 0.0))
                             for m, q_sum in zip(means, sq_acc)]
    return result


def predict_scores(bundle, dataset: Dataset, generator=None,
                   batch_size: int = 64) -> np.ndarray:
    """``eval_pass`` scores: live-class probabilities, manifest order."""
    return eval_pass(bundle, dataset, generator, ("scores",),
                     batch_size)["scores"]


def evaluate(bundle, dataset: Dataset, generator=None) -> EvalReport:
    """Score a labeled dataset through the frozen model, optionally stylized.

    HTER is reported at the equal-error threshold of these scores; the 0.5
    operating point is included for transparency.
    """
    if np.any(dataset.labels < 0):
        raise InputError("evaluation requires labeled records")
    if len(set(dataset.labels.tolist())) == 1:
        raise InputError("evaluation needs at least one live and one spoof "
                         "record")
    scores = predict_scores(bundle, dataset, generator)
    labels = dataset.labels
    auc = M.roc_auc(scores, labels)
    threshold, _, _ = M.eer_threshold(scores, labels)
    report = EvalReport(
        auc=auc,
        hter=M.hter(scores, labels, threshold),
        eer_threshold=float(threshold),
        hter_at_half=M.hter(scores, labels, 0.5),
        roc=M.roc_points(scores, labels),
    )
    for domain in sorted(set(dataset.domains)):
        keep = np.array([d == domain for d in dataset.domains])
        dom_labels = labels[keep]
        if len(set(dom_labels.tolist())) < 2:
            continue
        report.per_domain[domain] = {
            "auc": M.roc_auc(scores[keep], dom_labels),
            "hter": M.hter(scores[keep], dom_labels, threshold),
        }
    return report


# ---------------------------------------------------------------------------
# discrepancy analyses


def bn_rows(bundle, moments):
    """Per-layer distance between dataset moments (``eval_pass``'s
    ``moments``) and the stored statistics: (layer name, mean |delta mu|,
    mean |delta var|) rows, shallow to deep."""
    named = [(name, layer) for name, layer in bundle.layers()
             if isinstance(layer, BatchNorm2d)]
    return [(name, float(np.mean(np.abs(mean - bn.running_mean))),
             float(np.mean(np.abs(var - bn.running_var))))
            for (name, bn), (mean, var) in zip(named, moments)]


def bn_discrepancy(bundle, dataset: Dataset, generator=None,
                   batch_size: int = 64):
    """``bn_rows`` of a dataset, optionally stylized. Labels are never
    consulted, so unlabeled data is fine."""
    moments = eval_pass(bundle, dataset, generator, ("moments",),
                        batch_size)["moments"]
    return bn_rows(bundle, moments)


def block_features(bundle, dataset: Dataset, generator=None,
                   batch_size: int = 64):
    """``eval_pass`` features: {block: [N, C]}, manifest order."""
    return eval_pass(bundle, dataset, generator, ("features",),
                     batch_size)["features"]


def mmd_rows(src_feats, tgt_feats):
    """Per-block RBF MMD between two ``block_features`` results; rows run
    shallow to deep."""
    return [(name, M.mmd(src_feats[name], tgt_feats[name]))
            for name in BLOCK_NAMES]


def mmd_curve(bundle, source_dataset: Dataset, target_dataset: Dataset,
              generator=None):
    """``mmd_rows`` between source features and (optionally stylized)
    target features."""
    return mmd_rows(block_features(bundle, source_dataset),
                    block_features(bundle, target_dataset, generator))


# ---------------------------------------------------------------------------
# ablation


ABLATION_ROWS = ("baseline", "nsc", "nsc_dsc", "full")


def ablation_config(config: TrainConfig, row: str) -> TrainConfig:
    """Component switches per ablation row.

    The statistic and entropy terms are the base adaptation objective and
    stay on in every adapted row; "nsc_dsc" adds the content terms, "full"
    additionally enables amplitude mixing at the config's ``eta``. Each row
    sets ``use_dsc`` itself, so a config's own value never reaches a row.
    """
    if row == "nsc":
        return replace(config, eta=0.0, use_dsc=False)
    if row == "nsc_dsc":
        return replace(config, eta=0.0, use_dsc=True)
    if row == "full":
        return replace(config, use_dsc=True)
    raise ValueError(f"unknown ablation row {row!r}")


def ablation_run(config: TrainConfig, bundle, target_dataset: Dataset,
                 eval_dataset: Dataset):
    """Adapt under each component subset and score the target test split.

    Returns [(row name, EvalReport)] in baseline / nsc / nsc_dsc / full
    order. Every adapted row starts from a fresh identically seeded
    generator, so rows differ only in the enabled objectives.
    """
    results = [("baseline", evaluate(bundle, eval_dataset))]
    for row in ABLATION_ROWS[1:]:
        row_config = ablation_config(config, row)
        generator = models.build_generator(config.seed)
        adapt_generator(row_config, bundle, target_dataset,
                        generator=generator)
        results.append(
            (row, evaluate(bundle, eval_dataset, generator=generator))
        )
    bundle.G = None
    return results
