"""Command-line front end: every experiment is a pure function of
(flags, config file, input files, seed) to output files.

``dispatch`` merges flags over the config file over the defaults once and
checks every value once, before any command does work, so bad input exits 1
without a run having started. The pipeline returns results and writes no
files; each command writes its ``--out`` run directory (``config.json`` plus
its artifacts) here, once that work has returned.

stdout carries exactly one JSON summary line per invocation; human-readable
diagnostics go to stderr. Exit codes: 0 success, 1 validation error
(flags, config, missing inputs), 2 runtime failure.
"""

import argparse
import json
import numbers
import os
import sys
from dataclasses import fields

import numpy as np

from . import data as D
from . import gradcheck as GC
from . import pipeline as P
from . import spectrum as S
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .pipeline import TrainConfig
from .rng import Rng

_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
# the JSON type of every other value a command reads; train-source also
# takes ``data`` as a list of strings (one dataset each)
_INPUT_KEYS = {"data": str, "model": str, "out": str, "source_data": str,
               "report": str, "input": str, "ref": str, "split": str,
               "count_per_class": numbers.Integral,
               "trials": numbers.Integral}
_DOMAIN_KEYS = {f.name for f in fields(D.DomainSpec)} | {"unlabeled_train"}


class CliError(Exception):
    """Invalid flags, config, or inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def load_config(path: str) -> dict:
    """Parse and validate a JSON config; unknown keys are named and fatal."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise CliError(
            f"malformed JSON in {path}: line {err.lineno} column {err.colno}:"
            f" {err.msg}"
        )
    if not isinstance(config, dict):
        raise CliError(f"{path}: config root must be a JSON object")
    unknown = set(config) - _TRAIN_KEYS - _INPUT_KEYS.keys() - {"domains"}
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    domains = config.get("domains", [])
    if not isinstance(domains, list):
        raise CliError("domains must be a list of objects")
    for i, domain in enumerate(domains):
        if not isinstance(domain, dict):
            raise CliError(f"domains[{i}] must be a JSON object")
        bad = set(domain) - _DOMAIN_KEYS
        if bad:
            raise CliError(
                f"unknown keys in domains[{i}]: {', '.join(sorted(bad))}"
            )
    return config


def _merge(args, config: dict) -> dict:
    """Layer flag values over file values over TrainConfig defaults."""
    merged = {f.name: f.default for f in fields(TrainConfig)}
    merged.update(config)
    for key in _TRAIN_KEYS | _INPUT_KEYS.keys():
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _validate(command: str, merged: dict) -> TrainConfig:
    """Check the merged values before any work: the type of each input key,
    then the values ``command`` cannot run without, then the training
    fields. Returns the training configuration."""
    for key, kind in _INPUT_KEYS.items():
        value = merged.get(key)
        if value is None:
            continue
        if kind is not str:
            ok, rule = D.finite_number(value, kind), "an integer"
        elif key == "data" and command == "train-source":
            ok = isinstance(value, str) or (
                isinstance(value, list) and len(value) > 0
                and all(isinstance(v, str) for v in value))
            rule = "a string or a non-empty list of strings"
        else:
            ok, rule = isinstance(value, str), "a string"
        if not ok:
            raise CliError(f"{key} must be {rule}, got {value!r}")
    for key in _COMMANDS[command][1]:
        if merged.get(key) is None:
            raise CliError(
                f"missing required value: --{key.replace('_', '-')}")
    try:
        return TrainConfig(**{k: merged[k] for k in _TRAIN_KEYS})
    except ValueError as err:
        raise CliError(f"invalid training configuration: {err}")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.9g" % float(value)


def write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def eval_report_rows(report: P.EvalReport):
    """(metric, value) rows of an eval report CSV, per-domain rows last."""
    rows = [
        ("auc", report.auc),
        ("hter", report.hter),
        ("eer_threshold", report.eer_threshold),
        ("hter_at_half", report.hter_at_half),
    ]
    for domain, values in sorted(report.per_domain.items()):
        rows.append((f"auc_{domain}", values["auc"]))
        rows.append((f"hter_{domain}", values["hter"]))
    return rows


def _persist_config(merged: dict, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    serializable = {k: v for k, v in merged.items() if v is not None}
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(serializable, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_run(merged: dict, bundle, checkpoint: str, log_name: str,
               header, log) -> str:
    """Write a finished training run into ``--out``: ``config.json``, the
    bundle's checkpoint and the step log. Returns the checkpoint path."""
    out = merged["out"]
    _persist_config(merged, out)
    path = os.path.join(out, checkpoint)
    save_checkpoint(bundle, path)
    write_csv(os.path.join(out, log_name), header, log)
    return path


def _load_dir(path: str) -> D.Dataset:
    if not os.path.isdir(path):
        raise CliError(f"dataset directory not found: {path}")
    return D.load_dataset(path)


def _load_model(path: str):
    if not os.path.exists(path):
        raise CliError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def _split_of(dataset: D.Dataset, split) -> D.Dataset:
    if split in (None, "all"):
        return dataset
    subset = dataset.subset(split)
    if len(subset.images) == 0:
        raise CliError(f"dataset has no records in split {split!r}")
    return subset


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_data(args, merged, train):
    out = merged["out"]
    count = merged.get("count_per_class")
    if count is None:
        count = 320
    if merged.get("domains"):
        specs = []
        for i, entry in enumerate(merged["domains"]):
            entry = dict(entry)
            entry.setdefault("count_per_class", count)
            entry.setdefault("seed", train.seed)
            unlabeled = entry.pop("unlabeled_train", False)
            if not isinstance(unlabeled, bool):
                raise CliError(f"invalid domains[{i}]: unlabeled_train must "
                               f"be true or false, got {unlabeled!r}")
            try:
                spec = D.DomainSpec(**entry)
            except (TypeError, ValueError) as err:
                raise CliError(f"invalid domains[{i}]: {err}")
            if any(spec.name == other.name for other, _ in specs):
                raise CliError(f"invalid domains[{i}]: domain name "
                               f"{spec.name!r} is already used")
            specs.append((spec, unlabeled))
    else:
        source, target = D.default_domain_specs(count, train.seed)
        specs = [(source, False), (target, True)]
    summary = []
    for spec, unlabeled in specs:
        manifest = D.generate_domain_dataset(
            spec, os.path.join(out, spec.name), unlabeled_train=unlabeled
        )
        summary.append({"name": spec.name,
                        "records": len(manifest["records"])})
    _persist_config(merged, out)
    return {"command": "gen-data", "out": out, "domains": summary}


def _cmd_train_source(args, merged, train):
    data_dirs = merged["data"]
    if isinstance(data_dirs, str):
        data_dirs = [data_dirs]
    datasets = [_load_dir(d) for d in data_dirs]
    bundle, log = P.train_source(train, datasets)
    checkpoint = _write_run(merged, bundle, "source.gdac",
                            "train_source_log.csv", P.STAGE1_LOG, log)
    return {
        "command": "train-source",
        "checkpoint": checkpoint,
        "steps": len(log),
        "final_loss": log[-1][P.STAGE1_LOG.index("total")],
    }


def _cmd_adapt(args, merged, train):
    bundle = _load_model(merged["model"])
    target = _load_dir(merged["data"])
    bundle, log = P.adapt_generator(train, bundle, target)
    checkpoint = _write_run(merged, bundle, "adapted.gdac", "adapt_log.csv",
                            P.STAGE2_LOG, log)
    return {
        "command": "adapt",
        "checkpoint": checkpoint,
        "steps": len(log),
        "final_stat": log[-1][P.STAGE2_LOG.index("stat")],
        "final_total": log[-1][P.STAGE2_LOG.index("total")],
    }


def _cmd_eval(args, merged, train):
    bundle = _load_model(merged["model"])
    dataset = _split_of(_load_dir(merged["data"]),
                        merged.get("split") or "test")
    generator = None if args.raw else bundle.G
    report = P.evaluate(bundle, dataset, generator=generator)
    # --report first: a missing parent directory exits 1 before --out exists
    if merged.get("report"):
        write_csv(merged["report"], ("metric", "value"),
                  eval_report_rows(report))
    out = merged.get("out")
    if out:
        _persist_config(merged, out)
        write_csv(os.path.join(out, "eval_report.csv"), ("metric", "value"),
                  eval_report_rows(report))
        write_csv(os.path.join(out, "roc.csv"), ("far", "tpr"), report.roc)
    return {
        "command": "eval",
        "auc": report.auc,
        "hter": report.hter,
        "stylized": generator is not None,
        "records": len(dataset.images),
    }


def _cmd_specmix(args, merged, train):
    out = merged["out"]
    image = D.ppm_read(merged["input"])
    ref = D.ppm_read(merged["ref"])
    if image.shape != ref.shape:
        raise CliError(
            f"image shapes differ: {image.shape} vs {ref.shape}"
        )
    lam = S.sample_lambda(Rng(train.seed), 1, train.eta)
    mixed = S.specmix(image[None], ref[None], lam)[0]
    D.ppm_write(out, mixed)
    return {"command": "specmix", "out": out, "lambda": float(lam[0])}


def _cmd_analyze_stats(args, merged, train):
    out = merged["out"]
    bundle = _load_model(merged["model"])
    target = _load_dir(merged["data"])
    source = None
    if merged.get("source_data"):
        source = _load_dir(merged["source_data"])

    # one pass per (dataset, generator): the target raw and stylized, each
    # read for both curves, and the source once for its features
    outputs = ("moments",) if source is None else ("moments", "features")
    passes = [("raw", P.eval_pass(bundle, target, None, outputs))]
    if bundle.G is not None:
        passes.append(("stylized",
                       P.eval_pass(bundle, target, bundle.G, outputs)))
    tables = [(f"bn_{kind}.csv", ("layer", "d_mean", "d_var"),
               P.bn_rows(bundle, result["moments"]))
              for kind, result in passes]
    if source is not None:
        src = P.eval_pass(bundle, source, None, ("features",))["features"]
        tables += [(f"mmd_{kind}.csv", ("block", "mmd"),
                    P.mmd_rows(src, result["features"]))
                   for kind, result in passes]
    _persist_config(merged, out)
    for name, header, rows in tables:
        write_csv(os.path.join(out, name), header, rows)
    return {"command": "analyze-stats", "out": out,
            "files": [name for name, _, _ in tables]}


def _cmd_ablate(args, merged, train):
    out = merged["out"]
    bundle = _load_model(merged["model"])
    target = _load_dir(merged["data"])
    eval_set = _split_of(target, merged.get("split") or "test")
    results = P.ablation_run(train, bundle, target, eval_set)
    _persist_config(merged, out)
    write_csv(os.path.join(out, "ablation.csv"), ("config", "hter", "auc"),
              [(name, rep.hter, rep.auc) for name, rep in results])
    return {
        "command": "ablate",
        "out": out,
        "rows": [{"config": name, "auc": rep.auc, "hter": rep.hter}
                 for name, rep in results],
    }


def _cmd_grad_check(args, merged, train):
    trials = merged.get("trials")
    if trials is None:
        trials = 20
    results = GC.run_checks(seed=train.seed, trials=trials, fault=args.fault)
    table = GC.format_table(results)
    print(table, file=sys.stderr)
    if merged.get("out"):
        os.makedirs(merged["out"], exist_ok=True)
        with open(os.path.join(merged["out"], "grad_check.txt"), "w") as fh:
            fh.write(table + "\n")
    passed = all(r.passed for r in results)
    if not passed:
        failed = [r.name for r in results if not r.passed]
        raise RuntimeError(f"gradient checks failed: {', '.join(failed)}")
    return {
        "command": "grad-check",
        "checks": len(results),
        "trials": trials,
        "worst": max(r.max_rel_error for r in results),
        "passed": True,
    }


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--config", default=None)
    sub.add_argument("--out", default=None)


def _add_train(sub):
    """A flag for each numeric training field but ``seed``, in field order."""
    for f in fields(TrainConfig):
        if f.type in (int, float) and f.name != "seed":
            sub.add_argument("--" + f.name.replace("_", "-"), type=f.type)


def build_parser() -> _Parser:
    parser = _Parser(prog="gda", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", help="render the synthetic domains")
    _add_common(p)
    p.add_argument("--count-per-class", dest="count_per_class", type=int)

    p = subs.add_parser("train-source", help="stage-1 source training")
    _add_common(p)
    _add_train(p)
    p.add_argument("--data", action="append")

    p = subs.add_parser("adapt", help="stage-2 generator adaptation")
    _add_common(p)
    _add_train(p)
    p.add_argument("--model")
    p.add_argument("--data")

    p = subs.add_parser("eval", help="score a labeled dataset")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--report")
    p.add_argument("--split")
    p.add_argument("--raw", action="store_true",
                   help="ignore any generator in the checkpoint")

    p = subs.add_parser("specmix", help="amplitude-mix two images")
    _add_common(p)
    p.add_argument("--input")
    p.add_argument("--ref")
    p.add_argument("--eta", type=float, default=None)

    p = subs.add_parser("analyze-stats", help="BN and MMD discrepancy curves")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--source-data", dest="source_data")

    p = subs.add_parser("ablate", help="component ablation table")
    _add_common(p)
    _add_train(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--split")

    p = subs.add_parser("grad-check", help="verify every backward rule")
    _add_common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--fault", choices=["sign-flip"], default=None)

    return parser


# each command and the values it cannot run without
_COMMANDS = {
    "gen-data": (_cmd_gen_data, ("out",)),
    "train-source": (_cmd_train_source, ("out", "data")),
    "adapt": (_cmd_adapt, ("out", "model", "data")),
    "eval": (_cmd_eval, ("model", "data")),
    "specmix": (_cmd_specmix, ("out", "input", "ref")),
    "analyze-stats": (_cmd_analyze_stats, ("out", "model", "data")),
    "ablate": (_cmd_ablate, ("out", "model", "data")),
    "grad-check": (_cmd_grad_check, ()),
}


def dispatch(argv) -> dict:
    args = build_parser().parse_args(argv)
    config = load_config(args.config) if args.config else {}
    merged = _merge(args, config)
    train = _validate(args.command, merged)
    return _COMMANDS[args.command][0](args, merged, train)


def main(argv=None) -> int:
    try:
        summary = dispatch(sys.argv[1:] if argv is None else argv)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (RuntimeError, CheckpointError, OSError) as err:
        print(f"failure: {err}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
