"""Command-line front end: every experiment is a pure function of
(flags, config file, input files, seed) to output files.

``dispatch`` merges flags over the config file over the defaults once and
checks every value once, before any command does work, so bad input exits 1
without a run having started. The pipeline returns results and writes no
files; each command writes its ``--out`` run directory (``config.json`` plus
its artifacts) here, once that work has returned.

stdout carries exactly one JSON summary line per invocation; human-readable
diagnostics go to stderr. Exit codes: 0 success, 1 bad input (an
``InputError`` or a missing file), 2 any other failure.
"""

import argparse
import json
import os
import shutil
import sys
from dataclasses import fields

import numpy as np

from . import data as D
from . import gradcheck as GC
from . import pipeline as P
from . import spectrum as S
from .checkpoint import load_checkpoint, save_checkpoint
from .data import InputError
from .pipeline import TrainConfig
from .rng import Rng

_TRAIN = tuple(f.name for f in fields(TrainConfig))
# the JSON type of every config key. The int, float and str keys a command
# reads are its flags.
_TYPES = {**{f.name: f.type for f in fields(TrainConfig)},
          "data": str, "model": str, "out": str, "source_data": str,
          "report": str, "input": str, "ref": str, "split": str,
          "count_per_class": int, "trials": int, "domains": list}
# each key's value when neither the config file nor a flag sets it
_DEFAULTS = {**dict.fromkeys(_TYPES),
             **{f.name: f.default for f in fields(TrainConfig)},
             "count_per_class": 320, "trials": 20, "split": "test"}
_DOMAIN_KEYS = {f.name for f in fields(D.DomainSpec)} | {"unlabeled_train"}
# each input key's type rule; train-source also takes ``data`` as a list of
# strings (one dataset each). TrainConfig and load_config check the rest.
_INPUT_RULES = {key: D.RULES[kind] for key, kind in _TYPES.items()
                if key not in _TRAIN and kind is not list}
_SOURCE_RULES = {**_INPUT_RULES, "data": (lambda v: isinstance(v, str) or (
    isinstance(v, list) and len(v) > 0 and all(isinstance(s, str) for s in v)),
    "a string or a non-empty list of strings")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _need(path: str, what: str, exists=os.path.isfile) -> str:
    """``path`` if ``exists(path)``, by default if it names a file."""
    if not exists(path):
        raise InputError(f"{what} not found: {path}")
    return path


def load_config(path: str) -> dict:
    """Parse and validate a JSON config; unknown keys are named and fatal."""
    config = D.read_json(_need(path, "config file"))
    if not isinstance(config, dict):
        raise InputError(f"{path}: config root must be a JSON object")
    unknown = set(config) - _TYPES.keys()
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    domains = config.get("domains", [])
    if not isinstance(domains, list):
        raise InputError("domains must be a list of objects")
    for i, domain in enumerate(domains):
        if not isinstance(domain, dict):
            raise InputError(f"domains[{i}] must be a JSON object")
        bad = set(domain) - _DOMAIN_KEYS
        if bad:
            raise InputError(
                f"unknown keys in domains[{i}]: {', '.join(sorted(bad))}"
            )
    return config


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _merge(args, config: dict):
    """Layer flag values over file values over the defaults. Returns the
    merged values and the values the file or a flag set."""
    given = dict(config)
    given.update((k, getattr(args, k)) for k in _TYPES
                 if getattr(args, k, None) is not None)
    return {**_DEFAULTS, **given}, given


def _train_config(values: dict) -> TrainConfig:
    try:
        return TrainConfig(**{k: values[k] for k in _TRAIN if k in values})
    except InputError as err:
        raise InputError(f"invalid training configuration: {err}")


def _validate(command: str, given: dict):
    """Check the given values before any work, read by ``command`` or not:
    the type of each given input key (a null is of no key's type), then the
    values ``command`` cannot run without, then the training fields."""
    D.check_fields(given, _SOURCE_RULES if command == "train-source"
                   else _INPUT_RULES)
    for key in _COMMANDS[command][3]:
        if key not in given:
            raise InputError(f"missing required value: {_flag(key)}")
    _train_config(given)


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


def _persist_config(cfg: dict, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    serializable = {k: v for k, v in cfg.items() if v is not None}
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(serializable, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_run(cfg: dict, bundle, checkpoint: str, log_name: str,
               header, log) -> str:
    """Write a finished training run into ``--out``: ``config.json``, the
    bundle's checkpoint and the step log. Returns the checkpoint path."""
    out = cfg["out"]
    _persist_config(cfg, out)
    path = os.path.join(out, checkpoint)
    save_checkpoint(bundle, path)
    write_csv(os.path.join(out, log_name), header, log)
    return path


def _make_dirs(paths):
    """Make every directory in ``paths`` or none: if one cannot be made (a
    name longer than the file system allows, say), remove each directory
    this call made and refuse the run as bad input."""
    made = []
    for path in paths:
        top, parent = None, os.path.abspath(path)
        while not os.path.lexists(parent):  # the outermost one to be made
            top, parent = parent, os.path.dirname(parent)
        if top:
            made.append(top)
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as err:
            for top in made:
                shutil.rmtree(top, ignore_errors=True)
            raise InputError(f"cannot make directory {path}: {err.strerror}")


def _load_dir(path: str) -> D.Dataset:
    return D.load_dataset(_need(path, "dataset directory", os.path.isdir))


def _load_model(path: str):
    return load_checkpoint(_need(path, "checkpoint"))


def _split_of(dataset: D.Dataset, split: str) -> D.Dataset:
    if split == "all":
        return dataset
    subset = dataset.subset(split)
    if len(subset.images) == 0:
        raise InputError(f"dataset has no records in split {split!r}")
    return subset


# ---------------------------------------------------------------------------
# commands: each takes the parsed flags and the values of the keys it reads


def _cmd_gen_data(args, cfg):
    out, count, seed = cfg["out"], cfg["count_per_class"], cfg["seed"]
    if cfg["domains"]:
        specs = []
        for i, entry in enumerate(cfg["domains"]):
            entry = dict(entry)
            entry.setdefault("count_per_class", count)
            entry.setdefault("seed", seed)
            D.check_fields(entry, {"unlabeled_train": D.RULES[bool]},
                           prefix=f"invalid domains[{i}]: ")
            unlabeled = entry.pop("unlabeled_train", False)
            try:
                spec = D.DomainSpec(**entry)
            except (TypeError, InputError) as err:
                raise InputError(f"invalid domains[{i}]: {err}")
            if any(spec.name == other.name for other, _ in specs):
                raise InputError(f"invalid domains[{i}]: domain name "
                                 f"{spec.name!r} is already used")
            specs.append((spec, unlabeled))
    else:
        source, target = D.default_domain_specs(count, seed)
        specs = [(source, False), (target, True)]
    _make_dirs([os.path.join(out, spec.name) for spec, _ in specs])
    summary = []
    for spec, unlabeled in specs:
        manifest = D.generate_domain_dataset(
            spec, os.path.join(out, spec.name), unlabeled_train=unlabeled
        )
        summary.append({"name": spec.name,
                        "records": len(manifest["records"])})
    _persist_config(cfg, out)
    return {"command": "gen-data", "out": out, "domains": summary}


def _cmd_train_source(args, cfg):
    data_dirs = cfg["data"]
    if isinstance(data_dirs, str):
        data_dirs = [data_dirs]
    datasets = [_load_dir(d) for d in data_dirs]
    bundle, log = P.train_source(_train_config(cfg), datasets)
    checkpoint = _write_run(cfg, bundle, "source.gdac",
                            "train_source_log.csv", P.STAGE1_LOG, log)
    return {
        "command": "train-source",
        "checkpoint": checkpoint,
        "steps": len(log),
        "final_loss": log[-1][P.STAGE1_LOG.index("total")],
    }


def _cmd_adapt(args, cfg):
    bundle = _load_model(cfg["model"])
    target = _load_dir(cfg["data"])
    bundle, log = P.adapt_generator(_train_config(cfg), bundle, target)
    checkpoint = _write_run(cfg, bundle, "adapted.gdac", "adapt_log.csv",
                            P.STAGE2_LOG, log)
    return {
        "command": "adapt",
        "checkpoint": checkpoint,
        "steps": len(log),
        "final_stat": log[-1][P.STAGE2_LOG.index("stat")],
        "final_total": log[-1][P.STAGE2_LOG.index("total")],
    }


def _cmd_eval(args, cfg):
    bundle = _load_model(cfg["model"])
    dataset = _split_of(_load_dir(cfg["data"]), cfg["split"])
    generator = None if args.raw else bundle.G
    report = P.evaluate(bundle, dataset, generator=generator)
    # --report first: a missing parent directory exits 1 before --out exists
    if cfg["report"]:
        write_csv(cfg["report"], ("metric", "value"),
                  eval_report_rows(report))
    out = cfg["out"]
    if out:
        _persist_config(cfg, out)
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


def _cmd_specmix(args, cfg):
    out = cfg["out"]
    image = D.ppm_read(_need(cfg["input"], "image"))
    ref = D.ppm_read(_need(cfg["ref"], "image"))
    if image.shape != ref.shape:
        raise InputError(f"image shapes differ: {image.shape} vs {ref.shape}")
    lam = S.sample_lambda(Rng(cfg["seed"]), 1, cfg["eta"])
    mixed = S.specmix(image[None], ref[None], lam)[0]
    D.ppm_write(out, mixed)
    return {"command": "specmix", "out": out, "lambda": float(lam[0])}


def _cmd_analyze_stats(args, cfg):
    out = cfg["out"]
    bundle = _load_model(cfg["model"])
    target = _load_dir(cfg["data"])
    source = None
    if cfg["source_data"]:
        source = _load_dir(cfg["source_data"])

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
    _persist_config(cfg, out)
    for name, header, rows in tables:
        write_csv(os.path.join(out, name), header, rows)
    return {"command": "analyze-stats", "out": out,
            "files": [name for name, _, _ in tables]}


def _cmd_ablate(args, cfg):
    out = cfg["out"]
    bundle = _load_model(cfg["model"])
    target = _load_dir(cfg["data"])
    eval_set = _split_of(target, cfg["split"])
    results = P.ablation_run(_train_config(cfg), bundle, target, eval_set)
    _persist_config(cfg, out)
    write_csv(os.path.join(out, "ablation.csv"), ("config", "hter", "auc"),
              [(name, rep.hter, rep.auc) for name, rep in results])
    return {
        "command": "ablate",
        "out": out,
        "rows": [{"config": name, "auc": rep.auc, "hter": rep.hter}
                 for name, rep in results],
    }


def _cmd_grad_check(args, cfg):
    trials = cfg["trials"]
    results = GC.run_checks(seed=cfg["seed"], trials=trials, fault=args.fault)
    table = GC.format_table(results)
    print(table, file=sys.stderr)
    if cfg["out"]:
        os.makedirs(cfg["out"], exist_ok=True)
        with open(os.path.join(cfg["out"], "grad_check.txt"), "w") as fh:
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

# each command: its function, its help, the keys it reads (in flag order)
# and the keys it cannot run without
_COMMANDS = {
    "gen-data": (_cmd_gen_data, "render the synthetic domains",
                 ("seed", "out", "count_per_class", "domains"), ("out",)),
    "train-source": (_cmd_train_source, "stage-1 source training",
                     _TRAIN + ("out", "data"), ("out", "data")),
    "adapt": (_cmd_adapt, "stage-2 generator adaptation",
              _TRAIN + ("out", "model", "data"), ("out", "model", "data")),
    "eval": (_cmd_eval, "score a labeled dataset",
             ("out", "model", "data", "report", "split"), ("model", "data")),
    "specmix": (_cmd_specmix, "amplitude-mix two images",
                ("seed", "out", "input", "ref", "eta"),
                ("out", "input", "ref")),
    "analyze-stats": (_cmd_analyze_stats, "BN and MMD discrepancy curves",
                      ("out", "model", "data", "source_data"),
                      ("out", "model", "data")),
    "ablate": (_cmd_ablate, "component ablation table",
               _TRAIN + ("out", "model", "data", "split"),
               ("out", "model", "data")),
    "grad-check": (_cmd_grad_check, "verify every backward rule",
                   ("seed", "out", "trials"), ()),
}


def build_parser() -> _Parser:
    """Every command takes --seed, --config and --out, then a flag for each
    other int, float or str key it reads."""
    parser = _Parser(prog="gda", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, reads, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_)
        sub.add_argument("--seed", type=int)
        sub.add_argument("--config")
        sub.add_argument("--out")
        for key in reads:
            kind = _TYPES[key]
            if key not in ("seed", "out") and kind in (int, float, str):
                sub.add_argument(
                    _flag(key), type=None if kind is str else kind,
                    action="append" if (name, key) == ("train-source", "data")
                    else None)
    subs.choices["eval"].add_argument(
        "--raw", action="store_true",
        help="ignore any generator in the checkpoint")
    subs.choices["grad-check"].add_argument("--fault", choices=["sign-flip"])
    return parser


def dispatch(argv) -> dict:
    """Run one command on the values of the keys it reads; name on stderr,
    once it has returned, the keys the file or a flag set that it did not
    read."""
    args = build_parser().parse_args(argv)
    config = load_config(args.config) if args.config else {}
    merged, given = _merge(args, config)
    _validate(args.command, given)
    run, _, reads, _ = _COMMANDS[args.command]
    summary = run(args, {key: merged[key] for key in reads})
    unread = sorted(given.keys() - set(reads))
    if unread:
        print(f"note: {args.command} does not read {', '.join(unread)}",
              file=sys.stderr)
    return summary


def main(argv=None) -> int:
    try:
        summary = dispatch(sys.argv[1:] if argv is None else argv)
    except (InputError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        print(f"failure: {err}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
