import hashlib
import json
import os
import pathlib
import re
import sys

import numpy as np
import pytest

from gdafas import data as D
from gdafas import gradcheck, models
from gdafas import pipeline as P
from gdafas.cli import _TYPES, load_config, main, write_csv

pytestmark = pytest.mark.usefixtures("capsys")


def run(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, f"{argv}: exit {code}\n{captured.err}"
    if expect == 0:
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1  # stdout carries exactly one JSON line
        return json.loads(lines[0]), captured.err
    return None, captured.err


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "batch_size": 8, "stage1_epochs": 3, "stage2_steps": 2,
        "lr": 1e-3, "count_per_class": 10,
    }))
    assert main(["gen-data", "--config", str(cfg), "--out",
                 str(root / "data"), "--seed", "5"]) == 0
    assert main(["train-source", "--config", str(cfg), "--data",
                 str(root / "data" / "source"), "--out",
                 str(root / "src_run"), "--seed", "5"]) == 0
    assert main(["adapt", "--config", str(cfg), "--model",
                 str(root / "src_run" / "source.gdac"), "--data",
                 str(root / "data" / "target"), "--out",
                 str(root / "adapt_run"), "--seed", "5"]) == 0
    return {"root": root, "cfg": str(cfg)}


def tree_digest(root: pathlib.Path) -> str:
    """SHA-256 over every file under root: relative path, then bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_gen_data_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    # the rendered pixels, files and manifests of a small tree, pinned
    # across changes to how the records are rendered
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen-data", "--count-per-class", "9", "--out", "d",
        "--seed", "26")
    assert tree_digest(tmp_path / "d") == (
        "793ed29f9ad09f005e9ff6a269d48750adbb28a590d131c4999521ffc18f548e")


def test_gen_data_summary_and_config_echo(cli_root, capsys, tmp_path):
    out, _ = run(capsys, "gen-data", "--config", cli_root["cfg"],
                 "--out", str(tmp_path / "d"), "--seed", "9")
    assert out["command"] == "gen-data"
    assert {d["name"] for d in out["domains"]} == {"source", "target"}
    assert all(d["records"] == 20 for d in out["domains"])
    # config.json records only the keys gen-data reads: the flags, the
    # file's count_per_class, and none of the file's training keys
    echoed = json.loads((tmp_path / "d" / "config.json").read_text())
    assert echoed == {"seed": 9, "out": str(tmp_path / "d"),
                      "count_per_class": 10}


_TRAIN_KEYS = {"batch_size", "stage1_epochs", "stage2_steps", "lr", "eta",
               "lambda_ent", "lambda_ph", "alpha", "seed", "use_dsc"}
_READS = {
    "gen-data": {"seed", "out", "count_per_class", "domains"},
    "train-source": _TRAIN_KEYS | {"out", "data"},
    "adapt": _TRAIN_KEYS | {"out", "model", "data"},
    "eval": {"out", "model", "data", "report", "split"},
    "analyze-stats": {"out", "model", "data", "source_data"},
    "ablate": _TRAIN_KEYS | {"out", "model", "data", "split"},
}


@pytest.mark.parametrize("command", list(_READS))
def test_config_json_holds_exactly_the_keys_the_command_reads(
        cli_root, capsys, tmp_path, command):
    # one file that sets every key: each command records what it reads and
    # names the rest in one stderr line once its work is done
    root = cli_root["root"]
    images = root / "data" / "source" / "images"
    config = {
        "batch_size": 8, "stage1_epochs": 1, "stage2_steps": 1, "lr": 1e-3,
        "eta": 0.1, "lambda_ent": 0.01, "lambda_ph": 0.01, "alpha": 0.1,
        "seed": 5, "use_dsc": True,
        "data": str(root / "data" / "target"),
        "model": str(root / "src_run" / "source.gdac"),
        "source_data": str(root / "data" / "source"),
        "report": str(tmp_path / "r.csv"), "split": "test",
        "input": str(images / "a.ppm"), "ref": str(images / "b.ppm"),
        "count_per_class": 2, "trials": 2, "domains": [{"name": "s"}],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    flags = {"train-source": ["--data", str(root / "data" / "source")],
             "eval": ["--model", str(root / "adapt_run" / "adapted.gdac")]}
    out = tmp_path / "out"
    _, err = run(capsys, command, "--config", str(cfg), "--out", str(out),
                 *flags.get(command, []))
    echoed = json.loads((out / "config.json").read_text())
    assert set(echoed) == _READS[command]
    unread = ", ".join(sorted(set(config) - _READS[command]))
    assert err.splitlines()[-1] == f"note: {command} does not read {unread}"
    assert err.count("note: ") == 1


def test_gen_data_names_the_keys_it_does_not_read(capsys, tmp_path,
                                                  monkeypatch):
    rendered = D.generate_domain_dataset

    def render(spec, *args, **kwargs):
        print(f"rendered {spec.name}", file=sys.stderr)
        return rendered(spec, *args, **kwargs)

    monkeypatch.setattr(D, "generate_domain_dataset", render)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 3, "model": "x.gdac",
                               "report": "r.csv", "count_per_class": 1}))
    out, err = run(capsys, "gen-data", "--config", str(cfg),
                   "--out", str(tmp_path / "g"))
    assert [d["records"] for d in out["domains"]] == [2, 2]
    assert err.splitlines() == [
        "rendered source", "rendered target",
        "note: gen-data does not read model, report, trials"]
    echoed = json.loads((tmp_path / "g" / "config.json").read_text())
    assert echoed == {"seed": 0, "out": str(tmp_path / "g"),
                      "count_per_class": 1}
    # a refused run names no unread key: stderr is its one error line
    cfg.write_text(json.dumps({"report": "r.csv", "count_per_class": 0}))
    _, err = run(capsys, "gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "h"), expect=1)
    assert err.startswith("error: ") and "note:" not in err


def test_gen_data_is_byte_identical_across_reruns(cli_root, capsys,
                                                  tmp_path):
    for name in ("a", "b"):
        run(capsys, "gen-data", "--config", cli_root["cfg"],
            "--out", str(tmp_path / name), "--seed", "5")
    for sub in ("source", "target"):
        dir_a = tmp_path / "a" / sub
        dir_b = tmp_path / "b" / sub
        names = sorted(os.listdir(dir_a / "images"))
        assert names == sorted(os.listdir(dir_b / "images"))
        assert (dir_a / "manifest.json").read_bytes() == \
            (dir_b / "manifest.json").read_bytes()
        for n in names:
            assert (dir_a / "images" / n).read_bytes() == \
                (dir_b / "images" / n).read_bytes()


def test_train_source_rerun_reproduces_checkpoint(cli_root, capsys,
                                                  tmp_path):
    root = cli_root["root"]
    run(capsys, "train-source", "--config", cli_root["cfg"],
        "--data", str(root / "data" / "source"),
        "--out", str(tmp_path / "again"), "--seed", "5")
    original = (root / "src_run" / "source.gdac").read_bytes()
    repeat = (tmp_path / "again" / "source.gdac").read_bytes()
    assert original == repeat


def test_train_source_with_fewer_records_than_a_batch_exits_one(
        cli_root, capsys, tmp_path):
    # batches drop their remainder, so this batch size would run no step
    out = tmp_path / "out"
    _, err = run(capsys, "train-source", "--config", cli_root["cfg"],
                 "--data", str(cli_root["root"] / "data" / "source"),
                 "--out", str(out), "--batch-size", "64", expect=1)
    assert err.startswith("error: ") and "fewer than batch_size 64" in err
    assert not out.exists()  # a refused run writes nothing, config included


@pytest.mark.parametrize("change,message", [
    (lambda m: m["records"][1].pop("image"),
     "records[1] needs a string 'image'"),
    (lambda m: m.update(records="nope"), "records must be a list"),
    (lambda m: m["records"][2].update(label=7),
     "records[2] 'label' must be 0 or 1"),
    (lambda m: m["records"][0].update(depth=3),
     "records[0] 'depth' must be a string"),
], ids=["no-image", "records-not-a-list", "label-out-of-range",
        "depth-not-a-string"])
def test_malformed_manifest_exits_one(cli_root, capsys, tmp_path, change,
                                      message):
    source = cli_root["root"] / "data" / "source"
    manifest = json.loads((source / "manifest.json").read_text())
    change(manifest)
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps(manifest))
    _, err = run(capsys, "train-source", "--config", cli_root["cfg"],
                 "--data", str(data), "--out", str(tmp_path / "out"),
                 expect=1)
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out" / "source.gdac").exists()


def test_adapt_outputs(cli_root):
    run_dir = cli_root["root"] / "adapt_run"
    assert (run_dir / "adapted.gdac").exists()
    log = (run_dir / "adapt_log.csv").read_text().splitlines()
    assert log[0] == "step,stat,per,ent1,ent2,ph,stat_ema,total"
    assert len(log) == 3  # header + 2 steps
    assert (run_dir / "config.json").exists()


def test_eval_writes_report(cli_root, capsys, tmp_path):
    report = tmp_path / "r.csv"
    out, _ = run(capsys, "eval", "--model",
                 str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--report", str(report))
    assert out["command"] == "eval"
    assert 0.0 <= out["auc"] <= 1.0
    assert out["stylized"] is True
    lines = report.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].startswith("auc,")


def test_eval_report_in_a_missing_directory_leaves_no_out(cli_root, capsys,
                                                         tmp_path):
    out = tmp_path / "out"
    _, err = run(capsys, "eval", "--model",
                 str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--out", str(out),
                 "--report", str(tmp_path / "nowhere" / "r.csv"), expect=1)
    assert err.startswith("error: ")
    assert not out.exists()


def test_eval_raw_ignores_generator(cli_root, capsys):
    out, _ = run(capsys, "eval", "--model",
                 str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--raw")
    assert out["stylized"] is False


def test_eval_unlabeled_split_fails_validation(cli_root, capsys):
    _, err = run(capsys, "eval", "--model",
                 str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--split", "train", expect=1)
    assert "label" in err


def test_specmix_deterministic(cli_root, capsys, tmp_path):
    images = cli_root["root"] / "data" / "source" / "images"
    names = sorted(os.listdir(images))
    argv = ("specmix", "--input", str(images / names[0]),
            "--ref", str(images / names[1]), "--eta", "0.1",
            "--seed", "3", "--out", str(tmp_path / "c.ppm"))
    out1, _ = run(capsys, *argv)
    blob1 = (tmp_path / "c.ppm").read_bytes()
    out2, _ = run(capsys, *argv)
    assert blob1 == (tmp_path / "c.ppm").read_bytes()
    assert out1 == out2
    assert 0.0 <= out1["lambda"] < 0.1


@pytest.mark.parametrize("eta", ["-0.5", "3.0", "nan", "inf"])
def test_specmix_rejects_bad_eta(cli_root, capsys, tmp_path, eta):
    images = cli_root["root"] / "data" / "source" / "images"
    names = sorted(os.listdir(images))
    _, err = run(capsys, "specmix", "--input", str(images / names[0]),
                 "--ref", str(images / names[1]), f"--eta={eta}",
                 "--out", str(tmp_path / "c.ppm"), expect=1)
    assert "eta" in err
    assert not (tmp_path / "c.ppm").exists()


def test_analyze_stats_runs_one_pass_per_dataset_and_generator(
        cli_root, capsys, tmp_path, monkeypatch):
    calls = {"G": 0, "F": 0, "H": 0, "R": 0}
    for net, cls in (("G", models.Generator),
                     ("F", models.FeatureExtractor),
                     ("H", models.ClassifierHead),
                     ("R", models.DepthEstimator)):
        def counted(self, *args, _net=net, _real=cls.forward):
            calls[_net] += 1
            return _real(self, *args)
        monkeypatch.setattr(cls, "forward", counted)
    data = cli_root["root"] / "data"
    run(capsys, "analyze-stats", "--model",
        str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
        "--data", str(data / "target"), "--source-data", str(data / "source"),
        "--out", str(tmp_path))
    n = -(-len(D.load_dataset(str(data / "target")).images) // 64)
    m = -(-len(D.load_dataset(str(data / "source")).images) // 64)
    # the target raw and stylized, the source once; the BN analysis reads R
    assert calls == {"G": n, "F": 2 * n + m, "H": 0, "R": 2 * n}


def test_analyze_stats_files(cli_root, capsys, tmp_path):
    out, _ = run(capsys, "analyze-stats", "--model",
                 str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--source-data", str(cli_root["root"] / "data" / "source"),
                 "--out", str(tmp_path))
    assert set(out["files"]) == {"bn_raw.csv", "bn_stylized.csv",
                                 "mmd_raw.csv", "mmd_stylized.csv"}
    raw = (tmp_path / "bn_raw.csv").read_text().splitlines()
    assert raw[0] == "layer,d_mean,d_var"
    assert len(raw) == 6  # five layers
    mmd = (tmp_path / "mmd_raw.csv").read_text().splitlines()
    assert mmd[0] == "block,mmd"
    assert len(mmd) == 4


def test_analyze_stats_on_small_images_writes_nothing(cli_root, capsys,
                                                      tmp_path):
    # 16x16 images fail F's input check in the first eval pass
    data = tmp_path / "small"
    (data / "images").mkdir(parents=True)
    records = []
    for i in range(2):
        D.ppm_write(str(data / "images" / f"{i}.ppm"),
                    np.full((3, 16, 16), 0.5))
        records.append({"image": f"images/{i}.ppm", "split": "test",
                        "domain": "small", "label": i})
    (data / "manifest.json").write_text(json.dumps(
        {"schema_version": D.MANIFEST_SCHEMA_VERSION, "records": records}))
    out = tmp_path / "out"
    _, err = run(capsys, "analyze-stats", "--model",
                 str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
                 "--data", str(data), "--out", str(out), expect=1)
    assert err.startswith("error: ") and "32" in err
    assert not out.exists()


def test_csv_float_formatting(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv(path, ("a", "b", "c"), [(0.123456789123, 7, "txt")])
    assert open(path).read() == "a,b,c\n0.123456789,7,txt\n"


def test_train_flags_override_config_file(cli_root, capsys, tmp_path):
    out, _ = run(capsys, "adapt", "--config", cli_root["cfg"],
                 "--model", str(cli_root["root"] / "src_run" / "source.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--out", str(tmp_path), "--seed", "5",
                 "--stage2-steps", "1", "--lr", "0.002")
    assert out["steps"] == 1  # flag beat the config file's 2
    echoed = json.loads((tmp_path / "config.json").read_text())
    assert echoed["stage2_steps"] == 1
    assert echoed["lr"] == 0.002
    log = (tmp_path / "adapt_log.csv").read_text().splitlines()
    assert len(log) == 2


def test_ablate_table(cli_root, capsys, tmp_path):
    out, _ = run(capsys, "ablate", "--config", cli_root["cfg"],
                 "--model", str(cli_root["root"] / "src_run" / "source.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--out", str(tmp_path), "--seed", "5")
    assert [r["config"] for r in out["rows"]] == \
        ["baseline", "nsc", "nsc_dsc", "full"]
    table = (tmp_path / "ablation.csv").read_text().splitlines()
    assert table[0] == "config,hter,auc"
    assert len(table) == 5


def test_grad_check_passes_and_reproduces(capsys, tmp_path):
    argv = ("grad-check", "--seed", "1", "--trials", "2",
            "--out", str(tmp_path))
    out1, err1 = run(capsys, *argv)
    assert out1["passed"] is True and out1["checks"] == 33
    table = (tmp_path / "grad_check.txt").read_text()
    assert "relu" in table and "loss_total" in table
    assert "stage1_objective" in table and "stage2_objective" in table
    out2, err2 = run(capsys, *argv)
    assert err1 == err2  # same seed, same error table
    assert out1 == out2


def test_grad_check_fault_injection_fails(capsys):
    _, err = run(capsys, "grad-check", "--seed", "1", "--trials", "2",
                 "--fault", "sign-flip", expect=2)
    # the swapped relu fails its own check and both composed objectives,
    # and no other check
    failed = [line.split()[0] for line in err.splitlines()
              if line.endswith("FAIL")]
    assert failed == ["relu", "stage1_objective", "stage2_objective"]
    assert err.splitlines()[-1] == ("failure: gradient checks failed: relu, "
                                    "stage1_objective, stage2_objective")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_grad_check_rejects_trials_below_one(capsys, tmp_path, trials):
    # zero trials would report every check "ok" without running one
    _, err = run(capsys, "grad-check", "--trials", trials,
                 "--out", str(tmp_path), expect=1)
    assert "error: trials must be at least 1" in err
    assert not (tmp_path / "grad_check.txt").exists()
    with pytest.raises(ValueError, match="trials"):
        gradcheck.run_checks(trials=int(trials))


def test_unknown_command_and_flag_exit_one(capsys):
    run(capsys, "no-such-command", expect=1)
    run(capsys, "eval", "--bogus", expect=1)


def test_missing_inputs_exit_one(cli_root, capsys, tmp_path):
    _, err = run(capsys, "eval", "--model", "missing.gdac",
                 "--data", str(cli_root["root"] / "data" / "target"),
                 expect=1)
    assert "missing.gdac" in err
    # a directory is no checkpoint either: bad input, not a failure
    _, err = run(capsys, "eval", "--model", str(tmp_path),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 expect=1)
    assert err.startswith("error: checkpoint not found: " + str(tmp_path))
    _, err = run(capsys, "train-source", "--data",
                 str(cli_root["root"] / "data" / "source"), expect=1)
    assert "--out" in err
    _, err = run(capsys, "adapt", "--model",
                 str(cli_root["root"] / "src_run" / "source.gdac"),
                 "--data", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "o"), expect=1)
    assert "not found" in err
    # nor is a directory a config file or an image
    _, err = run(capsys, "grad-check", "--config", str(tmp_path), expect=1)
    assert err.startswith("error: config file not found: " + str(tmp_path))
    images = cli_root["root"] / "data" / "source" / "images"
    image = str(images / sorted(os.listdir(images))[0])
    for inputs in ((str(tmp_path), image), (image, str(tmp_path))):
        _, err = run(capsys, "specmix", "--input", inputs[0],
                     "--ref", inputs[1], "--out", str(tmp_path / "c.ppm"),
                     expect=1)
        assert err.startswith("error: image not found: " + str(tmp_path))
    assert not (tmp_path / "c.ppm").exists()


@pytest.mark.parametrize("where", ["manifest", "image", "depth",
                                   "through a file"])
def test_a_dataset_path_that_is_no_file_exits_one(capsys, tmp_path, where):
    data = tmp_path / "data"
    manifest = D.generate_domain_dataset(
        D.DomainSpec(name="a", count_per_class=1, seed=3), str(data))
    record = manifest["records"][0]
    if where == "through a file":
        record["image"] += "/x.ppm"
        (data / "manifest.json").write_text(json.dumps(manifest))
        bad = data / record["image"]
    else:
        bad = data / ("manifest.json" if where == "manifest"
                      else record[where])
        bad.unlink()
        bad.mkdir()
    out = tmp_path / "out"
    _, err = run(capsys, "train-source", "--data", str(data),
                 "--out", str(out), expect=1)
    assert err.startswith(f"error: {bad}: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", [ValueError, OverflowError])
def test_runtime_error_exits_two_without_traceback(cli_root, capsys,
                                                   monkeypatch, kind):
    # only an InputError is bad input; any other error is a failure
    def broken(*args, **kwargs):
        raise kind("deep in the pipeline")

    monkeypatch.setattr(P, "evaluate", broken)
    _, err = run(capsys, "eval", "--model",
                 str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 expect=2)
    assert err == "failure: deep in the pipeline\n"


def test_eval_on_a_one_class_split_exits_one(cli_root, capsys, tmp_path):
    # 4 records per class: the test split holds record 4 alone, a live one
    run(capsys, "gen-data", "--count-per-class", "4",
        "--out", str(tmp_path / "d"))
    _, err = run(capsys, "eval", "--model",
                 str(cli_root["root"] / "adapt_run" / "adapted.gdac"),
                 "--data", str(tmp_path / "d" / "target"), expect=1)
    assert err.startswith("error: evaluation needs at least one live and "
                          "one spoof record")


def test_config_that_is_not_utf8_exits_one(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": "\xff"}')
    _, err = run(capsys, "gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d"), expect=1)
    assert err.startswith(f"error: {cfg}: not UTF-8 text")
    assert not (tmp_path / "d").exists()


def test_input_checks_raise_input_error():
    # a raise site's class decides its exit code, so the modules that only
    # check input raise no plain ValueError, and no second class remains
    package = pathlib.Path(D.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "CliError" in path.read_text()] == []
    for name in ("cli.py", "data.py"):
        assert "raise ValueError(" not in (package / name).read_text()
    # each setting's type rule has one home: data.RULES and check_fields
    assert [path.name for path in sorted(package.glob("*.py"))
            if "finite_number(" in path.read_text()
            or "numbers.Integral" in path.read_text()] == ["data.py"]


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--eta", "nan"), ("--eta", "1.5"),
    ("--lambda-ent", "inf"), ("--lambda-ph", "nan")])
def test_adapt_non_finite_hyperparameter_exits_one(cli_root, capsys, tmp_path,
                                                   flag, value):
    _, err = run(capsys, "adapt", "--config", cli_root["cfg"],
                 "--model", str(cli_root["root"] / "src_run" / "source.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--out", str(tmp_path), flag, value, expect=1)
    assert "invalid training configuration" in err


_TRAINING = "invalid training configuration: "
# (command, config, the full refusal line after "error: ") for a JSON value
# of the wrong type; a case's id is its command and its index
_WRONG_TYPES = [
    ("train-source", {"stage1_epochs": 1.5},
     _TRAINING + "stage1_epochs must be an integer, got 1.5"),
    ("train-source", {"stage1_epochs": True},
     _TRAINING + "stage1_epochs must be an integer, got True"),
    ("train-source", {"seed": 1.5},
     _TRAINING + "seed must be an integer, got 1.5"),
    ("train-source", {"seed": "7"},
     _TRAINING + "seed must be an integer, got '7'"),
    ("train-source", {"lr": True},
     _TRAINING + "lr must be a finite number, got True"),
    ("adapt", {"batch_size": 4.0},
     _TRAINING + "batch_size must be an integer, got 4.0"),
    ("adapt", {"use_dsc": "no", "stage2_steps": 1},
     _TRAINING + "use_dsc must be true or false, got 'no'"),
    ("gen-data", {"seed": 2.5},
     _TRAINING + "seed must be an integer, got 2.5"),
    ("grad-check", {"trials": 2.5}, "trials must be an integer, got 2.5"),
    ("train-source", {"data": 5},
     "data must be a string or a non-empty list of strings, got 5"),
    ("train-source", {"data": []},
     "data must be a string or a non-empty list of strings, got []"),
    ("train-source", {"out": 3}, "out must be a string, got 3"),
    ("adapt", {"data": ["target"]},
     "data must be a string, got ['target']"),
    ("eval", {"model": ["adapted.gdac"]},
     "model must be a string, got ['adapted.gdac']"),
    ("eval", {"split": 7}, "split must be a string, got 7"),
    ("analyze-stats", {"source_data": 1},
     "source_data must be a string, got 1"),
    ("analyze-stats", {"lr": "x", "stage2_steps": -3},
     _TRAINING + "lr must be a finite number, got 'x'"),
    ("specmix", {"ref": ["b.ppm"]}, "ref must be a string, got ['b.ppm']"),
    # one full line per rule: integer, finite number, true or false, string
    # and train-source's data list; a key's type before the training fields
    ("gen-data", {"count_per_class": "9"},
     "count_per_class must be an integer, got '9'"),
    ("grad-check", {"trials": False}, "trials must be an integer, got False"),
    ("train-source", {"batch_size": None},
     _TRAINING + "batch_size must be an integer, got None"),
    ("adapt", {"eta": "0.1"},
     _TRAINING + "eta must be a finite number, got '0.1'"),
    ("adapt", {"lambda_ph": float("nan")},
     _TRAINING + "lambda_ph must be a finite number, got nan"),
    ("adapt", {"alpha": None},
     _TRAINING + "alpha must be a finite number, got None"),
    ("adapt", {"use_dsc": 1},
     _TRAINING + "use_dsc must be true or false, got 1"),
    ("train-source", {"use_dsc": None},
     _TRAINING + "use_dsc must be true or false, got None"),
    ("eval", {"report": False}, "report must be a string, got False"),
    ("specmix", {"input": {"path": "a.ppm"}},
     "input must be a string, got {'path': 'a.ppm'}"),
    ("train-source", {"data": ["a", 3]},
     "data must be a string or a non-empty list of strings, got ['a', 3]"),
    ("train-source", {"out": ["o"], "data": "a"},
     "out must be a string, got ['o']"),
    ("adapt", {"model": 3, "lr": "x"}, "model must be a string, got 3"),
]


@pytest.mark.parametrize(
    "command, config, line", _WRONG_TYPES,
    ids=[f"{case[0]}-config{i}" for i, case in enumerate(_WRONG_TYPES)])
def test_config_value_of_the_wrong_type_exits_one(cli_root, capsys, tmp_path,
                                                   monkeypatch, command,
                                                   config, line):
    # a JSON value of the wrong type is refused before any work, not
    # truncated or coerced
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    root = cli_root["root"]
    images = root / "data" / "source" / "images"
    image = images / sorted(os.listdir(images))[0]
    inputs = {
        "train-source": {"data": root / "data" / "source"},
        "adapt": {"data": root / "data" / "target",
                  "model": root / "src_run" / "source.gdac"},
        "eval": {"data": root / "data" / "target",
                 "model": root / "adapt_run" / "adapted.gdac"},
        "analyze-stats": {"data": root / "data" / "target",
                          "model": root / "adapt_run" / "adapted.gdac",
                          "source_data": root / "data" / "source"},
        "specmix": {"input": image, "ref": image},
    }.get(command, {})
    inputs["out"] = tmp_path / "out"
    flags = [arg for key, path in inputs.items() if key not in config
             for arg in (f"--{key.replace('_', '-')}", str(path))]
    monkeypatch.chdir(tmp_path)  # a run with a relative --out lands here
    _, err = run(capsys, command, "--config", str(cfg), *flags, expect=1)
    key, value = next(iter(config.items()))
    assert err.startswith("error: ")
    assert f"{key} must be" in err and f"got {value!r}" in err
    assert err == f"error: {line}\n"
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("*.gdac"))  # no run wrote a checkpoint


@pytest.mark.parametrize("key", list(_TYPES))
def test_config_null_exits_one_and_names_the_key(capsys, tmp_path,
                                                 monkeypatch, key):
    # a null has no key's JSON type: it is refused, not taken as unset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    monkeypatch.chdir(tmp_path)  # a run with a relative --out lands here
    out = [] if key == "out" else ["--out", "run"]
    _, err = run(capsys, "gen-data", "--config", str(cfg), *out, expect=1)
    assert err.startswith("error: ") and f"{key} must be" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


_TRAIN_FLAGS = [
    "--batch-size BATCH_SIZE", "--stage1-epochs STAGE1_EPOCHS",
    "--stage2-steps STAGE2_STEPS", "--lr LR", "--eta ETA",
    "--lambda-ent LAMBDA_ENT", "--lambda-ph LAMBDA_PH", "--alpha ALPHA"]


@pytest.mark.parametrize("command, extra", [
    ("train-source", _TRAIN_FLAGS + ["--data DATA"]),
    ("adapt", _TRAIN_FLAGS + ["--model MODEL", "--data DATA"]),
    ("ablate", _TRAIN_FLAGS + ["--model MODEL", "--data DATA",
                               "--split SPLIT"]),
    ("gen-data", ["--count-per-class COUNT_PER_CLASS"]),
    ("eval", ["--model MODEL", "--data DATA", "--report REPORT",
              "--split SPLIT", "--raw"]),
    ("specmix", ["--input INPUT", "--ref REF", "--eta ETA"]),
    ("analyze-stats", ["--model MODEL", "--data DATA",
                       "--source-data SOURCE_DATA"]),
    ("grad-check", ["--trials TRIALS", "--fault {sign-flip}"]),
])
def test_training_flags_keep_their_names_and_order(capsys, command, extra):
    # every command's flags, each with its metavar (so its dest), in order;
    # a renamed or reordered TrainConfig field or config key must not rename
    # or reorder a flag
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[(-[^\]]*)\]", usage) == [
        "-h", "--seed SEED", "--config CONFIG", "--out OUT"] + extra


def test_training_flags_keep_their_types_and_actions(capsys, tmp_path):
    # train-source appends every --data; the integer and float flags convert
    for argv, message in [
            (["train-source", "--batch-size", "1.5"], "invalid int value"),
            (["adapt", "--lr", "x"], "invalid float value"),
            (["gen-data", "--count-per-class", "x"], "invalid int value"),
            (["grad-check", "--trials", "x"], "invalid int value"),
            (["specmix", "--eta", "x"], "invalid float value"),
            (["grad-check", "--fault", "x"], "invalid choice")]:
        _, err = run(capsys, *argv, expect=1)
        assert message in err
    _, err = run(capsys, "train-source", "--data", str(tmp_path / "a"),
                 "--data", str(tmp_path / "b"), "--out", str(tmp_path / "o"),
                 expect=1)
    assert "dataset directory not found: " + str(tmp_path / "a") in err


def test_adapt_small_batch_exits_one(cli_root, capsys, tmp_path):
    out = tmp_path / "out"
    _, err = run(capsys, "adapt", "--config", cli_root["cfg"],
                 "--model", str(cli_root["root"] / "src_run" / "source.gdac"),
                 "--data", str(cli_root["root"] / "data" / "target"),
                 "--out", str(out), "--batch-size", "3", expect=1)
    assert "batch_size" in err
    assert not out.exists()


def test_malformed_config_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    _, err = run(capsys, "gen-data", "--config", str(bad),
                 "--out", str(tmp_path / "x"), expect=1)
    assert "line 2" in err and "column 3" in err


def test_unknown_config_keys_are_named(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 1, "epochs": 2}))
    _, err = run(capsys, "gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "x"), expect=1)
    assert "epochs" in err and "learning_rate" in err


def test_load_config_validates_domains(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domains": [{"name": "a", "gamma": 2}]}))
    with pytest.raises(Exception, match="domains\\[0\\]"):
        load_config(str(cfg))
    cfg.write_text(json.dumps({"domains": [
        {"name": "a", "gain": [1, 1, 1], "blur": 1}
    ]}))
    assert load_config(str(cfg))["domains"][0]["blur"] == 1


def test_custom_domains_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "count_per_class": 4,
        "domains": [
            {"name": "lab", "gain": [1.0, 1.0, 1.0]},
            {"name": "field", "gain": [0.7, 0.9, 1.1],
             "unlabeled_train": True},
        ],
    }))
    out, _ = run(capsys, "gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d"), "--seed", "2")
    assert [d["name"] for d in out["domains"]] == ["lab", "field"]
    manifest = json.loads(
        (tmp_path / "d" / "field" / "manifest.json").read_text()
    )
    train = [r for r in manifest["records"] if r["split"] == "train"]
    assert all("label" not in r for r in train)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_data_rejects_count_below_one(capsys, tmp_path, count):
    _, err = run(capsys, "gen-data", "--count-per-class", count,
                 "--out", str(tmp_path / "d"), expect=1)
    assert "error: domain count_per_class must be an integer >= 1" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("domains, message", [
    ([{"name": "s", "count_per_class": -2}],
     "domains[0]: domain count_per_class must be an integer >= 1"),
    ([{"name": "s", "gain": 5}], "domains[0]: domain gain must be 3 finite"),
    ([{"gain": [1, 1, 1]}], "domains[0]: "),
    ([[5]], "domains[0] must be a JSON object"),
    ([{"name": "a"}, {"name": "a"}],
     "domains[1]: domain name 'a' is already used"),
    ([{"name": "../escaped"}],
     "domains[0]: domain name must be a single path component"),
    ([{"name": "a", "seed": 1.5}],
     "domains[0]: domain seed must be an integer, got 1.5"),
    ([{"name": "a", "unlabeled_train": "false"}],
     "domains[0]: unlabeled_train must be true or false, got 'false'"),
    # the full line of each domain rule, in field order, then of two
    # failures in one entry and of a failure in a later entry
    ([{"name": ".."}], "error: invalid domains[0]: domain name must be a "
     "single path component other than . and .., got '..'\n"),
    ([{"name": "a", "gain": [1, 1]}], "error: invalid domains[0]: domain "
     "gain must be 3 finite numbers, got (1, 1)\n"),
    ([{"name": "a", "brightness": "0.1"}], "error: invalid domains[0]: "
     "domain brightness must be finite, got '0.1'\n"),
    ([{"name": "a", "blur": -1}], "error: invalid domains[0]: domain blur "
     "must be an integer >= 0, got -1\n"),
    ([{"name": "a", "noise": -0.5}], "error: invalid domains[0]: domain "
     "noise must be finite and >= 0, got -0.5\n"),
    ([{"name": "a", "count_per_class": True}], "error: invalid domains[0]: "
     "domain count_per_class must be an integer >= 1, got True\n"),
    ([{"name": "a", "seed": None}], "error: invalid domains[0]: domain seed "
     "must be an integer, got None\n"),
    ([{"name": "a", "unlabeled_train": 1}], "error: invalid domains[0]: "
     "unlabeled_train must be true or false, got 1\n"),
    ([{"name": "a", "blur": 0.5, "gain": None}], "error: invalid domains[0]: "
     "domain gain must be 3 finite numbers, got None\n"),
    ([{"name": "a", "blur": -1, "unlabeled_train": None}],
     "error: invalid domains[0]: unlabeled_train must be true or false, "
     "got None\n"),
    ([{"name": "a"}, {"name": "b", "noise": None}], "error: invalid "
     "domains[1]: domain noise must be finite and >= 0, got None\n"),
], ids=["negative_count", "scalar_gain", "no_name", "not_an_object",
        "repeated_name", "path_name", "seed_float", "unlabeled_string",
        "name_rule", "gain_rule", "brightness_rule", "blur_rule",
        "noise_rule", "count_rule", "seed_rule", "unlabeled_rule",
        "gain_before_blur", "unlabeled_first", "second_entry"])
def test_gen_data_rejects_bad_domain_entry(capsys, tmp_path, domains,
                                           message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count_per_class": 2, "domains": domains}))
    _, err = run(capsys, "gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "d"), expect=1)
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
