import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tricenter
from tricenter import cli, workflows
from tricenter.autodiff import Tensor
from tricenter.centers import CenterTable, embed_all
from tricenter.datasets import (Dataset, SyntheticSpec, gen_gaussian_imbalanced, load_csv, save_csv,
                                preset_spec, simplex_means)
from tricenter.distance import lp_cdist
from tricenter.nn import Checkpoint, FeatureExtractor, load_checkpoint, save_checkpoint


def run_python(*argv):
    env = dict(os.environ)
    src = str(Path(tricenter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def run_cli(*argv):
    return run_python("-m", "tricenter.cli", *argv)


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    """Only ``crossval --jobs`` above one runs a pool; every other command
    would hold its modules in memory for nothing."""
    done = run_python("-c", "import sys, tricenter.cli; "
                      "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def untrained_eval_inputs(tmp_path, labels):
    """A 3-class checkpoint and a 3-feature CSV of the given labels."""
    data = tmp_path / "data.csv"
    features = np.random.default_rng(0).normal(size=(len(labels), 3))
    # a class count past the row count, for rare-class files
    save_csv(Dataset(features=features, labels=np.array(labels), forced_n_classes=max(labels) + 1),
             data)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, Checkpoint(extractor=FeatureExtractor([3, 4, 2]), epoch=0,
                                     config_fingerprint="x",
                                     centers=CenterTable(Tensor(np.zeros((3, 2))), mode="computed")))
    return ckpt, data


def test_eval_on_a_truncated_checkpoint_reports_an_error_without_traceback(tmp_path):
    ckpt, data = untrained_eval_inputs(tmp_path, [0, 0, 1, 1, 2, 2])
    ckpt.write_bytes(ckpt.read_bytes()[:6])
    result = run_cli("eval", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "out")
    assert result.returncode != 0
    assert result.stderr.startswith("error: ")
    assert "truncated checkpoint" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("run", ["loss_family = triplet", "loss_family = pairwise",
                                 "loss_family = quadruplet", "method = baseline:oce"])
def test_train_reruns_with_the_same_seed_are_byte_identical(tmp_path, run):
    config = tmp_path / "config.ini"
    config.write_text(f"[run]\n{run}\nseed = 3\n"
                      "[data]\npreset = skin7-like\nholdout_fraction = 0.2\n"
                      "[model]\nembedding_dim = 16\nhidden = 24\n"
                      "[stage1]\nepochs = 2\nm_per_class = 4\n"
                      "[stage2]\nepochs = 2\ncenter_mode = trainable\n"
                      "[baseline]\nepochs = 4\n")
    outputs = []
    for rerun in ("a", "b"):
        result = run_cli("train", "--config", config, "--out", tmp_path / rerun)
        assert result.returncode == 0, result.stderr
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / rerun).iterdir())
                 if p.name != "train.log"}
        outputs.append((result.stdout, files))
    assert "final.ckpt" in outputs[0][1] and "metrics.txt" in outputs[0][1]
    assert outputs[0] == outputs[1]


def test_a_rerun_from_the_config_echo_of_a_data_flag_run_repeats_it(tmp_path):
    # The CSV is drawn at another seed than the run's, so it differs from the preset's data.
    assert cli.main(["gen-data", "--preset", "skin7-like", "--seed", "1", "--out", str(tmp_path)]) == 0
    config = tmp_path / "config.ini"
    config.write_text("[run]\nseed = 3\n[data]\npreset = skin7-like\n"
                      "[model]\nembedding_dim = 8\nhidden = 12\n"
                      "[stage1]\nepochs = 1\nm_per_class = 4\n[stage2]\nepochs = 1\n")
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert cli.main(["train", "--config", str(config), "--data", str(tmp_path / "dataset.csv"),
                     "--out", str(first)]) == 0
    assert cli.main(["train", "--config", str(first / "config.echo.ini"), "--out", str(rerun)]) == 0
    for name in ("config.echo.ini", "metrics.txt", "per_class.csv", "final.ckpt"):
        assert (first / name).read_bytes() == (rerun / name).read_bytes(), name


def test_the_config_echo_of_a_relative_data_path_reruns_from_another_directory(
        tmp_path, monkeypatch):
    work = tmp_path / "work"
    assert cli.main(["gen-data", "--preset", "skin7-like", "--seed", "1",
                     "--out", str(work / "seed1")]) == 0
    (work / "config.ini").write_text("[run]\nseed = 3\n[data]\npreset = skin7-like\n"
                                     "[model]\nembedding_dim = 8\nhidden = 12\n"
                                     "[stage1]\nepochs = 1\nm_per_class = 4\n[stage2]\nepochs = 1\n")
    monkeypatch.chdir(work)
    assert cli.main(["train", "--config", "config.ini", "--data", "seed1/dataset.csv",
                     "--out", "rel"]) == 0
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--config", "work/rel/config.echo.ini", "--out", "rerun"]) == 0
    for name in ("config.echo.ini", "metrics.txt", "final.ckpt"):
        assert (work / "rel" / name).read_bytes() == (tmp_path / "rerun" / name).read_bytes(), name


def test_eval_predicts_by_the_nearest_euclidean_center(tmp_path, monkeypatch):
    assert cli.main(["gen-data", "--preset", "skin7-like", "--seed", "3", "--out", str(tmp_path)]) == 0
    data = tmp_path / "dataset.csv"
    config = tmp_path / "config.ini"
    config.write_text("[run]\nseed = 3\n[data]\npreset = skin7-like\n"
                      "[model]\nembedding_dim = 16\nhidden = 24\n"
                      "[stage1]\nepochs = 2\nm_per_class = 4\n[stage2]\nepochs = 2\n")
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--data", str(data), "--out", str(run)]) == 0
    predicted = []
    confusion = workflows.confusion

    def capture(true_labels, predicted_labels, *args):
        predicted.append(np.asarray(predicted_labels))
        return confusion(true_labels, predicted_labels, *args)

    monkeypatch.setattr(workflows, "confusion", capture)
    assert cli.main(["eval", "--checkpoint", str(run / "final.ckpt"), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 0
    ckpt = load_checkpoint(run / "final.ckpt")
    emb = embed_all(ckpt.extractor, load_csv(data).features)
    nearest = lp_cdist(emb, ckpt.centers.matrix).argmin(axis=1)
    l1_nearest = np.abs(emb[:, None, :] - ckpt.centers.matrix).sum(axis=2).argmin(axis=1)
    assert (nearest != l1_nearest).any()  # so eval under L1 would be caught
    assert len(predicted) == 1
    np.testing.assert_array_equal(predicted[0], nearest)


def test_eval_on_a_csv_without_the_highest_class_scores_every_model_class(tmp_path):
    assert cli.main(["gen-data", "--preset", "skin7-like", "--seed", "2", "--out", str(tmp_path)]) == 0
    config = tmp_path / "config.ini"
    config.write_text("[run]\nseed = 2\n[data]\npreset = skin7-like\n"
                      "[model]\nembedding_dim = 8\nhidden = 12\n"
                      "[stage1]\nepochs = 1\nm_per_class = 4\n[stage2]\nepochs = 1\n")
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    full = load_csv(tmp_path / "dataset.csv")
    keep = full.labels < full.n_classes - 1
    save_csv(Dataset(full.features[keep], full.labels[keep]), tmp_path / "lacking.csv")
    result = run_cli("eval", "--checkpoint", tmp_path / "run" / "final.ckpt",
                     "--data", tmp_path / "lacking.csv", "--out", tmp_path / "eval")
    assert result.returncode == 0, result.stderr
    classes = [row.split(",")[0] for row in
               (tmp_path / "eval" / "per_class.csv").read_text().splitlines()[1:-1]]
    assert classes == [str(c) for c in range(full.n_classes)]  # every class of the model
    assert (tmp_path / "eval" / "metrics.txt").read_text().startswith("# evaluation")


def test_eval_on_a_csv_with_a_label_past_the_model_classes_is_an_error(tmp_path):
    ckpt, data = untrained_eval_inputs(tmp_path, [0, 0, 1, 1, 2, 3])
    result = run_cli("eval", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "out")
    assert result.returncode == 1
    assert result.stderr == f"error: {data}: label 3 is out of range for 3 classes\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("labels", [[2, 2], [1]], ids=["two_rows_of_class_2", "one_row_of_class_1"])
def test_eval_on_a_rare_class_only_csv_bounds_labels_by_the_model_classes(tmp_path, labels):
    """Each label here reaches the row count, which would refuse the file as training data."""
    ckpt, data = untrained_eval_inputs(tmp_path, labels)
    result = run_cli("eval", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "out")
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "metrics.txt").read_text().startswith("# evaluation")
    classes = [row.split(",")[0] for row in
               (tmp_path / "out" / "per_class.csv").read_text().splitlines()[1:-1]]
    assert classes == ["0", "1", "2"]


def test_eval_on_a_rare_class_csv_with_a_label_past_the_model_classes_is_an_error(tmp_path):
    ckpt, data = untrained_eval_inputs(tmp_path, [5])
    result = run_cli("eval", "--checkpoint", ckpt, "--data", data, "--out", tmp_path / "out")
    assert result.returncode == 1
    assert result.stderr == f"error: {data}: label 5 is out of range for 3 classes\n"
    assert not (tmp_path / "out").exists()


def test_eval_of_a_checkpoint_whose_centers_are_not_euclidean_is_an_error(tmp_path, capsys):
    """A file from a run under another distance order fails in one line that
    names the order, instead of being scored under the Euclidean distance."""
    ckpt, data = untrained_eval_inputs(tmp_path, [0, 1, 2])
    blob = ckpt.read_bytes()
    (length,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + length])
    header["centers"]["p_norm"] = 1
    text = json.dumps(header).encode()
    ckpt.write_bytes(blob[:4] + struct.pack("<I", len(text)) + text + blob[8 + length:])
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: {ckpt}: malformed checkpoint header (centers.p_norm "
                                       "is 1, but every distance is Euclidean (2))\n")
    assert not (tmp_path / "out").exists()


def test_eval_of_a_checkpoint_with_neither_centers_nor_head_is_an_error(tmp_path):
    _, data = untrained_eval_inputs(tmp_path, [0, 1, 2])
    save_checkpoint(tmp_path / "bare.ckpt", Checkpoint(extractor=FeatureExtractor([3, 4, 2]), epoch=0,
                                                       config_fingerprint="x"))
    result = run_cli("eval", "--checkpoint", tmp_path / "bare.ckpt", "--data", data,
                     "--out", tmp_path / "out")
    assert result.returncode == 1
    assert result.stderr == "error: model has neither centers nor a classifier head\n"
    assert not (tmp_path / "out").exists()


def test_a_directory_as_the_config_is_an_error_that_does_not_say_not_found(tmp_path, capsys):
    (tmp_path / "configs").mkdir()
    assert cli.main(["train", "--config", str(tmp_path / "configs"),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'configs'}: cannot read config file (")
    assert err.count("\n") == 1 and "not found" not in err
    assert not (tmp_path / "out").exists()


GOOD_CONFIG = b"[data]\npreset = skin7-like\n"


@pytest.mark.parametrize("config, csv", [
    (GOOD_CONFIG + b"# caf\xe9\n", None),
    (b"preset = skin7-like\n", None),
    (GOOD_CONFIG + b"preset = skin7-like\n", None),
    (GOOD_CONFIG + b"garbage line\n", None),
    (GOOD_CONFIG, b"label,f0,f1\n0,1.0,2.0\n1,\xff,3.0\n"),
    (GOOD_CONFIG, b"label,f0,f1\n0,1.0,2.0\n1,nan,3.0\n"),
    (GOOD_CONFIG, b"label,f0,f1\n0,1.0,2.0\n1000000000,0.5,3.0\n"),
], ids=["ini_not_utf8", "ini_no_section_header", "ini_duplicate_key", "ini_garbage_line",
        "csv_not_utf8", "csv_non_finite", "csv_label_past_the_rows"])
def test_malformed_inputs_report_an_error_without_traceback(tmp_path, config, csv):
    (tmp_path / "config.ini").write_bytes(config)
    argv = ["train", "--config", tmp_path / "config.ini", "--out", tmp_path / "out"]
    if csv is not None:
        (tmp_path / "data.csv").write_bytes(csv)
        argv += ["--data", tmp_path / "data.csv"]
    result = run_cli(*argv)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1  # one line, no traceback
    assert not (tmp_path / "out").exists()


def test_stage1_checkpoint_holds_the_parameters_right_after_stage_1(tmp_path):
    runs = {}
    for stage2_epochs in (2, 0):
        config = tmp_path / f"config{stage2_epochs}.ini"
        config.write_text("[run]\nseed = 5\n[data]\npreset = skin7-like\n"
                          "[model]\nembedding_dim = 8\nhidden = 12\n"
                          f"[stage1]\nepochs = 3\nm_per_class = 4\n[stage2]\nepochs = {stage2_epochs}\n")
        out = tmp_path / f"run{stage2_epochs}"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        runs[stage2_epochs] = out
    stage1 = load_checkpoint(runs[2] / "stage1.ckpt")
    final = load_checkpoint(runs[2] / "final.ckpt")
    after_stage1 = load_checkpoint(runs[0] / "final.ckpt")
    assert stage1.epoch == 3 and final.epoch == 5
    assert stage1.config_fingerprint == final.config_fingerprint
    assert stage1.head is None and stage1.centers is None
    assert stage1.extractor.layer_sizes == final.extractor.layer_sizes == [16, 12, 8]
    for got, want, trained in zip(stage1.extractor.parameters(), after_stage1.extractor.parameters(),
                                  final.extractor.parameters()):
        np.testing.assert_array_equal(got.data, want.data)
        assert not np.array_equal(got.data, trained.data)


SHORT = {"data": {"preset": "skin7-like"}, "stage1": {"epochs": "2"}, "stage2": {"epochs": "2"}}


# A baseline trains its own [baseline] epochs; at alpha = 0 no stage-2 unit
# qualifies on three far-apart classes, so stage 2 stops after one epoch, and
# the final centers are recomputed after that epoch.
@pytest.mark.parametrize("run, epochs, source_epoch", [
    ({"run": {"method": "baseline:oce"}, "baseline": {"epochs": "2"}}, 2, None),
    ({"stage2": {"alpha": "0"}}, 3 + 1, 1),
], ids=["short_baseline", "stage2_stops_early"])
def test_the_final_checkpoint_records_the_epochs_trained(tmp_path, run, epochs, source_epoch):
    data = tmp_path / "far.csv"
    save_csv(gen_gaussian_imbalanced(SyntheticSpec(sizes=[20, 10, 5], means=simplex_means(3, 4, 50.0),
                                                   sigmas=np.full(3, 0.1))), data)
    config = write_ini(tmp_path / "config.ini", {
        "data": {"source": data}, "model": {"embedding_dim": "8", "hidden": "12"},
        "stage1": {"epochs": "3", "m_per_class": "4"}, "stage2": {"epochs": "4"}}, run)
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    final = load_checkpoint(tmp_path / "out" / "final.ckpt")
    assert final.epoch == epochs
    assert (final.centers.source_epoch if final.centers else None) == source_epoch


# With no holdout, train scores the rows it trained on, and says so.
@pytest.mark.parametrize("fraction, scored", [("0.2", "holdout"), ("0", "training-set")])
def test_train_titles_its_metrics_by_the_rows_it_scored(tmp_path, fraction, scored):
    config = write_ini(tmp_path / "config.ini", SHORT, {"data": {"holdout_fraction": fraction}})
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    title = (tmp_path / "out" / "metrics.txt").read_text().splitlines()[0]
    assert title == f"# two_stage {scored} metrics"


# The overflow that makes the loss non-finite warns first.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_run_reports_an_error_without_traceback(tmp_path, capsys):
    config = write_ini(tmp_path / "config.ini", SHORT, {"optimizer": {"lr": "1e300"}})
    for command in (["train"], ["crossval", "--k", "2"]):
        out = tmp_path / command[0]
        assert cli.main([*command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss during stage 1") and "Traceback" not in err
        assert not out.exists(), command  # no checkpoint, report or config echo


def write_ini(path, *layers):
    """An INI of the sections of ``layers``, later layers overriding earlier keys."""
    sections = {}
    for layer in layers:
        for name, keys in layer.items():
            sections.setdefault(name, {}).update(keys)
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()))
    return path


# From negative_stage2_lr on, each value used to fail only once a run reached it
# (after stage 1, say) or to pass silently; the config now refuses it when built.
# The removed_* keys are no longer options; an INI that still sets one fails to load.
@pytest.mark.parametrize("sections, message", [
    ({"hyper": {"alpha": "nan"}}, "margins must be finite"),
    ({"stage1": {"epochs": "-1"}}, "stage1 epochs must be >= 0"),
    ({"stage2": {"center_mode": "nope"}}, "unknown center mode 'nope'"),
    ({"hyper": {"beta": "-0.1"}}, "beta must be >= 0"),
    ({"stage2": {"lr": "-1"}}, "stage2 lr must be finite and positive, got -1.0"),
    ({"run": {"loss_family": "quadruplet"}, "stage2": {"alpha": "0.2"}},
     "quadruplet losses need beta < alpha, got beta=0.25 alpha=0.2"),
    ({"run": {"loss_family": "quadruplet"}, "hyper": {"alpha": "0.25"}},
     "quadruplet losses need beta < alpha, got beta=0.25 alpha=0.25"),
    ({"run": {"method": "baseline:oce"}, "baseline": {"epochs": "-3"}},
     "baseline epochs must be >= 0, got -3"),
    ({"stage1": {"m_per_class": "1"}}, "triplet batches need m_per_class >= 2, got 1"),
    ({"run": {"loss_family": "quadruplet"}, "stage1": {"m_per_class": "1"}},
     "quadruplet batches need m_per_class >= 2, got 1"),
    ({"run": {"loss_family": "pairwise"}, "stage1": {"m_per_class": "0"}},
     "m_per_class must be >= 1, got 0"),
    ({"run": {"seed": "-1"}}, "seed must be >= 0, got -1"),
    ({"optimizer": {"lr": "nan"}}, "optimizer settings out of range"),
    ({"run": {"method": "baseline:wfce"}, "baseline": {"focal_gamma": "nan"}},
     "focal_gamma must be finite and >= 0, got nan"),
    ({"model": {"activation": "sigmoid"}}, "unknown activation 'sigmoid'"),
    ({"model": {"hidden": "0,8"}}, "hidden widths must be positive integers, got (0, 8)"),
    ({"optimizer": {"epsilon": "inf"}}, "optimizer settings out of range"),
    ({"stage1": {"lambda_ce": "0.5"}}, "unknown key(s) ['lambda_ce'] in section [stage1]"),
    ({"stage2": {"freeze_layers": "1"}}, "unknown key(s) ['freeze_layers'] in section [stage2]"),
    ({"stage2": {"center_init": "random"}}, "unknown key(s) ['center_init'] in section [stage2]"),
    ({"stage2": {"final_centers": "recomputed"}},
     "unknown key(s) ['final_centers'] in section [stage2]"),
    ({"hyper": {"p_norm": "2"}}, "unknown key(s) ['p_norm'] in section [hyper]"),
], ids=["nan_alpha", "negative_epochs", "unknown_center_mode", "negative_beta",
        "negative_stage2_lr", "quadruplet_stage2_alpha_below_beta",
        "quadruplet_alpha_at_beta", "negative_baseline_epochs", "triplet_one_per_class",
        "quadruplet_one_per_class", "pairwise_zero_per_class",
        "negative_seed", "nan_optimizer_lr", "nan_focal_gamma", "unknown_activation",
        "zero_hidden_width", "inf_optimizer_epsilon", "removed_lambda_ce", "removed_freeze_layers",
        "removed_center_init", "removed_final_centers", "removed_p_norm"])
def test_a_value_the_config_rejects_names_the_config_file(tmp_path, capsys, sections, message):
    config = write_ini(tmp_path / "config.ini", SHORT, sections)
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert message in err
    assert not (tmp_path / "out").exists()  # no stage1.ckpt or final.ckpt, not even the echo


# A sweep is a crossval over INIs that differ in one key.
@pytest.mark.parametrize("sections, bad", [
    ({"stage2": {"alpha": "abc"}}, "[stage2] alpha='abc' is not a valid value"),
    ({"model": {"embedding_dim": "2.5"}}, "[model] embedding_dim='2.5' is not a valid value"),
    ({"model": {"embedding_dim": "0"}}, "embedding dimension must be a positive integer, got 0"),
    ({"stage2": {"alpha": "nan"}}, "stage2 alpha must be finite and nonnegative, got nan"),
    ({"stage2": {"alpha": ""}}, "[stage2] alpha='' is not a valid value"),
], ids=["non_numeric", "non_integral_dimension", "zero_dimension", "nan_margin", "no_values"])
def test_a_bad_sweep_value_reports_an_error_without_traceback(tmp_path, capsys, sections, bad):
    """A bad config, first or last, fails in one line that names it, before anything is written."""
    good = write_ini(tmp_path / "good.ini", SHORT)
    wrong = write_ini(tmp_path / "bad.ini", SHORT, sections)
    for order in ([good, wrong], [wrong, good]):
        configs = [arg for config in order for arg in ("--config", str(config))]
        assert cli.main(["crossval", *configs, "--out", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {wrong}: ") and bad in err and err.count("\n") == 1
        assert out == ""
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, run, configs", [
    (["gen-data", "--preset", "skin7-like", "--seed", "-1"], {}, 0),
    (["train"], {"seed": "-1"}, 1),
    (["train", "--seed", "-1"], {}, 1),
    (["crossval", "--seed", "-5"], {}, 1),
    (["crossval", "--seed", "-2"], {}, 2),
], ids=["gen_data_flag", "train_ini", "train_flag", "crossval_flag", "sweep_flag"])
def test_a_negative_seed_reports_an_error_without_traceback(tmp_path, argv, run, configs):
    argv = argv + ["--config", write_ini(tmp_path / "config.ini", SHORT, {"run": run})] * configs
    result = run_cli(*argv, "--out", tmp_path / "out")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "seed must be >= 0, got -" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["crossval", "sweep"])  # a sweep cross-validates two configs
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_an_error(tmp_path, capsys, command, jobs):
    config = write_ini(tmp_path / "config.ini", SHORT)
    configs = ["--config", str(config)] * (2 if command == "sweep" else 1)
    assert cli.main(["crossval", *configs, "--jobs", jobs, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: argument --jobs: must be >= 1, got {jobs}\n"
    assert not (tmp_path / "out").exists()  # rejected while parsing, before the config echo


def artifacts(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_a_crossval_of_several_configs_writes_what_each_writes_alone(tmp_path, capsys):
    """Config i writes under --out/i what a crossval of it alone writes under
    --out, serially and in a pool; crossval.csv holds each one's fold means."""
    small = {"model": {"embedding_dim": "8", "hidden": "12"}, "stage1": {"m_per_class": "4"}}
    configs = [write_ini(tmp_path / "a.ini", SHORT, small, {"stage2": {"alpha": "0.1"}}),
               write_ini(tmp_path / "b.ini", SHORT, small, {"stage2": {"alpha": "0.3"},
                                                           "eval": {"k_folds": "3"}})]
    alone, lines, rows = [], [], []
    for config in configs:
        out = tmp_path / f"alone_{config.stem}"
        assert cli.main(["crossval", "--config", str(config), "--out", str(out)]) == 0
        alone.append(artifacts(out))
        lines.append(f"{config}: {capsys.readouterr().out}")
        text = (out / "crossval.txt").read_text()
        rows.append(",".join([str(config), *(re.search(rf"^{name}: (\S+) ", text, re.M).group(1)
                                             for name in ("MF1", "MCP", "MCR"))]))
    assert [len(files) for files in alone] == [2 + 2 * 5, 2 + 2 * 3]  # each its own k
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["crossval", "--config", str(configs[0]), "--config", str(configs[1]),
                         "--jobs", jobs, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "".join(lines)
        assert sorted(p.name for p in out.iterdir()) == ["0", "1", "crossval.csv"]
        assert [artifacts(out / "0"), artifacts(out / "1")] == alone
        assert (out / "crossval.csv").read_text() == "config,mf1,mcp,mcr\n" + "".join(
            row + "\n" for row in rows)


def test_sweep_is_not_a_command(tmp_path, capsys):
    config = write_ini(tmp_path / "config.ini", SHORT)
    assert cli.main(["sweep", "--axis", "margin", "--values", "0.1", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: 'sweep'") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_k_that_leaves_a_fold_without_rows_is_an_error(tmp_path, capsys):
    """skin7-like's largest class has 335 rows.  At k = 336, fold 335 had no
    rows, scored MF1 0.00 and pulled the mean down.  The error names the
    config whose k it is, also when that config comes second."""
    config = write_ini(tmp_path / "config.ini", SHORT)
    wide = write_ini(tmp_path / "wide.ini", SHORT, {"eval": {"k_folds": "336"}})
    for argv, named in ((["--config", str(config), "--k", "336"], config),
                        (["--config", str(config), "--config", str(wide)], wide)):
        assert cli.main(["crossval", *argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: {named}: k = 336 leaves fold 335 with no rows; "
                                           "the largest class has 335 rows\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("run", [{}, {"run": {"method": "baseline:oce"}}], ids=["two_stage", "oce"])
def test_a_class_with_one_row_fails_a_crossval_before_any_cell_trains(tmp_path, capsys, monkeypatch,
                                                                     run, jobs):
    """The fold that tests class 6's one row trains without it, which every
    trainer refuses.  That used to fail only after fold 0 had trained, as
    'classes [6] have no samples'."""
    full = gen_gaussian_imbalanced(preset_spec("skin7-like", seed=0))
    data = tmp_path / "one_row.csv"
    save_csv(full.subset(np.flatnonzero(full.labels != 6).tolist() + [len(full.labels) - 1]), data)
    calls = []
    monkeypatch.setattr(workflows, "_run_fold", lambda *cell: calls.append(cell))
    config = write_ini(tmp_path / "config.ini", SHORT, run)
    assert cli.main(["crossval", "--config", str(config), "--data", str(data), "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: {config}: fold 1 has no training rows of class 6, "
                                       "which has 1 row(s) in all\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["train"], ["crossval", "--k", "2"]], ids=["train", "crossval"])
def test_the_seed_flag_runs_as_the_seed_key_does(tmp_path, command):
    """--seed 3 sets the seed of the run and of its preset data, as [run] seed = 3 does."""
    small = {"model": {"embedding_dim": "8", "hidden": "12"}, "stage1": {"m_per_class": "4"}}
    flagged = write_ini(tmp_path / "flagged.ini", SHORT, small)
    keyed = write_ini(tmp_path / "keyed.ini", SHORT, small, {"run": {"seed": "3"}})
    assert cli.main([*command, "--config", str(flagged), "--seed", "3",
                     "--out", str(tmp_path / "flag")]) == 0
    assert cli.main([*command, "--config", str(keyed), "--out", str(tmp_path / "key")]) == 0
    got, want = artifacts(tmp_path / "flag"), artifacts(tmp_path / "key")
    got.pop("train.log", None), want.pop("train.log", None)
    assert got == want
    assert "\nseed = 3\n" in got["config.echo.ini"].decode()


def test_eval_on_a_csv_narrower_than_the_checkpoint_input_is_an_error(tmp_path, capsys):
    ckpt, _ = untrained_eval_inputs(tmp_path, [0, 1, 2])
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("label,f0,f1\n0,1.0,2.0\n1,0.5,0.5\n2,3.0,1.0\n")
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(narrow),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: dataset width 2 does not match checkpoint input dim 3\n"
    assert not (tmp_path / "out").exists()


def test_eval_checks_the_small_class_threshold_before_reading_anything(tmp_path, capsys):
    """Neither file exists: the flag fails while the arguments are parsed."""
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--data", str(tmp_path / "none.csv"), "--small-class-threshold", "0",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: argument --small-class-threshold: must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()
