import os
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
                                simplex_means)
from tricenter.distance import lp_cdist
from tricenter.nn import Checkpoint, FeatureExtractor, load_checkpoint, save_checkpoint


def run_cli(*argv):
    env = dict(os.environ)
    src = str(Path(tricenter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "tricenter.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_eval_on_a_truncated_checkpoint_reports_an_error_without_traceback(tmp_path):
    data = tmp_path / "data.csv"
    features = np.random.default_rng(0).normal(size=(6, 3))
    save_csv(Dataset(features=features, labels=np.array([0, 0, 1, 1, 2, 2])), data)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, Checkpoint(extractor=FeatureExtractor([3, 4, 2]), epoch=0,
                                     config_fingerprint="x",
                                     centers=CenterTable(Tensor(np.zeros((3, 2))), mode="computed")))
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


def test_eval_predicts_by_the_nearest_center_under_the_trained_lp_order(tmp_path, monkeypatch):
    assert cli.main(["gen-data", "--preset", "skin7-like", "--seed", "3", "--out", str(tmp_path)]) == 0
    data = tmp_path / "dataset.csv"
    config = tmp_path / "config.ini"
    config.write_text("[run]\nseed = 3\n[data]\npreset = skin7-like\n"
                      "[model]\nembedding_dim = 16\nhidden = 24\n[hyper]\np_norm = 1\n"
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
    nearest = {p: lp_cdist(emb, ckpt.centers.matrix, p).argmin(axis=1) for p in (1, 2)}
    assert (nearest[1] != nearest[2]).any()  # so eval under L2 would be caught
    assert len(predicted) == 1
    np.testing.assert_array_equal(predicted[0], nearest[1])
    assert ckpt.centers.p_norm == 1


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


GOOD_CONFIG = b"[data]\npreset = skin7-like\n"


@pytest.mark.parametrize("config, csv", [
    (GOOD_CONFIG + b"# caf\xe9\n", None),
    (b"preset = skin7-like\n", None),
    (GOOD_CONFIG + b"preset = skin7-like\n", None),
    (GOOD_CONFIG, b"label,f0,f1\n0,1.0,2.0\n1,\xff,3.0\n"),
], ids=["ini_not_utf8", "ini_no_section_header", "ini_duplicate_key", "csv_not_utf8"])
def test_malformed_inputs_report_an_error_without_traceback(tmp_path, config, csv):
    (tmp_path / "config.ini").write_bytes(config)
    argv = ["train", "--config", tmp_path / "config.ini", "--out", tmp_path / "out"]
    if csv is not None:
        (tmp_path / "data.csv").write_bytes(csv)
        argv += ["--data", tmp_path / "data.csv"]
    result = run_cli(*argv)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


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
    for got, want, trained in zip(stage1.extractor.state(), after_stage1.extractor.state(),
                                  final.extractor.state()):
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, trained)


SHORT = {"data": {"preset": "skin7-like"}, "stage1": {"epochs": "2"}, "stage2": {"epochs": "2"}}


# A baseline trains its own [baseline] epochs; at alpha = 0 no stage-2 unit
# qualifies on three far-apart classes, so stage 2 stops after one epoch.
@pytest.mark.parametrize("run, epochs", [
    ({"run": {"method": "baseline:oce"}, "baseline": {"epochs": "2"}}, 2),
    ({"stage2": {"alpha": "0"}}, 3 + 1),
], ids=["short_baseline", "stage2_stops_early"])
def test_the_final_checkpoint_records_the_epochs_trained(tmp_path, run, epochs):
    data = tmp_path / "far.csv"
    save_csv(gen_gaussian_imbalanced(SyntheticSpec(sizes=[20, 10, 5], means=simplex_means(3, 4, 50.0),
                                                   sigmas=np.full(3, 0.1))), data)
    config = write_ini(tmp_path / "config.ini", {
        "data": {"source": data}, "model": {"embedding_dim": "8", "hidden": "12"},
        "stage1": {"epochs": "3", "m_per_class": "4"}, "stage2": {"epochs": "4"}}, run)
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert load_checkpoint(tmp_path / "out" / "final.ckpt").epoch == epochs


# The overflow that makes the loss non-finite warns first.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_run_reports_an_error_without_traceback(tmp_path, capsys):
    config = write_ini(tmp_path / "config.ini", SHORT, {"optimizer": {"lr": "1e300"}})
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss during stage 1") and "Traceback" not in err
    assert not (tmp_path / "out" / "final.ckpt").exists()


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
@pytest.mark.parametrize("sections, message", [
    ({"hyper": {"alpha": "nan"}}, "margins must be finite"),
    ({"stage1": {"epochs": "-1"}}, "stage1 epochs must be >= 0"),
    ({"stage2": {"center_mode": "nope"}}, "unknown center mode 'nope'"),
    ({"hyper": {"p_norm": "0"}}, "p_norm must be a positive integer"),
    ({"hyper": {"beta": "-0.1"}}, "beta must be >= 0"),
    ({"stage2": {"lr": "-1"}}, "stage2 lr must be finite and positive, got -1.0"),
    ({"stage2": {"freeze_layers": "3"}}, "freeze_layers = 3 leaves none of the 3 layers to train"),
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
    ({"stage2": {"freeze_layers": "-1"}}, "freeze_layers must be >= 0, got -1"),
    ({"run": {"seed": "-1"}}, "seed must be >= 0, got -1"),
    ({"optimizer": {"lr": "nan"}}, "optimizer settings out of range"),
    ({"run": {"method": "baseline:wfce"}, "baseline": {"focal_gamma": "nan"}},
     "focal_gamma must be finite and >= 0, got nan"),
    ({"model": {"activation": "sigmoid"}}, "unknown activation 'sigmoid'"),
    ({"model": {"hidden": "0,8"}}, "hidden widths must be positive integers, got (0, 8)"),
], ids=["nan_alpha", "negative_epochs", "unknown_center_mode", "zero_p_norm", "negative_beta",
        "negative_stage2_lr", "freeze_every_layer", "quadruplet_stage2_alpha_below_beta",
        "quadruplet_alpha_at_beta", "negative_baseline_epochs", "triplet_one_per_class",
        "quadruplet_one_per_class", "pairwise_zero_per_class", "negative_freeze_layers",
        "negative_seed", "nan_optimizer_lr", "nan_focal_gamma", "unknown_activation",
        "zero_hidden_width"])
def test_a_value_the_config_rejects_names_the_config_file(tmp_path, capsys, sections, message):
    config = write_ini(tmp_path / "config.ini", SHORT, sections)
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert message in err
    assert not (tmp_path / "out").exists()  # no stage1.ckpt or final.ckpt, not even the echo


@pytest.mark.parametrize("axis, values, bad", [
    ("margin", "0.1,abc", "'abc'"),
    ("dimension", "2.5", "2.5"),
    ("dimension", "4,0", "0.0"),
    ("margin", "0.1,nan", "nan"),
], ids=["non_numeric", "non_integral_dimension", "zero_dimension", "nan_margin"])
def test_a_bad_sweep_value_reports_an_error_without_traceback(tmp_path, axis, values, bad):
    (tmp_path / "config.ini").write_bytes(GOOD_CONFIG)
    result = run_cli("sweep", "--axis", axis, "--values", values,
                     "--config", tmp_path / "config.ini", "--out", tmp_path / "out")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert bad in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("argv, run", [
    (["gen-data", "--preset", "skin7-like", "--seed", "-1"], {}),
    (["train"], {"seed": "-1"}),
    (["train", "--seed", "-1"], {}),
    (["crossval", "--seed", "-5"], {}),
    (["sweep", "--axis", "margin", "--values", "0.1", "--seed", "-2"], {}),
], ids=["gen_data_flag", "train_ini", "train_flag", "crossval_flag", "sweep_flag"])
def test_a_negative_seed_reports_an_error_without_traceback(tmp_path, argv, run):
    if argv[0] != "gen-data":
        argv = argv + ["--config", write_ini(tmp_path / "config.ini", SHORT, {"run": run})]
    result = run_cli(*argv, "--out", tmp_path / "out")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and "seed must be >= 0, got -" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["crossval", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_an_error(tmp_path, capsys, command, jobs):
    config = write_ini(tmp_path / "config.ini", SHORT)
    argv = [command, "--config", str(config), "--jobs", jobs, "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "margin", "--values", "0.1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: jobs must be >= 1, got {jobs}\n"
    assert not list((tmp_path / "out").glob("*.csv")) and not (tmp_path / "out" / "crossval.txt").exists()
