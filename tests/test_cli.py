import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tricenter
from tricenter import cli
from tricenter.centers import embed_all
from tricenter.datasets import Dataset, load_csv, save_csv
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
                                     config_fingerprint="x", center_matrix=np.zeros((3, 2)),
                                     center_mode="computed"))
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
    confusion = cli.confusion

    def capture(true_labels, predicted_labels, *args):
        predicted.append(np.asarray(predicted_labels))
        return confusion(true_labels, predicted_labels, *args)

    monkeypatch.setattr(cli, "confusion", capture)
    assert cli.main(["eval", "--checkpoint", str(run / "final.ckpt"), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 0
    ckpt = load_checkpoint(run / "final.ckpt")
    emb = embed_all(ckpt.extractor, load_csv(data).features)
    nearest = {p: lp_cdist(emb, ckpt.center_matrix, p).argmin(axis=1) for p in (1, 2)}
    assert (nearest[1] != nearest[2]).any()  # so eval under L2 would be caught
    assert len(predicted) == 1
    np.testing.assert_array_equal(predicted[0], nearest[1])
    assert ckpt.center_p_norm == 1
