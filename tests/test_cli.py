import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tricenter
from tricenter.datasets import Dataset, save_csv
from tricenter.nn import Checkpoint, FeatureExtractor, save_checkpoint


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
