"""Golden seeded outputs: what a seeded run produces, pinned across commits.

Five ``train`` runs (each one ``run_holdout``) on the ``skin7-like`` preset at
seed 3 -- triplet 2+2 epochs, quadruplet with trainable centers 2+2,
pairwise 2+2, ``baseline:oce`` 3 and ``baseline:wfce`` 3 -- and one
``crossval --k 2`` of the three loss families, all through ``cli.main``.
``golden.json`` holds, for each:

- the predicted labels of every scored row and the units mined in each
  epoch, compared exactly;
- the SHA-256 of the extractor weights, center and head bytes, of
  ``metrics.txt``, the ``final.ckpt`` payload (the bytes after its header)
  and ``crossval.csv``.

OpenBLAS picks its kernels by CPU, so another machine may round
differently.  In the environment the values were recorded in (its numpy
version and BLAS core) every hash must match.  Elsewhere the hashes are not
compared; the floats behind them (each array's sums of ``|x|`` and ``x^2``,
and the numbers of each text file) are compared at ``rtol = 1e-9``, the
labels and unit counts still exactly.  The crossval test prints which mode
ran.

A change that moves seeded outputs on purpose re-pins them in the same
commit, with ``PYTHONPATH=src python tests/test_golden.py``, and lists the
old and new values in ``CHANGES.md``.
"""

import ctypes
import glob
import hashlib
import json
import os
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from tricenter import cli, training, workflows
from tricenter.nn import load_checkpoint

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-9
DATA = "[data]\npreset = skin7-like\n"
INIS = {
    "triplet": "[run]\nseed = 3\n" + DATA + "[stage1]\nepochs = 2\n[stage2]\nepochs = 2\n",
    "quadruplet_trainable": "[run]\nloss_family = quadruplet\nseed = 3\n" + DATA
                            + "[stage1]\nepochs = 2\n[stage2]\nepochs = 2\ncenter_mode = trainable\n",
    "pairwise": "[run]\nloss_family = pairwise\nseed = 3\n" + DATA
                + "[stage1]\nepochs = 2\n[stage2]\nepochs = 2\n",
    "oce": "[run]\nmethod = baseline:oce\nseed = 3\n" + DATA + "[baseline]\nepochs = 3\n",
    "wfce": "[run]\nmethod = baseline:wfce\nseed = 3\n" + DATA + "[baseline]\nepochs = 3\n",
}
CROSSVAL = ("triplet", "quadruplet_trainable", "pairwise")  # one config per loss family


def environment() -> dict:
    """The numpy version and the OpenBLAS core numpy runs on (None when unknown)."""
    core = None
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                core = fn().decode()
                break
    return {"numpy": np.__version__, "blas_core": core}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_floats(arrays) -> list:
    """Sums of ``|x|`` and of ``x^2`` of each array: floats that follow its values."""
    return [float(s) for a in arrays for s in (np.abs(a).sum(), (a * a).sum())]


def text_floats(text: str) -> list:
    return [float(x) for x in re.findall(r"-?\d+\.\d+", text)]


def observe(tmp: Path, monkeypatch, argv) -> dict:
    """Run ``cli.main(argv)`` in ``tmp`` and record the labels each scoring
    predicted and the units mined in each epoch of each stage."""
    labels, epochs = [], []
    predict, fit, score = workflows.predict, training._fit, training._Family.score

    def predict_recorded(*args, **kwargs):
        labels.append(predict(*args, **kwargs))
        return labels[-1]

    def fit_recorded(record, stage, n_epochs, opt, epoch_plans, batch_loss, label):
        def plans(epoch):
            epochs.append([label, 0])
            return epoch_plans(epoch)
        return fit(record, stage, n_epochs, opt, plans, batch_loss, label)

    def score_recorded(self, units, sources, hyper):
        epochs[-1][1] += len(units)
        return score(self, units, sources, hyper)

    monkeypatch.chdir(tmp)
    for name, text in INIS.items():
        Path(f"{name}.ini").write_text(text)
    with monkeypatch.context() as patch:
        patch.setattr(workflows, "predict", predict_recorded)
        patch.setattr(training, "_fit", fit_recorded)
        patch.setattr(training._Family, "score", score_recorded)
        assert cli.main(argv) == 0
    return {"labels": "".join(str(c) for c in np.concatenate(labels).tolist()), "units": epochs}


def observe_train(tmp: Path, monkeypatch, name: str) -> dict:
    seen = observe(tmp, monkeypatch, ["train", "--config", f"{name}.ini", "--out", name])
    out = tmp / name
    blob = (out / "final.ckpt").read_bytes()
    payload = blob[8 + struct.unpack("<I", blob[4:8])[0]:]
    ckpt = load_checkpoint(out / "final.ckpt")
    parts = {"weights": [p.data for p in ckpt.extractor.parameters()],
             "centers": [] if ckpt.centers is None else [ckpt.centers.matrix],
             "head": [] if ckpt.head is None else [p.data for p in ckpt.head.parameters()]}
    metrics = (out / "metrics.txt").read_text()
    seen["sha256"] = {**{part: sha256(b"".join(a.tobytes() for a in arrays)) if arrays else None
                         for part, arrays in parts.items()},
                      "metrics.txt": sha256(metrics.encode()), "final.ckpt payload": sha256(payload)}
    seen["floats"] = {**{part: array_floats(arrays) for part, arrays in parts.items()},
                      "metrics.txt": text_floats(metrics)}
    return seen


def observe_crossval(tmp: Path, monkeypatch) -> dict:
    argv = ["crossval", "--k", "2", "--out", "crossval"]
    for name in CROSSVAL:
        argv += ["--config", f"{name}.ini"]
    seen = observe(tmp, monkeypatch, argv)
    files = sorted(p for p in (tmp / "crossval").rglob("*")
                   if p.name == "crossval.csv" or p.name.endswith("metrics.txt"))
    texts = {p.relative_to(tmp / "crossval").as_posix(): p.read_text() for p in files}
    seen["sha256"] = {name: sha256(text.encode()) for name, text in texts.items()}
    seen["floats"] = {name: text_floats(text) for name, text in texts.items()}
    return seen


def assert_matches(seen: dict, want: dict, exact: bool):
    assert seen["labels"] == want["labels"]
    assert seen["units"] == want["units"]
    assert seen["floats"].keys() == want["floats"].keys()
    if exact:
        assert seen["sha256"] == want["sha256"]
    for part, values in want["floats"].items():
        np.testing.assert_allclose(seen["floats"][part], values, rtol=RTOL, err_msg=part)


@pytest.fixture(scope="module")
def golden():
    want = json.loads(GOLDEN.read_text())
    return want, environment() == want["environment"]


@pytest.mark.parametrize("name", list(INIS))
def test_seeded_train_outputs_are_the_golden_ones(name, golden, tmp_path, monkeypatch):
    want, exact = golden
    assert_matches(observe_train(tmp_path, monkeypatch, name), want["train"][name], exact)


def test_seeded_crossval_outputs_are_the_golden_ones(golden, tmp_path, monkeypatch, capsys):
    want, exact = golden
    with capsys.disabled():
        mode = "exactly" if exact else f"at rtol {RTOL}, hashes skipped"
        print(f"\ngolden outputs compared {mode}: recorded in {want['environment']}, "
              f"run in {environment()}")
    assert_matches(observe_crossval(tmp_path, monkeypatch), want["crossval"], exact)


def repin(tmp: Path):
    """Rewrite ``golden.json`` from the current tree."""
    monkeypatch = pytest.MonkeyPatch()
    try:
        values = {"environment": environment(),
                  "train": {name: observe_train(tmp / name, monkeypatch, name) for name in INIS},
                  "crossval": observe_crossval(tmp / "crossval", monkeypatch)}
    finally:
        monkeypatch.undo()
    text = json.dumps(values, indent=1)
    # one line per innermost list
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    GOLDEN.write_text(text + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for sub in [*INIS, "crossval"]:
            (Path(scratch) / sub).mkdir()
        repin(Path(scratch))
    print(f"wrote {GOLDEN}", file=sys.stderr)
