"""Benchmark workloads: their generated inputs, the CLI command each one
measures, and the checks applied to every command's outputs.

Every input derives from the workload seed.  A workload has one or more
variants, each with its own data draw and training seed; the program sees
only the generated INI config and CSV files, never the workload's name.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tricenter import cli, workflows
from tricenter.config import load_settings
from tricenter.datasets import (SKIN7_LIKE_IN_DIM, SKIN7_LIKE_SEPARATION, SKIN7_LIKE_SIGMA,
                                SKIN7_LIKE_SIZES, SyntheticSpec, gen_gaussian_imbalanced,
                                preset_spec, save_csv, simplex_means)
from tricenter.nn import config_fingerprint

from tracing import Rebinding

GOOD_STATUSES = ("completed", "converged_early")
NONDETERMINISTIC_ARTIFACTS = ("train.log",)  # holds wall-clock epoch times


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand measured: "train" | "crossval" | "eval"
    config: dict  # INI sections; [run] seed and [data] source are set per variant
    variants: int  # distinct seeded inputs per run; mf1 is their mean
    eval_scale: int = 0  # eval only: class sizes of the eval CSV are skin7-like x this


WORKLOADS = {w.name: w for w in (
    Workload("triplet_holdout", "train", {
        "run": {"method": "two_stage", "loss_family": "triplet"},
        "data": {"holdout_fraction": 0.2},
        "stage1": {"epochs": 20, "mining": "random_hard"},
        "stage2": {"epochs": 20, "center_mode": "computed", "refresh_each_epoch": "true"},
    }, variants=8),
    Workload("quadruplet_crossval", "crossval", {
        "run": {"method": "two_stage", "loss_family": "quadruplet"},
        "stage1": {"epochs": 6},
        "stage2": {"epochs": 6, "center_mode": "trainable"},
        "eval": {"k_folds": 5},
    }, variants=6),
    Workload("oce_holdout", "train", {
        "run": {"method": "baseline:oce"},
        "data": {"holdout_fraction": 0.2},
        "baseline": {"epochs": 40, "batch_size": 32},
    }, variants=10),
    # The config trains the checkpoint during set-up; the measured command is eval.
    Workload("eval_bulk", "eval", {
        "run": {"method": "two_stage", "loss_family": "triplet"},
        "data": {"holdout_fraction": 0.2},
        "stage1": {"epochs": 5},
        "stage2": {"epochs": 5, "center_mode": "computed"},
    }, variants=1, eval_scale=30),
)}


@dataclass
class Variant:
    """One seeded input set and the CLI arguments that run it (minus --out)."""

    index: int
    seed: int
    argv: list
    labels: np.ndarray  # labels of the training CSV
    fingerprint: str
    sizes: dict
    eval_labels: np.ndarray | None = None


def variant_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def _ini(sections: dict) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    return "\n".join(lines)


def _epochs(config: dict) -> int:
    if config["run"]["method"].startswith("baseline:"):
        return config["baseline"]["epochs"]
    return config["stage1"]["epochs"] + config["stage2"]["epochs"]


def run_cli(argv):
    """Call the user's entry point in-process with its output captured.

    Returns the exit status, or the traceback of an exception that escaped."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([str(a) for a in argv])
    except Exception:
        return traceback.format_exc()


def prepare(workload: Workload, seed: int, directory: Path) -> list:
    """Write every variant's inputs under ``directory``; eval also trains its checkpoint."""
    variants = []
    for index in range(workload.variants):
        vseed = variant_seed(seed, index)
        vdir = directory / f"v{index}"
        vdir.mkdir(parents=True)
        data = gen_gaussian_imbalanced(preset_spec("skin7-like", seed=vseed))
        save_csv(data, vdir / "train.csv")
        sections = {s: dict(keys) for s, keys in workload.config.items()}
        sections["run"]["seed"] = vseed
        sections.setdefault("data", {})["source"] = vdir / "train.csv"
        (vdir / "config.ini").write_text(_ini(sections))
        settings = load_settings(vdir / "config.ini")
        sizes = {"rows": int(data.features.shape[0]), "classes": data.n_classes,
                 "epochs": _epochs(workload.config)}
        variant = Variant(index=index, seed=vseed, labels=data.labels,
                          fingerprint=config_fingerprint(settings.train.to_dict()),
                          sizes=sizes, argv=[workload.command, "--config", str(vdir / "config.ini")])
        if workload.command == "eval":
            if run_cli(["train", "--config", vdir / "config.ini", "--out", vdir / "ckpt"]) != 0:
                raise RuntimeError("training the eval checkpoint failed")
            k = len(SKIN7_LIKE_SIZES)
            spec = SyntheticSpec(sizes=[n * workload.eval_scale for n in SKIN7_LIKE_SIZES],
                                 means=simplex_means(k, SKIN7_LIKE_IN_DIM, SKIN7_LIKE_SEPARATION),
                                 sigmas=np.full(k, SKIN7_LIKE_SIGMA),
                                 seed=variant_seed(seed, index + workload.variants))
            bulk = gen_gaussian_imbalanced(spec)
            save_csv(bulk, vdir / "eval.csv")
            variant.eval_labels = bulk.labels
            variant.sizes.update(eval_rows=int(bulk.features.shape[0]))
            variant.argv = ["eval", "--checkpoint", str(vdir / "ckpt" / "final.ckpt"),
                            "--data", str(vdir / "eval.csv")]
        variants.append(variant)
    return variants


class Probe:
    """Captures what the artifacts do not show: the run record and test labels
    of every evaluated training run, and how many rows each confusion matrix
    counted.  Installed around every measured command, traced or not; it adds
    one Python call per evaluation."""

    def __init__(self):
        self.evaluated = []  # (record, test labels, report)
        self.counted = []  # number of predictions per confusion matrix

    @contextlib.contextmanager
    def installed(self):
        evaluate, confusion = workflows.evaluate_record, cli.confusion

        def evaluate_record(record, test, *args, **kwargs):
            report = evaluate(record, test, *args, **kwargs)
            self.evaluated.append((record, test.labels, report))
            return report

        def count_confusion(true_labels, predicted_labels, *args, **kwargs):
            self.counted.append(len(predicted_labels))
            return confusion(true_labels, predicted_labels, *args, **kwargs)

        binding = Rebinding()
        try:
            binding.everywhere(evaluate, evaluate_record)
            binding.everywhere(confusion, count_confusion)
            yield self
        finally:
            binding.undo()


def majority_mf1(major: int, test_labels) -> float:
    """Macro-F1 in percent of always predicting class ``major`` on the test rows."""
    test_labels = np.asarray(test_labels)
    hits = int((test_labels == major).sum())
    f1 = 2.0 * hits / (len(test_labels) + hits)  # precision hits/n, recall 1
    present = len(set(test_labels.tolist()) | {major})
    return 100.0 * f1 / present


def _artifact_mf1(path: Path, pattern: str) -> str:
    match = re.search(pattern, path.read_text())
    return match.group(1) if match else ""


@dataclass
class Outcome:
    """Checked result of one measured command."""

    attempted: int
    failed: int = 0
    mf1: float = math.nan
    rows: int = 0  # rows processed: epochs x training rows, or rows predicted
    epoch_times: tuple = ((), ())  # stage-1 and stage-2 epoch seconds of its runs
    problems: list = field(default_factory=list)


def differing_artifacts(out: Path, reference: Path) -> list:
    names = sorted(p.name for p in out.iterdir() if p.name not in NONDETERMINISTIC_ARTIFACTS)
    ref_names = sorted(p.name for p in reference.iterdir()
                       if p.name not in NONDETERMINISTIC_ARTIFACTS)
    if names != ref_names:
        return ["artifact set"]
    return [n for n in names if (out / n).read_bytes() != (reference / n).read_bytes()]


def check(workload: Workload, variant: Variant, rc, probe: Probe, out: Path,
          reference: Path | None) -> Outcome:
    """Apply the correctness gate to one command; a failed check fails its operations.

    An operation is a training run, a fold or an eval pass."""
    ops = workload.config["eval"]["k_folds"] if workload.command == "crossval" else 1
    outcome = Outcome(attempted=ops)
    if rc != 0:
        outcome.failed, outcome.problems = ops, [f"exit status {rc}"]
        return outcome
    if workload.command == "eval":
        labels = variant.eval_labels
        mf1_text = _artifact_mf1(out / "metrics.txt", r"macro: MF1 (\S+)")
        outcome.mf1 = float(mf1_text) if mf1_text else math.nan
        outcome.rows = len(labels)
        if probe.counted != [len(labels)]:
            outcome.problems.append(f"predicted {probe.counted} rows of {len(labels)}")
        elif not outcome.mf1 > majority_mf1(int(np.bincount(variant.labels).argmax()), labels):
            outcome.problems.append(f"MF1 {outcome.mf1} not above the majority predictor")
        outcome.failed = ops if outcome.problems else 0
    else:
        if len(probe.evaluated) != ops:
            outcome.failed = ops
            outcome.problems.append(f"{len(probe.evaluated)} evaluated runs, expected {ops}")
            return outcome
        n_rows = len(variant.labels)
        scores, stage1, stage2 = [], [], []
        for record, test_labels, report in probe.evaluated:
            train_counts = (np.bincount(variant.labels)
                            - np.bincount(test_labels, minlength=variant.sizes["classes"]))
            ok = record.status in GOOD_STATUSES
            if not ok:
                outcome.problems.append(f"run status {record.status}")
            elif not (math.isfinite(report.mf1)
                      and report.mf1 > majority_mf1(int(train_counts.argmax()), test_labels)):
                outcome.problems.append(f"MF1 {report.mf1} not above the majority predictor")
                ok = False
            outcome.failed += not ok
            scores.append(report.mf1)
            stage1 += record.stage1_epoch_times
            stage2 += record.stage2_epoch_times
            epochs = len(record.stage1_losses) + len(record.stage2_losses)
            outcome.rows += epochs * (n_rows - len(test_labels))
        outcome.mf1 = float(np.mean(scores))
        outcome.epoch_times = (tuple(stage1), tuple(stage2))
        if workload.command == "crossval":
            shown = _artifact_mf1(out / "crossval.txt", r"MF1: (\S+) ")
        else:
            shown = _artifact_mf1(out / "metrics.txt", r"macro: MF1 (\S+)")
        if shown != f"{outcome.mf1:.2f}":
            outcome.failed = ops
            outcome.problems.append(f"artifact MF1 {shown!r} differs from {outcome.mf1:.2f}")
    if reference is not None:
        differing = differing_artifacts(out, reference)
        if differing:
            outcome.failed = ops
            outcome.problems.append(f"same-seed rerun changed {differing}")
    return outcome
