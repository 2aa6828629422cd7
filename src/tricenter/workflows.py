"""Train/evaluate compositions shared by the CLI and the test harness.

A metric-learning run predicts by nearest class center; a baseline run
predicts by argmax over its classifier head.  Cross-validation derives the
fold training seed as ``seed + fold_index`` and splits folds with the base
seed, so a whole protocol is reproducible from one integer.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .centers import embed_all, nearest_center_predict_batch
from .datasets import Dataset
from .errors import ContractError
from .evaluation import (CrossvalSummary, MetricsReport, confusion,
                         macro_metrics, small_class_report, stratified_holdout,
                         stratified_kfold)
from .sampling import DatasetIndex
from .training import RunRecord, TrainConfig, run_method


def predict(extractor, features: np.ndarray, centers=None, head=None,
            p_norm: int = 2) -> np.ndarray:
    """Labels for a feature matrix: the nearest L_p center when a center table
    is given, otherwise argmax over the classifier head."""
    emb = embed_all(extractor, np.asarray(features, dtype=np.float64))
    if centers is not None:
        labels, _ = nearest_center_predict_batch(emb, centers, p_norm)
        return labels
    if head is None:
        raise ContractError("model has neither centers nor a classifier head")
    logits = emb @ head.weight.data + head.bias.data
    return logits.argmax(axis=1)


def evaluate_record(record: RunRecord, test: Dataset, *, p_norm: int = 2,
                    small_threshold: int = 20,
                    small_index: DatasetIndex | None = None) -> MetricsReport:
    """Confusion + macro metrics on a held-out set, with a small-class sub-report.

    ``small_index`` decides which classes count as small (defaults to the
    test set's own index; callers normally pass the full-dataset index)."""
    predicted = predict(record.extractor, test.features, record.centers, record.head, p_norm)
    cm = confusion(test.labels, predicted, test.n_classes)
    report = macro_metrics(cm)
    report.small_class = small_class_report(
        report, small_index if small_index is not None else test.index, small_threshold)
    return report


@dataclass
class FoldResult:
    fold: int
    record: RunRecord
    report: MetricsReport


@dataclass
class CrossvalResult:
    folds: list
    summary: CrossvalSummary
    small_summary: CrossvalSummary | None


def _train_and_score(config: TrainConfig, dataset: Dataset, train_rows, test_rows,
                     small_threshold: int, verbose: bool) -> tuple[RunRecord, MetricsReport]:
    """Train on ``train_rows``, score ``test_rows``; small classes are those of ``dataset``."""
    record = run_method(config, dataset.subset(train_rows), verbose=verbose)
    report = evaluate_record(record, dataset.subset(test_rows), p_norm=config.hyper.p_norm,
                             small_threshold=small_threshold, small_index=dataset.index)
    return record, report


def _run_fold(args):
    config, dataset, train_rows, test_rows, fold, small_threshold, verbose = args
    record, report = _train_and_score(replace(config, seed=config.seed + fold), dataset,
                                      train_rows, test_rows, small_threshold, verbose)
    return FoldResult(fold=fold, record=record, report=report)


def run_crossval(config: TrainConfig, dataset: Dataset, k: int = 5,
                 small_threshold: int = 20, jobs: int = 1,
                 verbose: bool = False) -> CrossvalResult:
    """k-fold stratified cross-validation of one training configuration."""
    folds = stratified_kfold(dataset.index, k, seed=config.seed)
    tasks = [(config, dataset, tr, te, f, small_threshold, verbose)
             for f, (tr, te) in enumerate(folds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_fold, tasks))
    else:
        results = [_run_fold(t) for t in tasks]
    summary = CrossvalSummary([r.report for r in results])
    small_reports = [r.report.small_class for r in results
                     if r.report.small_class is not None and r.report.small_class.status == "ok"]
    small_summary = CrossvalSummary(small_reports) if small_reports else None
    return CrossvalResult(folds=results, summary=summary, small_summary=small_summary)


@dataclass
class HoldoutResult:
    record: RunRecord
    report: MetricsReport
    train_rows: np.ndarray
    test_rows: np.ndarray


def run_holdout(config: TrainConfig, dataset: Dataset, test_fraction: float = 0.2,
                small_threshold: int = 20, verbose: bool = False) -> HoldoutResult:
    """Single stratified train/test split, train once, evaluate the test side."""
    train_rows, test_rows = stratified_holdout(dataset.index, test_fraction, seed=config.seed)
    record, report = _train_and_score(config, dataset, train_rows, test_rows,
                                      small_threshold, verbose)
    return HoldoutResult(record=record, report=report,
                         train_rows=train_rows, test_rows=test_rows)


SWEEP_AXES = ("margin", "dimension")


def _sweep_point(args):
    axis, value, config, dataset, k, small_threshold = args
    if axis == "margin":
        point_config = replace(config, stage2=replace(config.stage2, alpha=float(value)))
    else:
        point_config = replace(config, embedding_dim=int(value))
    result = run_crossval(point_config, dataset, k=k, small_threshold=small_threshold)
    return {"value": float(value), "mf1": result.summary.mf1_mean,
            "mcp": result.summary.mcp_mean, "mcr": result.summary.mcr_mean}


def run_sweep(axis: str, values, config: TrainConfig, dataset: Dataset, k: int = 5,
              small_threshold: int = 20, jobs: int = 1) -> list:
    """One cross-validated run per axis value; rows come back sorted by value.

    The margin axis varies the center-stage margin only; the stage-1 margin
    stays at its configured value.  The dimension axis varies the embedding
    width.
    """
    if axis not in SWEEP_AXES:
        raise ContractError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ContractError("sweep needs at least one value")
    bad = [v for v in values if axis == "dimension" and not (float(v).is_integer() and v >= 1)]
    if bad:
        raise ContractError(f"dimension must be a positive integer, got {bad[0]!r}")
    tasks = [(axis, v, config, dataset, k, small_threshold) for v in values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]
    return sorted(rows, key=lambda r: r["value"])
