"""Train/evaluate compositions shared by the CLI and the test harness.

A metric-learning run predicts by nearest class center; a baseline run
predicts by argmax over its classifier head.  Cross-validation derives the
fold training seed as ``seed + fold_index`` and splits folds with the base
seed, so a whole protocol is reproducible from one integer.  The process
pool (``concurrent.futures`` and ``multiprocessing``) is imported only when
``jobs > 1``, so a serial run does not pay for it in memory or start-up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .autodiff import Tensor, no_grad
from .centers import FORWARD_CHUNK, embed_all, nearest_center_predict_batch
from .datasets import Dataset
from .errors import ContractError
from .evaluation import (CrossvalSummary, MetricsReport, confusion,
                         macro_metrics, small_class_report, stratified_holdout,
                         stratified_kfold)
from .training import RunRecord, TrainConfig, run_method


def predict(extractor, features: np.ndarray, centers=None, head=None) -> np.ndarray:
    """Labels for a feature matrix: the nearest center when a center table is
    given, otherwise argmax over the classifier head.

    The nearest center is the argmin of the exact Euclidean distances, ties
    to the smaller class id; ``nearest_center_predict_batch`` decides most
    rows from bracketed Gram values without computing those distances.
    Rows are embedded and scored ``FORWARD_CHUNK`` at a time, the chunks of
    ``embed_all``, so the embeddings are those of one ``embed_all`` call and
    memory does not grow with the row count."""
    if centers is None and head is None:
        raise ContractError("model has neither centers nor a classifier head")
    features = np.asarray(features, dtype=np.float64)
    labels = np.empty(features.shape[0], dtype=np.intp)
    for start in range(0, features.shape[0], FORWARD_CHUNK):
        rows = slice(start, start + FORWARD_CHUNK)
        emb = embed_all(extractor, features[rows])
        if centers is not None:
            labels[rows] = nearest_center_predict_batch(emb, centers)
        else:
            with no_grad():
                labels[rows] = head(Tensor(emb)).data.argmax(axis=1)
    return labels


def model_classes(model) -> int:
    """The class count of a model: the rows of its center table, else the outputs of its head."""
    if model.centers is not None:
        return model.centers.n_classes
    if model.head is None:  # a checkpoint file may hold neither
        raise ContractError("model has neither centers nor a classifier head")
    return model.head.bias.data.size


def evaluate_record(model, test: Dataset, *, small_threshold: int = 20,
                    small_sizes=None) -> MetricsReport:
    """Confusion + macro metrics on a held-out set, with a small-class sub-report.

    ``model`` has ``extractor``, ``centers`` and ``head``: a ``RunRecord`` or
    a ``Checkpoint``.  The report spans the model's classes, and a test label
    past them is a ``ContractError``.  ``small_sizes`` (one size per class)
    decides which classes count as small; it defaults to the test labels'
    class sizes."""
    n_classes = model_classes(model)
    if test.labels.size and test.labels.max() >= n_classes:
        raise ContractError(f"test label {test.labels.max()} is out of range for the "
                            f"model's {n_classes} classes")
    predicted = predict(model.extractor, test.features, model.centers, model.head)
    report = macro_metrics(confusion(test.labels, predicted, n_classes))
    if small_sizes is None:
        small_sizes = np.bincount(test.labels, minlength=n_classes)
    report.small_class = small_class_report(report, small_sizes, small_threshold)
    return report


@dataclass
class CrossvalResult:
    folds: list  # (record, report) of each fold, in fold order
    summary: CrossvalSummary
    small_summary: CrossvalSummary | None


def _run_fold(config: TrainConfig, dataset: Dataset, train_rows, test_rows, fold: int,
              small_threshold: int) -> tuple[RunRecord, MetricsReport]:
    """Train on ``train_rows`` with seed + ``fold`` and score ``test_rows``;
    small classes are those of ``dataset``.  Every cross-validation cell and
    every holdout run (as fold 0) trains and scores here."""
    record = run_method(replace(config, seed=config.seed + fold), dataset.subset(train_rows))
    report = evaluate_record(record, dataset.subset(test_rows),
                             small_threshold=small_threshold, small_sizes=dataset.index.sizes)
    return record, report


def _crossval_result(folds: list) -> CrossvalResult:
    reports = [report for _, report in folds]
    small_reports = [r.small_class for r in reports
                     if r.small_class is not None and r.small_class.status == "ok"]
    return CrossvalResult(folds=folds, summary=CrossvalSummary(reports),
                          small_summary=CrossvalSummary(small_reports) if small_reports else None)


def _cells(config: TrainConfig, dataset: Dataset, k: int, small_threshold: int) -> list:
    """The k (config, fold) cells of one cross-validation.  Folds split with
    the config's seed and fold f trains with seed + f, so each cell is fixed
    by its arguments.  Every trainer refuses a training set that lacks a
    class, so a fold whose training rows lack one is a ``ContractError`` here,
    before any cell trains."""
    cells = []
    for fold, (train_rows, test_rows) in enumerate(stratified_kfold(dataset.index, k, seed=config.seed)):
        held = np.bincount(dataset.labels[train_rows], minlength=dataset.n_classes)
        if not held.all():
            c = int(np.argmin(held))
            raise ContractError(f"fold {fold} has no training rows of class {c}, "
                                f"which has {dataset.index.sizes[c]} row(s) in all")
        cells.append((config, dataset, train_rows, test_rows, fold, small_threshold))
    return cells


def _run_cells(plans: list, jobs: int) -> list:
    """The cross-validation of each plan, a list of ``_cells``; the cells of
    every plan run in one pool, and ``jobs`` processes cannot change a result."""
    if jobs < 1:
        raise ContractError(f"jobs must be >= 1, got {jobs}")
    cells = [cell for plan in plans for cell in plan]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn")) as pool:
            folds = list(pool.map(_run_fold, *zip(*cells)))
    else:
        folds = [_run_fold(*cell) for cell in cells]
    done = iter(folds)
    return [_crossval_result(list(islice(done, len(plan)))) for plan in plans]


def run_crossval(config: TrainConfig, dataset: Dataset, k: int = 5,
                 small_threshold: int = 20, jobs: int = 1) -> CrossvalResult:
    """k-fold stratified cross-validation of one training configuration."""
    return _run_cells([_cells(config, dataset, k, small_threshold)], jobs)[0]


def run_holdout(config: TrainConfig, dataset: Dataset, test_fraction: float = 0.2,
                small_threshold: int = 20) -> tuple[RunRecord, MetricsReport]:
    """Train once on a stratified split and score its test side, as fold 0
    (the config's own seed) of ``_run_fold``; at ``test_fraction`` 0, train
    on every row and score those rows."""
    if test_fraction == 0:
        train_rows = test_rows = np.arange(len(dataset.labels))
    else:
        train_rows, test_rows = stratified_holdout(dataset.index, test_fraction, seed=config.seed)
    return _run_fold(config, dataset, train_rows, test_rows, 0, small_threshold)
