"""Classification metrics, cross-validation splits, compactness, Wilcoxon test.

Macro metrics follow the unweighted class-mean convention and are reported
in percent.  An evaluation's report spans the model's classes; a test label
past them is an error.  Per-class quantities with a zero denominator (class
never predicted, or absent from the evaluated set) are defined as 0 and the
class is flagged; classes with neither true samples nor predictions are
excluded from the macro means entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distance import euclidean_cdist, euclidean_norm
from .errors import ContractError
from .sampling import DatasetIndex


def confusion(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """K x K count matrix; rows are true classes, columns predictions."""
    t = np.asarray(true_labels, dtype=np.intp)
    p = np.asarray(predicted_labels, dtype=np.intp)
    if t.shape != p.shape:
        raise ContractError("label streams differ in length")
    if t.size and (t.min() < 0 or t.max() >= n_classes or p.min() < 0 or p.max() >= n_classes):
        raise ContractError(f"labels out of range [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


@dataclass
class MetricsReport:
    """Per-class and macro precision/recall/F1, in percent."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    present: np.ndarray  # bool: class had true samples or predictions
    flagged: list  # classes where a zero denominator was coerced to 0
    mcp: float
    mcr: float
    mf1: float
    status: str = "ok"  # "ok" | "empty"
    small_class: "MetricsReport | None" = None

    @property
    def n_classes(self) -> int:
        return len(self.precision)


def _report(precision, recall, f1, present, flagged, scale: float) -> MetricsReport:
    """The report of per-class values times ``scale`` (into percent) and their
    means over the ``present`` classes; ``flagged`` marks zero denominators.
    With no class present every mean is 0 and the status is "empty"."""
    def macro(values):
        return float(values[present].mean()) * scale if present.any() else 0.0
    return MetricsReport(
        precision=precision * scale, recall=recall * scale, f1=f1 * scale,
        present=present, flagged=np.flatnonzero(present & flagged).tolist(),
        mcp=macro(precision), mcr=macro(recall), mf1=macro(f1),
        status="ok" if present.any() else "empty")


def macro_metrics(cm: np.ndarray) -> MetricsReport:
    """Per-class P/R/F1 plus their unweighted means over classes present."""
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.size == 0:
        raise ContractError("confusion matrix must be square and non-empty")
    tp = np.diag(cm).astype(float)
    predicted, true = cm.sum(axis=0), cm.sum(axis=1)
    k = cm.shape[0]
    precision = np.divide(tp, predicted, out=np.zeros(k), where=predicted != 0)
    recall = np.divide(tp, true, out=np.zeros(k), where=true != 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(k), where=pr != 0)
    # means of fractions, then scaled; small_class_report averages the percents
    return _report(precision, recall, f1, present=(true + predicted) > 0,
                   flagged=(predicted == 0) | (true == 0), scale=100.0)


def small_class_report(report: MetricsReport, sizes, threshold: int) -> MetricsReport:
    """Macro metrics restricted to the classes of at most ``threshold`` rows,
    given the size of every class of the report."""
    if threshold < 1:
        raise ContractError(f"threshold must be >= 1, got {threshold}")
    sizes = np.asarray(sizes)
    if sizes.shape != (report.n_classes,):
        raise ContractError(f"{sizes.size} class sizes do not match the report's "
                            f"{report.n_classes} classes")
    return _report(report.precision, report.recall, report.f1,
                   present=report.present & (sizes <= threshold),
                   flagged=np.isin(np.arange(report.n_classes), report.flagged), scale=1.0)


# -- splits --------------------------------------------------------------------

def stratified_kfold(index: DatasetIndex, k: int, seed: int) -> list:
    """Split every class as evenly as possible into k folds.

    Returns k (train_rows, test_rows) pairs; test folds are disjoint and
    cover the dataset.  Classes smaller than k simply appear in fewer test
    folds; downstream metrics handle their absence via the zero-division
    convention.  A fold left with no rows at all is a ContractError; a k up
    to the largest class size fills every fold.
    """
    if k < 2:
        raise ContractError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    fold = np.empty(int(index.sizes.sum()), dtype=np.intp)
    for c, members in enumerate(index.by_class):
        # rotate by class so the larger remainders do not pile on fold 0
        fold[rng.permutation(members)] = (np.arange(len(members)) + c) % k
    empty = np.flatnonzero(np.bincount(fold, minlength=k) == 0)
    if empty.size:
        raise ContractError(f"k = {k} leaves fold {empty[0]} with no rows; "
                            f"the largest class has {index.sizes.max()} rows")
    rows = np.arange(len(fold))  # an index partitions 0..N-1, so each side comes out sorted
    return [(rows[fold != f], rows[fold == f]) for f in range(k)]


def stratified_holdout(index: DatasetIndex, test_fraction: float, seed: int):
    """Per-class split into (train_rows, test_rows); every class with >= 2
    samples contributes at least one test row."""
    if not 0.0 < test_fraction < 1.0:
        raise ContractError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for members in index.by_class:
        order = rng.permutation(members)
        n_test = int(round(test_fraction * len(members)))
        if len(members) >= 2:
            n_test = min(max(n_test, 1), len(members) - 1)
        else:
            n_test = 0
        test.append(order[:n_test])
        train.append(order[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


# -- embedding diagnostics ------------------------------------------------------

def compactness(embeddings: np.ndarray, labels, center_matrix: np.ndarray):
    """(mean within-class distance to own center, mean pairwise inter-center distance).

    ``embeddings`` is a non-empty ``[N, D]`` matrix with one label in
    ``[0, K)`` per row, and ``center_matrix`` is ``[K, D]``; anything else
    is a ``ContractError``."""
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    matrix = np.asarray(center_matrix, dtype=np.float64)
    if emb.ndim != 2 or labels.shape != emb.shape[:1]:
        raise ContractError(f"embeddings {emb.shape} need one label each, got labels {labels.shape}")
    if not labels.size:
        raise ContractError("compactness needs at least one embedding")
    if matrix.ndim != 2 or matrix.shape[1] != emb.shape[1]:
        raise ContractError(f"centers {matrix.shape} do not match embeddings {emb.shape}")
    k = matrix.shape[0]
    if labels.min() < 0 or labels.max() >= k:
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ContractError(f"label {bad} is out of range for {k} centers")
    within = euclidean_norm(emb - matrix[labels])
    pair_dists = euclidean_cdist(matrix, matrix)[np.triu_indices(k, 1)]
    inter = float(np.mean(pair_dists)) if pair_dists.size else 0.0
    return float(within.mean()), inter


# -- Wilcoxon signed-rank test ----------------------------------------------------

@dataclass
class WilcoxonResult:
    statistic: float  # W+: rank sum of positive differences
    p_value: float
    significant: bool
    n: int
    method: str  # "exact" | "normal" | "undefined"

    @property
    def undefined(self) -> bool:
        return self.method == "undefined"


EXACT_LIMIT = 25


def _signed_midranks(diff: np.ndarray) -> np.ndarray:
    """Midranks of |diff| (average rank across ties)."""
    _, group, counts = np.unique(np.abs(diff), return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1  # 0-based sorted positions of each tie group's ends
    first = last - counts + 1
    return ((first + last) / 2.0 + 1.0)[group]


def _exact_two_sided_p(ranks: np.ndarray, w_plus: float) -> float:
    # Distribution of 2*W+ under random signs, by convolution over the
    # doubled (integral) midranks; equivalent to enumerating all 2^n sign
    # assignments.
    scaled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(scaled.sum())
    dist = np.zeros(total + 1)
    dist[0] = 1.0
    for r in scaled:
        shifted = np.zeros_like(dist)
        shifted[r:] = dist[:total + 1 - r]
        dist = dist + shifted
    dist /= 2.0 ** len(ranks)
    w2 = int(np.rint(2.0 * w_plus))
    p_low = dist[:w2 + 1].sum()
    p_high = dist[w2:].sum()
    return float(min(1.0, 2.0 * min(p_low, p_high)))


def wilcoxon_signed_rank(scores_a, scores_b, alpha: float = 0.05) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test on scores_a - scores_b.

    Every score must be finite.  Zero differences are dropped.  For n <= 25
    the p-value is exact (full sign-assignment distribution, midranks for
    ties); beyond that a normal approximation with tie-corrected variance is
    used.  All-zero differences yield an undefined-test result rather than a
    p-value.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError("paired score vectors must be 1-D and equal length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ContractError("paired scores must be finite")
    diff = a - b
    diff = diff[diff != 0.0]
    if len(diff) == 0:
        return WilcoxonResult(statistic=float("nan"), p_value=float("nan"),
                              significant=False, n=0, method="undefined")
    n = len(diff)
    if n < 5:
        raise ContractError(f"need >= 5 nonzero differences, got {n}")
    ranks = _signed_midranks(diff)
    w_plus = float(ranks[diff > 0].sum())
    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w_plus)
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, counts = np.unique(np.abs(diff), return_counts=True)
        var -= (counts.astype(float) ** 3 - counts).sum() / 48.0
        z = (w_plus - mean) / math.sqrt(var)
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
        method = "normal"
    return WilcoxonResult(statistic=w_plus, p_value=p, significant=p < alpha,
                          n=n, method=method)


# -- fold aggregation --------------------------------------------------------------

@dataclass
class CrossvalSummary:
    """Mean and sample standard deviation of the macro metrics across folds."""

    fold_reports: list
    mf1_mean: float = field(init=False)
    mf1_std: float = field(init=False)
    mcp_mean: float = field(init=False)
    mcp_std: float = field(init=False)
    mcr_mean: float = field(init=False)
    mcr_std: float = field(init=False)

    def __post_init__(self):
        if not self.fold_reports:
            raise ContractError("no fold reports to aggregate")
        for name in ("mf1", "mcp", "mcr"):
            vals = np.array([getattr(r, name) for r in self.fold_reports])
            setattr(self, f"{name}_mean", float(vals.mean()))
            setattr(self, f"{name}_std", float(vals.std(ddof=1)) if len(vals) > 1 else 0.0)

    @property
    def k(self) -> int:
        return len(self.fold_reports)
