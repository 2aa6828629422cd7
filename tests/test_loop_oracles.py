"""Loop forms of the class index, macro metrics, k-fold split and midranks.

The package computes each of these with array code: one stable argsort for
the class index, masked divisions for the metrics, one fold array for the
split and ``np.unique`` tie groups for the midranks.  The oracles below are
the per-class, per-row and per-tie-group loops they replaced, written as the
definitions read; the array code must match them exactly over seeded random
inputs, with absent classes, zero denominators, tied magnitudes, up to 50
classes and empty label arrays.
"""

import numpy as np
import pytest

from tricenter.errors import ContractError
from tricenter.evaluation import (MetricsReport, _signed_midranks, macro_metrics,
                                  small_class_report, stratified_kfold)
from tricenter.sampling import DatasetIndex


def index_oracle(labels, k):
    """The rows of each class, one pass over the labels per class."""
    return [np.flatnonzero(labels == c) for c in range(k)]


def macro_oracle(cm) -> MetricsReport:
    """Per-class P/R/F1 one class at a time; means of fractions, then x100.
    The status is "empty" exactly when no class is present."""
    tp = np.diag(cm).astype(float)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    present = (cm.sum(axis=1) + cm.sum(axis=0)) > 0
    k = cm.shape[0]
    precision, recall, f1, flagged = np.zeros(k), np.zeros(k), np.zeros(k), []
    for c in range(k):
        if not present[c]:
            continue
        denom_p, denom_r = tp[c] + fp[c], tp[c] + fn[c]
        if denom_p == 0 or denom_r == 0:
            flagged.append(c)
        precision[c] = tp[c] / denom_p if denom_p else 0.0
        recall[c] = tp[c] / denom_r if denom_r else 0.0
        pr = precision[c] + recall[c]
        f1[c] = 2.0 * precision[c] * recall[c] / pr if pr else 0.0
    if not present.any():
        return MetricsReport(precision * 100.0, recall * 100.0, f1 * 100.0, present, flagged,
                             0.0, 0.0, 0.0, status="empty")
    return MetricsReport(precision * 100.0, recall * 100.0, f1 * 100.0, present, flagged,
                         mcp=float(precision[present].mean()) * 100.0,
                         mcr=float(recall[present].mean()) * 100.0,
                         mf1=float(f1[present].mean()) * 100.0)


def small_oracle(report: MetricsReport, sizes, threshold) -> MetricsReport:
    """The classes of at most ``threshold`` rows; means of the percent values."""
    small = np.asarray(sizes) <= threshold
    present = report.present & small
    if not present.any():
        return MetricsReport(report.precision, report.recall, report.f1, present, [],
                             0.0, 0.0, 0.0, status="empty")
    return MetricsReport(report.precision, report.recall, report.f1, present,
                         [c for c in report.flagged if small[c]],
                         mcp=float(report.precision[present].mean()),
                         mcr=float(report.recall[present].mean()),
                         mf1=float(report.f1[present].mean()))


def kfold_oracle(by_class, k, seed):
    """Deal each class's permuted rows to folds one row at a time, rotated by class."""
    rng = np.random.default_rng(seed)
    assignments = [[] for _ in range(k)]
    for c, members in enumerate(by_class):
        for pos, row in enumerate(rng.permutation(members)):
            assignments[(pos + c) % k].append(row)
    all_rows = np.concatenate(by_class) if by_class else np.array([], dtype=np.intp)
    folds = []
    for f in range(k):
        test = np.sort(np.array(assignments[f], dtype=np.intp))
        folds.append((np.sort(np.setdiff1d(all_rows, test)), test))
    return folds


def midranks_oracle(diff):
    """Average 1-based rank of each |diff| across its run of equal sorted values."""
    order = np.argsort(np.abs(diff), kind="stable")
    sorted_abs = np.abs(diff)[order]
    ranks = np.empty(len(diff))
    i = 0
    while i < len(diff):
        j = i
        while j + 1 < len(diff) and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def random_labels(rng, k, n):
    """``n`` labels below ``k`` with about a third of the classes never drawn."""
    if n == 0:
        return np.array([], dtype=np.intp)
    drawn = np.flatnonzero(rng.random(k) < 0.67)
    drawn = drawn if drawn.size else np.array([k - 1])
    return rng.choice(drawn, size=n).astype(np.intp)


CASES = [(seed, k, n) for seed, (k, n) in enumerate(
    [(1, 0), (3, 0), (1, 1), (2, 7), (5, 40), (7, 680), (12, 90), (30, 300), (50, 50),
     (50, 1000), (17, 3), (4, 200)])]


def assert_reports_equal(got: MetricsReport, want: MetricsReport):
    for name in ("precision", "recall", "f1", "present"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.flagged == want.flagged
    assert (got.mcp, got.mcr, got.mf1, got.status) == (want.mcp, want.mcr, want.mf1, want.status)


@pytest.mark.parametrize("seed, k, n", CASES)
def test_from_labels_matches_one_pass_per_class(seed, k, n):
    labels = random_labels(np.random.default_rng(seed), k, n)
    for n_classes in (None, k, k + 3):
        k_want = n_classes if n_classes is not None else int(labels.max(initial=-1)) + 1
        if k_want > n and n_classes is None:
            continue  # more classes than rows; a ContractError, tested with the K rules
        index = DatasetIndex.from_labels(labels, n_classes)
        want = index_oracle(labels, k_want)
        assert index.n_classes == len(want)
        for got_rows, want_rows in zip(index.by_class, want):
            assert got_rows.dtype == np.intp
            np.testing.assert_array_equal(got_rows, want_rows)
        np.testing.assert_array_equal(index.sizes, [len(rows) for rows in want])


@pytest.mark.parametrize("seed, k, n", CASES)
def test_macro_and_small_class_reports_match_the_class_loop(seed, k, n):
    rng = np.random.default_rng(seed)
    true = random_labels(rng, k, n)
    # mostly right, some predictions at random, a few classes never predicted
    predicted = np.where(rng.random(n) < 0.6, true, rng.integers(0, k, size=n))
    predicted[np.isin(predicted, rng.choice(k, size=k // 4, replace=False))] = k - 1
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (true, predicted), 1)
    report, want = macro_metrics(cm), macro_oracle(cm)
    assert_reports_equal(report, want)
    sizes = rng.integers(0, 40, size=k)
    for threshold in (1, 5, 20, 100):
        assert_reports_equal(small_class_report(report, sizes, threshold),
                             small_oracle(want, sizes, threshold))


@pytest.mark.parametrize("seed, k, n", CASES)
def test_stratified_kfold_matches_the_row_loop(seed, k, n):
    index = DatasetIndex.from_labels(random_labels(np.random.default_rng(seed), k, n), k)
    for folds in (2, 3, 5, 7):
        want = kfold_oracle(index.by_class, folds, seed)
        empty = [f for f, (_, test) in enumerate(want) if test.size == 0]
        if empty:  # a fold the loop deals no row is refused
            with pytest.raises(ContractError, match=f"k = {folds} leaves fold {empty[0]} with no rows"):
                stratified_kfold(index, folds, seed=seed)
            continue
        for (train, test), (want_train, want_test) in zip(
                stratified_kfold(index, folds, seed=seed), want, strict=True):
            assert train.dtype == test.dtype == np.intp
            np.testing.assert_array_equal(train, want_train)
            np.testing.assert_array_equal(test, want_test)


@pytest.mark.parametrize("seed", range(8))
def test_signed_midranks_match_the_tie_group_loop(seed):
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 5, 13, 25, 60):
        # half-integer magnitudes from a small range: many tie groups, both signs
        diff = rng.integers(-6, 7, size=n) * 0.5 + (seed % 2) * rng.normal(size=n)
        got = _signed_midranks(diff)
        want = midranks_oracle(diff)
        assert got.shape == want.shape
        assert (got == want).all()
