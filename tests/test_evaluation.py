"""Wilcoxon signed-rank test, stratified splits and the zero-division conventions."""

import itertools
import math

import numpy as np
import pytest

from tricenter.errors import ContractError
from tricenter.evaluation import (EXACT_LIMIT, macro_metrics, small_class_report,
                                  stratified_holdout, stratified_kfold, wilcoxon_signed_rank)
from tricenter.sampling import DatasetIndex


# -- Wilcoxon signed-rank ---------------------------------------------------------

def enumerated_p(diff) -> float:
    """Two-sided p over all 2^n sign assignments of the midranks of |diff|."""
    abs_diff = np.abs(diff)
    ranks = np.array([np.sum(abs_diff < d) + (np.sum(abs_diff == d) + 1) / 2 for d in abs_diff])
    w_plus = ranks[np.asarray(diff) > 0].sum()
    sums = [sum(r for r, s in zip(ranks, signs) if s)
            for signs in itertools.product((0, 1), repeat=len(ranks))]
    low = sum(s <= w_plus for s in sums) / len(sums)
    high = sum(s >= w_plus for s in sums) / len(sums)
    return min(1.0, 2 * min(low, high))


@pytest.mark.parametrize("diff, w_plus, p", [
    ([1, 2, 3, 4, 5], 15.0, 2 / 32),  # every sign positive: one extreme tail of 32
    ([1, -2, 3, 4, 5, 6], 19.0, 6 / 64),  # W+ <= 2 takes {}, {1}, {2}
], ids=["all_positive", "one_negative"])
def test_exact_path_on_hand_tables(diff, w_plus, p):
    result = wilcoxon_signed_rank(np.array(diff, dtype=float), np.zeros(len(diff)))
    assert result.method == "exact" and result.n == len(diff)
    assert result.statistic == w_plus
    assert result.p_value == pytest.approx(p, abs=1e-15)
    assert result.significant is False


def test_tied_magnitudes_take_midranks_in_the_exact_distribution():
    diff = np.array([1.0, 1.0, 2.0, -2.0, 3.0, -0.5])
    result = wilcoxon_signed_rank(diff, np.zeros(len(diff)))
    # |diff| ranks: 0.5 -> 1, the 1s -> 2.5, the 2s -> 4.5, 3 -> 6
    assert result.method == "exact"
    assert result.statistic == 2.5 + 2.5 + 4.5 + 6
    assert result.p_value == pytest.approx(enumerated_p(diff), abs=1e-15)


def test_normal_path_above_the_exact_limit():
    n = EXACT_LIMIT + 5
    diff = np.arange(1.0, n + 1)
    diff[::3] *= -1
    result = wilcoxon_signed_rank(diff, np.zeros(n))
    w_plus = float(np.arange(1, n + 1)[diff > 0].sum())
    z = (w_plus - n * (n + 1) / 4) / math.sqrt(n * (n + 1) * (2 * n + 1) / 24)
    assert result.method == "normal" and result.statistic == w_plus
    assert result.p_value == pytest.approx(math.erfc(abs(z) / math.sqrt(2)), rel=1e-12)


def test_normal_path_shrinks_the_variance_by_the_tie_term():
    n = EXACT_LIMIT + 5
    diff = np.repeat([1.0, -2.0, 3.0], n // 3)  # three tie groups of 10
    result = wilcoxon_signed_rank(diff, np.zeros(n))
    ranks = np.repeat([5.5, 15.5, 25.5], 10)
    w_plus = float(ranks[diff > 0].sum())
    var = n * (n + 1) * (2 * n + 1) / 24 - 3 * (10 ** 3 - 10) / 48
    z = (w_plus - n * (n + 1) / 4) / math.sqrt(var)
    assert result.method == "normal" and result.statistic == w_plus
    assert result.p_value == pytest.approx(math.erfc(abs(z) / math.sqrt(2)), rel=1e-12)


def test_all_zero_differences_leave_the_test_undefined():
    scores = np.linspace(50.0, 60.0, 7)
    result = wilcoxon_signed_rank(scores, scores.copy())
    assert result.undefined and result.n == 0 and result.significant is False
    assert math.isnan(result.p_value) and math.isnan(result.statistic)


def test_fewer_than_five_nonzero_differences_is_a_contract_error():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = a - np.array([0.5, -1.0, 0.0, 2.0, 0.0, 3.0])  # four nonzero differences
    with pytest.raises(ContractError, match="need >= 5 nonzero differences, got 4"):
        wilcoxon_signed_rank(a, b)


@pytest.mark.parametrize("a, b", [
    ([1.0, 2.0, 3.0, 4.0, 5.0, math.nan], [0.0] * 6),
    ([1.0] * 6, [0.0, 0.0, 0.0, 0.0, 0.0, -math.inf]),
], ids=["nan", "inf"])
def test_non_finite_scores_are_a_contract_error(a, b):
    with pytest.raises(ContractError, match="finite"):
        wilcoxon_signed_rank(a, b)


def test_unpaired_inputs_are_a_contract_error():
    with pytest.raises(ContractError, match="paired"):
        wilcoxon_signed_rank(np.zeros(6), np.zeros(7))


def test_p_values_match_scipy_on_tie_free_samples():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(0)
    for n in [5, 6, 9, 13, 20, EXACT_LIMIT, EXACT_LIMIT + 1, 40, 80]:
        for shift in (0.0, 0.4):
            a = rng.normal(size=n) + shift
            b = rng.normal(size=n)
            ours = wilcoxon_signed_rank(a, b)
            if n <= EXACT_LIMIT:
                theirs = stats.wilcoxon(a, b, method="exact")
            else:
                theirs = stats.wilcoxon(a, b, method="asymptotic", correction=False)
            assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-12, abs=1e-15), (n, shift)


# -- stratified splits ---------------------------------------------------------------

def shuffled_index(sizes, seed) -> DatasetIndex:
    """Classes of the given sizes over shuffled labels."""
    labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
    return DatasetIndex.from_labels(labels, len(sizes))


def assert_kfold_properties(sizes, k, seed):
    index = shuffled_index(sizes, seed)
    folds = stratified_kfold(index, k, seed=seed)
    assert len(folds) == k
    every_row = np.arange(sum(sizes))
    tests = [test for _, test in folds]
    np.testing.assert_array_equal(np.sort(np.concatenate(tests)), every_row)  # disjoint, covering
    for train, test in folds:
        np.testing.assert_array_equal(np.sort(np.concatenate([train, test])), every_row)
    for members in index.by_class:
        per_fold = [np.isin(test, members).sum() for test in tests]
        assert max(per_fold) - min(per_fold) <= 1
    again = stratified_kfold(index, k, seed=seed)
    for (train_a, test_a), (train_b, test_b) in zip(folds, again):
        np.testing.assert_array_equal(train_a, train_b)
        np.testing.assert_array_equal(test_a, test_b)


@pytest.mark.parametrize("sizes, k", [([335, 171, 88, 45, 23, 12, 6], 5), ([1, 0, 7], 3),
                                      ([4, 4], 2), ([2, 9, 3], 6)])
def test_kfold_folds_are_disjoint_covering_balanced_and_seeded(sizes, k):
    assert_kfold_properties(sizes, k, seed=11)


def test_kfold_properties_hold_for_random_class_sizes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.lists(st.integers(0, 15), min_size=1, max_size=6),
                      st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
    def check(sizes, k, seed):
        filled = {(j + c) % k for c, n in enumerate(sizes) for j in range(n)}  # class c starts at fold c
        if len(filled) == k:
            assert_kfold_properties(sizes, k, seed)
        else:
            empty = min(set(range(k)) - filled)
            with pytest.raises(ContractError, match=f"k = {k} leaves fold {empty} with no rows"):
                stratified_kfold(shuffled_index(sizes, seed), k, seed=seed)

    check()


def test_kfold_fills_every_fold_at_k_up_to_the_largest_class_and_refuses_one_more():
    """On skin7-like's sizes, k = 336 once left fold 335 empty, scored MF1 0."""
    sizes = [335, 171, 88, 45, 23, 12, 6]
    assert_kfold_properties(sizes, 335, seed=2)
    with pytest.raises(ContractError) as error:
        stratified_kfold(shuffled_index(sizes, 2), 336, seed=2)
    assert str(error.value) == "k = 336 leaves fold 335 with no rows; the largest class has 335 rows"


def test_kfold_needs_two_folds():
    with pytest.raises(ContractError, match="k must be >= 2"):
        stratified_kfold(shuffled_index([3, 3], 0), 1, seed=0)


@pytest.mark.parametrize("fraction", [0.01, 0.2, 0.5, 0.99])
def test_holdout_gives_every_class_of_two_or_more_rows_a_test_and_a_train_row(fraction):
    sizes = [1, 2, 3, 10, 50]
    index = shuffled_index(sizes, 4)
    train, test = stratified_holdout(index, fraction, seed=4)
    np.testing.assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(sum(sizes)))
    for size, members in zip(sizes, index.by_class):
        n_test = np.isin(test, members).sum()
        if size >= 2:
            assert 1 <= n_test <= size - 1
        else:
            assert n_test == 0


# -- zero-division conventions ---------------------------------------------------------

# Class 2 has true rows but is never predicted; class 3 is neither true nor predicted.
CM = np.array([[3, 1, 0, 0],
               [1, 2, 0, 0],
               [0, 1, 0, 0],
               [0, 0, 0, 0]])


def test_a_zero_denominator_is_coerced_to_zero_and_flagged():
    report = macro_metrics(CM)
    assert report.flagged == [2]
    np.testing.assert_array_equal(report.present, [True, True, True, False])
    np.testing.assert_allclose(report.precision, [75.0, 50.0, 0.0, 0.0])
    np.testing.assert_allclose(report.recall, [75.0, 200 / 3, 0.0, 0.0])
    assert report.mcp == pytest.approx((75 + 50) / 3)
    assert report.mcr == pytest.approx((75 + 200 / 3) / 3)
    assert report.mf1 == pytest.approx((75 + 400 / 7) / 3)  # class 1: 2PR/(P+R) = 4/7


def test_a_predicted_class_without_true_rows_is_flagged():
    report = macro_metrics(np.array([[1, 1], [0, 0]]))
    assert report.flagged == [1] and report.present.all()
    assert report.f1[1] == 0.0 and report.mf1 == pytest.approx(100 / 3)


def test_small_class_report_keeps_the_flags_of_its_classes():
    small = small_class_report(macro_metrics(CM), [50, 50, 1, 1], threshold=20)
    assert small.status == "ok" and small.flagged == [2]
    np.testing.assert_array_equal(small.present, [False, False, True, False])
    assert small.mf1 == 0.0


def test_small_class_report_is_empty_when_no_small_class_is_present():
    # class 3 is small but absent from the confusion matrix
    small = small_class_report(macro_metrics(CM), [50, 50, 50, 1], threshold=20)
    assert small.status == "empty" and not small.present.any()
    assert (small.mf1, small.mcp, small.mcr) == (0.0, 0.0, 0.0)


def test_small_class_report_rejects_sizes_of_another_class_count():
    with pytest.raises(ContractError, match="2 class sizes do not match the report's 4 classes"):
        small_class_report(macro_metrics(CM), [1, 1], threshold=20)
