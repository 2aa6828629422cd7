import numpy as np
import pytest

from tricenter.errors import ContractError
from tricenter.losses import LossHyper
from tricenter.sampling import (BatchPlan, DatasetIndex, build_balanced_batch,
                                flat_batch_plans, form_center_pairs,
                                form_center_triplets, form_pairs,
                                form_quadruplets, form_triplets,
                                oversample_indices)

H = LossHyper()


def make_index(sizes):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return DatasetIndex.from_labels(labels), labels


class TestDatasetIndex:
    def test_from_labels_partitions(self):
        index, labels = make_index([3, 2, 4])
        assert index.n_classes == 3
        assert list(index.sizes) == [3, 2, 4]
        assert index.n_samples == 9

    def test_duplicate_membership_rejected(self):
        with pytest.raises(ContractError):
            DatasetIndex([[0, 1], [1, 2]])

    def test_empty_class_flagged(self):
        index = DatasetIndex.from_labels([0, 0, 2, 2], n_classes=3)
        with pytest.raises(ContractError):
            index.require_nonempty_classes()


class TestBalancedBatch:
    def test_exact_counts_per_class(self):
        index, _ = make_index([50, 5, 30])
        plan = build_balanced_batch(index, 10, np.random.default_rng(0))
        assert len(plan) == 30
        counts = np.bincount(plan.labels, minlength=3)
        np.testing.assert_array_equal(counts, [10, 10, 10])

    def test_singleton_class_repeats_with_replacement(self):
        index, _ = make_index([4, 1])
        plan = build_balanced_batch(index, 5, np.random.default_rng(1))
        class1 = plan.indices[plan.labels == 1]
        assert len(class1) == 5
        assert len(np.unique(class1)) == 1

    def test_large_class_sampled_without_replacement(self):
        index, _ = make_index([30, 30])
        plan = build_balanced_batch(index, 10, np.random.default_rng(2))
        for c in (0, 1):
            rows = plan.indices[plan.labels == c]
            assert len(np.unique(rows)) == 10

    def test_anchor_histogram_exactly_uniform_over_many_batches(self):
        index, _ = make_index([580, 10, 40])
        rng = np.random.default_rng(3)
        for _ in range(200):
            plan = build_balanced_batch(index, 4, rng)
            np.testing.assert_array_equal(np.bincount(plan.labels, minlength=3), [4, 4, 4])

    def test_empty_class_rejected(self):
        index = DatasetIndex.from_labels([0, 0, 2, 2], n_classes=3)
        with pytest.raises(ContractError):
            build_balanced_batch(index, 2, np.random.default_rng(0))

    def test_labels_match_indices(self):
        index, labels = make_index([7, 9, 3])
        plan = build_balanced_batch(index, 6, np.random.default_rng(4))
        np.testing.assert_array_equal(labels[plan.indices], plan.labels)


def two_by_two_plan():
    # 2 classes x 2 slots
    return BatchPlan(indices=np.array([0, 1, 2, 3]), labels=np.array([0, 0, 1, 1]),
                     stage="balanced", m_per_class=2)


class TestFormTriplets:
    def test_one_triplet_per_anchor_random(self):
        plan = two_by_two_plan()
        emb = np.random.default_rng(0).normal(size=(4, 3))
        triplets = form_triplets(plan, emb, "random", H, np.random.default_rng(1))
        assert len(triplets) == 4
        assert triplets[:, 0].tolist() == [0, 1, 2, 3]
        for anchor, positive, negative in triplets:
            assert plan.labels[anchor] == plan.labels[positive]
            assert anchor != positive
            assert plan.labels[anchor] != plan.labels[negative]

    def test_singleton_class_anchor_skipped(self):
        plan = BatchPlan(indices=np.arange(3), labels=np.array([0, 0, 1]),
                         stage="balanced", m_per_class=1)
        emb = np.random.default_rng(0).normal(size=(3, 2))
        triplets = form_triplets(plan, emb, "random", H, np.random.default_rng(0))
        assert triplets[:, 0].tolist() == [0, 1]

    def test_semi_hard_selects_the_single_band_negative(self):
        # anchor 0 with positive at distance 1; negatives at 1.2 (band) and 5 (outside)
        plan = BatchPlan(indices=np.arange(4), labels=np.array([0, 0, 1, 1]),
                         stage="balanced", m_per_class=2)
        emb = np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 0.0], [5.0, 0.0]])
        hyper = LossHyper(alpha=0.5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            triplets = form_triplets(plan, emb, "random_hard", hyper, rng)
            anchor0 = triplets[triplets[:, 0] == 0][0]
            assert anchor0[2] == 2

    def test_fully_separated_falls_back_to_hardest(self):
        plan = BatchPlan(indices=np.arange(4), labels=np.array([0, 0, 1, 1]),
                         stage="balanced", m_per_class=2)
        # both negatives beyond d_ap + alpha; hardest (closest) is slot 2
        emb = np.array([[0.0, 0.0], [0.1, 0.0], [3.0, 0.0], [9.0, 0.0]])
        rng = np.random.default_rng(0)
        triplets = form_triplets(plan, emb, "random_hard", LossHyper(alpha=0.5), rng)
        anchor0 = triplets[triplets[:, 0] == 0][0]
        # brute-force oracle: semi-hard band empty -> argmin distance among negatives
        d = np.linalg.norm(emb[0] - emb[2:], axis=1)
        assert anchor0[2] == 2 + int(np.argmin(d))

    def test_single_class_batch_rejected(self):
        plan = BatchPlan(indices=np.arange(4), labels=np.zeros(4, dtype=int),
                         stage="balanced", m_per_class=4)
        with pytest.raises(ContractError):
            form_triplets(plan, np.zeros((4, 2)), "random", H, np.random.default_rng(0))


class TestFormCenterTriplets:
    def test_anchor_at_center_with_far_negatives_yields_nothing(self):
        plan = BatchPlan(indices=np.array([0]), labels=np.array([0]), stage="flat", batch_size=1)
        emb = np.array([[0.0, 0.0]])
        centers = np.array([[0.0, 0.0], [9.0, 0.0]])
        assert form_center_triplets(plan, emb, centers, H).shape == (0, 3)

    def test_single_close_center_qualifies(self):
        plan = BatchPlan(indices=np.array([0]), labels=np.array([0]), stage="flat", batch_size=1)
        emb = np.array([[0.0, 0.0]])
        centers = np.array([[0.0, 0.0], [0.25, 0.0], [9.0, 0.0]])
        units = form_center_triplets(plan, emb, centers, H)
        assert units.tolist() == [[0, 0, 1]]  # anchor slot, own class, negative class

    def test_matches_brute_force_on_random_geometry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = rng.integers(2, 8)
            d = rng.integers(2, 10)
            b = rng.integers(1, 12)
            labels = rng.integers(0, k, size=b)
            emb = rng.normal(size=(b, d))
            centers = rng.normal(size=(k, d))
            plan = BatchPlan(indices=np.arange(b), labels=labels, stage="flat", batch_size=b)
            got = {tuple(u) for u in form_center_triplets(plan, emb, centers, H).tolist()}
            expected = set()
            for i in range(b):
                own = np.linalg.norm(emb[i] - centers[labels[i]])
                for c in range(k):
                    if c == labels[i]:
                        continue
                    if own + H.alpha - np.linalg.norm(emb[i] - centers[c]) > 0:
                        expected.add((i, labels[i], c))
            assert got == expected


class TestFormPairs:
    def test_counts_and_labels(self):
        plan = two_by_two_plan()
        pairs = form_pairs(plan, np.random.default_rng(0))
        assert len(pairs) == 8
        assert (pairs[:, 2] == 1).sum() == 4 and (pairs[:, 2] == 0).sum() == 4
        for a, b, same in pairs:
            assert same == (plan.labels[a] == plan.labels[b])

    def test_singleton_class_gets_only_cross_pairs(self):
        plan = BatchPlan(indices=np.arange(3), labels=np.array([0, 0, 1]),
                         stage="balanced", m_per_class=1)
        pairs = form_pairs(plan, np.random.default_rng(0))
        for a, _, same in pairs:
            if a == 2:
                assert not same

    def test_membership_oracle_on_random_batches(self):
        rng = np.random.default_rng(7)
        index, labels = make_index([20, 8, 5])
        for _ in range(20):
            plan = build_balanced_batch(index, 4, rng)
            for a, b, same in form_pairs(plan, rng):
                assert same == (labels[plan.indices[a]] == labels[plan.indices[b]])


class TestFormQuadruplets:
    def test_counts_three_classes(self):
        plan = BatchPlan(indices=np.arange(6), labels=np.array([0, 0, 1, 1, 2, 2]),
                         stage="balanced", m_per_class=2)
        quads = form_quadruplets(plan, np.random.default_rng(0))
        assert len(quads) == 6

    def test_class_distinctness(self):
        plan = BatchPlan(indices=np.arange(9), labels=np.repeat([0, 1, 2], 3),
                         stage="balanced", m_per_class=3)
        rng = np.random.default_rng(1)
        for _ in range(30):
            for anchor, positive, n1, n2 in form_quadruplets(plan, rng):
                la = plan.labels[anchor]
                l1, l2 = plan.labels[n1], plan.labels[n2]
                assert plan.labels[positive] == la
                assert l1 != la and l2 != la and l1 != l2

    def test_two_classes_rejected(self):
        plan = two_by_two_plan()
        with pytest.raises(ContractError):
            form_quadruplets(plan, np.random.default_rng(0))

    def test_negative_class_pairs_uniform_chi_square(self):
        # anchor class 0; ordered pairs over classes {1,2,3}: 6 cells, df=5.
        plan = BatchPlan(indices=np.arange(8), labels=np.array([0, 0, 1, 1, 2, 2, 3, 3]),
                         stage="balanced", m_per_class=2)
        rng = np.random.default_rng(123)
        counts = {}
        draws = 0
        for _ in range(1250):
            for anchor, _, n1, n2 in form_quadruplets(plan, rng):
                if plan.labels[anchor] != 0:
                    continue
                key = (int(plan.labels[n1]), int(plan.labels[n2]))
                counts[key] = counts.get(key, 0) + 1
                draws += 1
        assert draws >= 2000
        expected = draws / 6.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert len(counts) == 6
        assert chi2 < 15.086  # chi-square critical value, df=5, p=0.01


class TestCenterPairs:
    def test_own_center_always_included_and_negatives_by_margin(self):
        plan = BatchPlan(indices=np.array([0]), labels=np.array([0]), stage="flat", batch_size=1)
        emb = np.array([[0.0, 0.0]])
        centers = np.array([[1.0, 0.0], [0.3, 0.0], [2.0, 0.0]])
        units = form_center_pairs(plan, emb, centers, H).tolist()
        assert [0, 0, 1] in units  # own center, same = 1
        assert [0, 1, 0] in units  # distance 0.3 < alpha
        assert [0, 2, 0] not in units  # distance 2 > alpha


class TestOversample:
    def test_balanced_input_keeps_counts(self):
        index, labels = make_index([10, 10])
        stream = oversample_indices(index, np.random.default_rng(0))
        counts = np.bincount(labels[stream], minlength=2)
        np.testing.assert_array_equal(counts, [10, 10])

    def test_forced_counts_on_imbalanced_input(self):
        index, labels = make_index([100, 2])
        stream = oversample_indices(index, np.random.default_rng(1))
        assert len(stream) == 200
        counts = np.bincount(labels[stream], minlength=2)
        np.testing.assert_array_equal(counts, [100, 100])

    def test_empirical_frequency_uniform_over_epochs(self):
        index, labels = make_index([60, 9, 3])
        rng = np.random.default_rng(2)
        totals = np.zeros(3)
        for _ in range(50):
            stream = oversample_indices(index, rng)
            totals += np.bincount(labels[stream], minlength=3)
        freq = totals / totals.sum()
        np.testing.assert_allclose(freq, [1 / 3] * 3, atol=0.01)


class TestFlatBatches:
    def test_cover_every_sample_once(self):
        labels = np.repeat([0, 1, 2], [9, 5, 2])
        plans = flat_batch_plans(labels, 4, np.random.default_rng(0))
        seen = np.concatenate([p.indices for p in plans])
        assert sorted(seen.tolist()) == list(range(16))
        assert all(len(p) <= 4 for p in plans)


def test_seeded_determinism_of_samplers():
    index, _ = make_index([20, 10, 5])
    a = build_balanced_batch(index, 6, np.random.default_rng(42))
    b = build_balanced_batch(index, 6, np.random.default_rng(42))
    np.testing.assert_array_equal(a.indices, b.indices)
    emb = np.random.default_rng(0).normal(size=(18, 4))
    ta = form_triplets(a, emb, "random_hard", H, np.random.default_rng(7))
    tb = form_triplets(b, emb, "random_hard", H, np.random.default_rng(7))
    np.testing.assert_array_equal(ta, tb)
