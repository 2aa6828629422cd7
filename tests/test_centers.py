import numpy as np
import pytest

from tricenter import centers
from tricenter.autodiff import Tensor
from tricenter.centers import CenterTable, compute_centers, embed_all, nearest_center_predict_batch
from tricenter.distance import BLOCK_FLOATS
from tricenter.errors import ContractError
from tricenter.losses import LossHyper, triplet_loss_mean
from tricenter.nn import Adam, FeatureExtractor
from tricenter.sampling import DatasetIndex

from gradcheck import finite_diff_check
from scalar_oracles import nearest_center_predict


def identity_extractor(dim):
    fx = FeatureExtractor([dim, dim], rng=np.random.default_rng(0))
    fx.weights[0].data = np.eye(dim)
    fx.biases[0].data = np.zeros(dim)
    return fx


class TestComputeCenters:
    def test_singleton_class_center_equals_embedding(self):
        fx = FeatureExtractor([3, 4], rng=np.random.default_rng(1))
        features = np.random.default_rng(2).normal(size=(4, 3))
        index = DatasetIndex.from_labels([0, 0, 0, 1])
        table = compute_centers(fx, features, index)
        emb = embed_all(fx, features)
        np.testing.assert_allclose(table.matrix[1], emb[3], atol=1e-12)

    def test_two_sample_midpoint(self):
        fx = identity_extractor(2)
        features = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0]])
        index = DatasetIndex.from_labels([0, 0, 1])
        table = compute_centers(fx, features, index)
        np.testing.assert_allclose(table.matrix[0], [1.0, 1.0], atol=1e-12)

    def test_large_class_matches_compensated_sum_oracle(self):
        import math
        fx = identity_extractor(1)
        rng = np.random.default_rng(3)
        features = rng.normal(size=(1000, 1))
        index = DatasetIndex.from_labels(np.zeros(1000, dtype=int))
        table = compute_centers(fx, features, index)
        oracle = math.fsum(features[:, 0]) / 1000.0
        assert abs(table.matrix[0, 0] - oracle) < 1e-9

    def test_identity_extractor_on_1d_data_gives_class_means(self):
        fx = identity_extractor(1)
        features = np.array([[1.0], [3.0], [10.0], [20.0], [30.0]])
        index = DatasetIndex.from_labels([0, 0, 1, 1, 1])
        table = compute_centers(fx, features, index)
        np.testing.assert_allclose(table.matrix[:, 0], [2.0, 20.0], atol=1e-12)

    def test_empty_class_rejected(self):
        fx = identity_extractor(2)
        index = DatasetIndex.from_labels([0, 0], n_classes=2)
        with pytest.raises(ContractError):
            compute_centers(fx, np.zeros((2, 2)), index)

    def test_chunked_pass_matches_single_pass(self, monkeypatch):
        fx = FeatureExtractor([3, 5], rng=np.random.default_rng(4))
        features = np.random.default_rng(5).normal(size=(40, 3))
        single = embed_all(fx, features)
        monkeypatch.setattr(centers, "FORWARD_CHUNK", 7)
        np.testing.assert_array_equal(embed_all(fx, features), single)


class TestTrainableCenters:
    def test_adam_step_moves_rows(self):
        draws = np.random.default_rng(7).standard_normal((3, 2))
        table = CenterTable(Tensor(draws, requires_grad=True), "trainable")
        before = table.matrix.copy()
        opt = Adam([table.table], 0.01)
        anchor = Tensor(np.array([[5.0, 5.0]]))
        # Row 1 (the anchor-class center) is farther from the anchor than
        # row 0 (the negative center), so the hinge is active and the table
        # gets a nonzero gradient.
        loss = triplet_loss_mean(anchor, table.table.take([1]), table.table.take([0]), LossHyper())
        assert loss.item() > 0
        loss.backward()
        opt.step()
        assert not np.array_equal(table.matrix, before)

    def test_hinge_active_gradient_direction_on_anchor_center(self):
        # d/dc_own ||f_a - c_own|| = (c_own - f_a) / ||c_own - f_a|| when active
        rng = np.random.default_rng(8)
        f_a = rng.normal(size=(1, 4))
        c_own = f_a + np.array([2.0, 0.0, 0.0, 0.0])
        c_neg = f_a + np.array([0.0, 2.1, 0.0, 0.0])  # active: 2 + 0.5 - 2.1 > 0

        def loss_fn(c):
            return triplet_loss_mean(Tensor(f_a), c, Tensor(c_neg), LossHyper())

        assert finite_diff_check(loss_fn, [c_own]) < 1e-6
        c = Tensor(c_own.copy(), requires_grad=True)
        loss_fn(c).backward()
        direction = (c_own - f_a) / np.linalg.norm(c_own - f_a)
        np.testing.assert_allclose(c.grad, direction, atol=1e-10)


class TestNearestCenter:
    def make_table(self, rows):
        return CenterTable(Tensor(np.array(rows, dtype=float)), mode="computed")

    def predict_one(self, x, table):
        labels, dists = nearest_center_predict_batch(np.asarray(x, dtype=float)[None], table)
        return int(labels[0]), dists[0]

    def test_exact_center_hit(self):
        table = self.make_table([[0, 0], [1, 1], [2, 2], [3, 3]])
        cls, dists = self.predict_one(np.array([3.0, 3.0]), table)
        assert cls == 3
        assert dists[3] == 0.0
        assert len(dists) == 4

    def test_tie_breaks_to_smallest_class_id(self):
        table = self.make_table([[9, 9], [1, 0], [5, 5], [9, 0], [-1, 0]])
        cls, _ = self.predict_one(np.array([0.0, 0.0]), table)
        assert cls == 1  # classes 1 and 4 are both at distance 1; smallest id wins

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(9)
        table = self.make_table(rng.normal(size=(6, 5)))
        for _ in range(100):
            x = rng.normal(size=5)
            cls, dists = self.predict_one(x, table)
            brute = np.array([np.linalg.norm(x - row) for row in table.matrix])
            assert cls == int(np.argmin(brute))
            np.testing.assert_allclose(dists, brute, atol=1e-12)

    def test_batch_path_matches_scalar_path(self):
        rng = np.random.default_rng(10)
        table = self.make_table(rng.normal(size=(4, 3)))
        x = rng.normal(size=(20, 3))
        batch_labels, batch_d = nearest_center_predict_batch(x, table)
        for i in range(20):
            cls, dists = nearest_center_predict(x[i], table)
            assert batch_labels[i] == cls
            np.testing.assert_allclose(batch_d[i], dists, atol=1e-12)

    def test_more_rows_than_one_block_equal_the_naive_argmin(self):
        rng = np.random.default_rng(13)
        table = self.make_table(rng.normal(size=(7, 128)))
        x = rng.normal(size=(1000, 128))  # about 7 blocks of BLOCK_FLOATS // (7 * 128) rows
        assert x.shape[0] > BLOCK_FLOATS // table.matrix.size
        naive = (np.abs(x[:, None, :] - table.matrix[None, :, :]) ** 2).sum(axis=2) ** 0.5
        labels, dists = nearest_center_predict_batch(x, table)
        assert dists.tobytes() == naive.tobytes()
        np.testing.assert_array_equal(labels, naive.argmin(axis=1))

    def test_translation_invariance_of_argmin(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(5, 3))
        x = rng.normal(size=3)
        shift = rng.normal(size=3)
        a, _ = self.predict_one(x, self.make_table(rows))
        b, _ = self.predict_one(x + shift, self.make_table(rows + shift))
        assert a == b

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(5, 3))
        x = rng.normal(size=3)
        a, _ = self.predict_one(x, self.make_table(rows))
        b, _ = self.predict_one(3.7 * x, self.make_table(3.7 * rows))
        assert a == b
