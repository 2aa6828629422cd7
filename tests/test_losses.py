import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricenter.autodiff import Tensor
from tricenter.errors import ContractError, ShapeError
from tricenter.losses import (LossHyper, cross_entropy_mean, inverse_frequency_weights,
                              distance_rows, pairwise_loss_mean, quadruplet_loss_mean,
                              triplet_loss_mean)

from gradcheck import HingeKinkError, finite_diff_check
from scalar_oracles import (batch_mean, center_pairwise_loss, center_quadruplet_loss,
                            center_triplet_loss, cross_entropy, focal_loss, euclidean_distance,
                            pairwise_loss, quadruplet_loss, triplet_loss)

H = LossHyper()  # alpha 0.5, beta 0.25
TOL = 1e-9


def t(*values):
    return Tensor(np.array(values, dtype=float))


def vec_strategy(dim=4):
    return st.lists(st.floats(-5, 5, allow_nan=False), min_size=dim, max_size=dim)


class TestLpDistance:
    def test_zero_for_equal_vectors(self):
        assert euclidean_distance(t(1.0, 2.0), t(1.0, 2.0)).item() == 0.0

    def test_pythagorean(self):
        assert abs(euclidean_distance(t(0.0, 0.0), t(3.0, 4.0)).item() - 5.0) < TOL

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            euclidean_distance(t(1.0), t(1.0, 2.0))

    def test_zero_coordinate_is_not_a_kink(self):
        # x - y = (2, 0, 0): t^2 is smooth at t = 0, so the distance is
        # differentiable here and the zero coordinates get gradient 0.
        x0 = np.array([3.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0])
        err = finite_diff_check(lambda x: euclidean_distance(x, Tensor(y)), [x0])
        assert err < 1e-8
        x = Tensor(x0.copy(), requires_grad=True)
        euclidean_distance(x, Tensor(y)).backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0], atol=1e-12)


class TestTripletLoss:
    def test_satisfied_margin_is_zero(self):
        assert triplet_loss(t(0, 0), t(0, 0), t(1, 0), H).item() == 0.0

    def test_all_equal_gives_alpha(self):
        assert abs(triplet_loss(t(1, 2), t(1, 2), t(1, 2), H).item() - 0.5) < TOL

    def test_arithmetic_example(self):
        # d_ap 1, d_an 1 -> 1 + 0.5 - 1
        v = triplet_loss(t(0, 0), t(1, 0), t(0, 1), H).item()
        assert abs(v - 0.5) < TOL


class TestCenterTripletLoss:
    def test_anchor_at_center_far_negative(self):
        assert center_triplet_loss(t(0, 0), t(0, 0), t(1, 0), H).item() == 0.0

    def test_degenerate_coincidence_gives_alpha(self):
        v = center_triplet_loss(t(0, 0), t(0, 0), t(0, 0), H).item()
        assert abs(v - 0.5) < TOL

    def test_arithmetic_example(self):
        v = center_triplet_loss(t(0, 0), t(2, 0), t(0, 1), H).item()
        assert abs(v - 1.5) < TOL

    def test_same_class_rejected(self):
        with pytest.raises(ContractError):
            center_triplet_loss(t(0, 0), t(1, 0), t(0, 1), H, anchor_class=3, neg_class=3)


class TestPairwiseLoss:
    def test_same_class_equal_vectors(self):
        assert pairwise_loss(t(1, 1), t(1, 1), True, H).item() == 0.0

    def test_different_class_beyond_margin(self):
        assert pairwise_loss(t(0, 0), t(3, 0), False, H).item() == 0.0

    def test_different_class_inside_margin(self):
        v = pairwise_loss(t(0, 0), t(0.2, 0.0), False, H).item()
        assert abs(v - 0.3) < TOL


class TestQuadrupletLoss:
    def test_all_identical_gives_alpha_plus_beta(self):
        v = quadruplet_loss(t(1, 1), t(1, 1), t(1, 1), t(1, 1), H).item()
        assert abs(v - 0.75) < TOL

    def test_both_hinges_inactive(self):
        v = quadruplet_loss(t(0, 0), t(0, 0), t(2, 0), t(-2, 0), H).item()
        assert v == 0.0

    def test_arithmetic_example(self):
        v = quadruplet_loss(t(0, 0), t(1, 0), t(0, 1), t(0, -1), LossHyper(beta=0.25)).item()
        assert abs(v - 0.5) < TOL

    def test_margin_ordering_enforced(self):
        with pytest.raises(ContractError):
            quadruplet_loss(t(0, 0), t(1, 0), t(0, 1), t(0, -1), LossHyper(alpha=0.2, beta=0.5))

    def test_class_distinctness_enforced(self):
        with pytest.raises(ContractError):
            quadruplet_loss(t(0, 0), t(1, 0), t(0, 1), t(0, -1), H, classes=(0, 1, 1))

    def test_quadruplet_reduces_to_triplet_with_disabled_second_term(self):
        rng = np.random.default_rng(0)
        hyper = LossHyper(alpha=0.5, beta=-1e9)
        for _ in range(20):
            a, p, n1, n2 = (t(*rng.normal(size=3)) for _ in range(4))
            q = quadruplet_loss(a, p, n1, n2, hyper).item()
            tr = triplet_loss(a, p, n1, H).item()
            assert abs(q - tr) < 1e-12


class TestCenterPairwise:
    def test_same_class_at_center(self):
        assert center_pairwise_loss(t(2, 2), t(2, 2), True, H).item() == 0.0

    def test_different_class_exactly_at_margin(self):
        assert center_pairwise_loss(t(0, 0), t(0.5, 0.0), False, H).item() == 0.0

    def test_arithmetic_example(self):
        v = center_pairwise_loss(t(0, 0), t(0.1, 0.0), False, H).item()
        assert abs(v - 0.4) < TOL


class TestCenterQuadruplet:
    def test_anchor_at_center_inactive(self):
        v = center_quadruplet_loss(t(0, 0), t(0, 0), t(2, 0), t(-2, 0), H).item()
        assert v == 0.0

    def test_all_centers_on_anchor(self):
        v = center_quadruplet_loss(t(3, 1), t(3, 1), t(3, 1), t(3, 1), H).item()
        assert abs(v - 0.75) < TOL

    def test_concrete_instance_matches_arithmetic_oracle(self):
        a, cp, cn1, cn2 = (0.0, 0.0), (1.0, 0.0), (0.0, 1.2), (0.0, -1.0)
        d = lambda u, v: math.dist(u, v)
        expected = max(0.0, d(a, cp) + 0.5 - d(a, cn1)) + max(0.0, d(a, cp) + 0.25 - d(cn1, cn2))
        v = center_quadruplet_loss(t(*a), t(*cp), t(*cn1), t(*cn2), H).item()
        assert abs(v - expected) < TOL


class TestCrossEntropy:
    def test_uniform_two_class(self):
        v = cross_entropy(t(0.3, 0.3), 0).item()
        assert abs(v - math.log(2)) < TOL

    def test_monotone_decreasing_in_true_logit(self):
        gaps = [0.0, 1.0, 3.0, 10.0, 30.0]
        values = [cross_entropy(t(g, 0.0), 0).item() for g in gaps]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12

    def test_weighted_example(self):
        v = cross_entropy(t(1.0, 0.0), 0, weights=[2.0, 1.0]).item()
        assert abs(v - 2.0 * math.log(1.0 + math.exp(-1.0))) < TOL

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(t(1.0, 0.0), 2)


class TestFocalLoss:
    def test_gamma_zero_equals_cross_entropy(self):
        logits = t(0.7, -0.3, 1.1)
        w = [1.5, 1.0, 0.5]
        for label in range(3):
            a = focal_loss(logits, label, gamma=0.0, weights=w).item()
            b = cross_entropy(logits, label, weights=w).item()
            assert abs(a - b) < 1e-12

    def test_limit_confident_prediction_vanishes(self):
        assert focal_loss(t(40.0, 0.0), 0, gamma=2.0).item() < 1e-12

    def test_half_probability_example(self):
        v = focal_loss(t(0.0, 0.0), 0, gamma=2.0).item()
        assert abs(v - 0.25 * math.log(2)) < TOL


class TestBatchMean:
    def test_singleton(self):
        assert batch_mean([t(3.5)]).item() == 3.5

    def test_two_values(self):
        assert abs(batch_mean([t(0.0), t(1.0)]).item() - 0.5) < TOL

    def test_hundred_random_values_match_fsum_oracle(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=100)
        expected = math.fsum(values) / 100.0
        got = batch_mean([t(v) for v in values]).item()
        assert abs(got - expected) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            batch_mean([])


def test_inverse_frequency_weights_oracle():
    # N=10, K=3: w_k = 10 / (3 * N_k)
    w = inverse_frequency_weights([2, 3, 5])
    np.testing.assert_allclose(w, [10 / 6, 10 / 9, 10 / 15], rtol=1e-12)
    sizes = np.array([2, 3, 5])
    assert abs((w * sizes).sum() / sizes.sum() - 1.0) < 1e-12


# -- properties ---------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(vec_strategy(), vec_strategy(), vec_strategy())
def test_triplet_nonnegative_and_hinge_condition(a, p, n):
    fa, fp, fn = t(*a), t(*p), t(*n)
    v = triplet_loss(fa, fp, fn, H).item()
    assert v >= 0.0
    d_ap = euclidean_distance(fa, fp).item()
    d_an = euclidean_distance(fa, fn).item()
    if d_an >= d_ap + H.alpha:
        assert v == 0.0
    else:
        assert v > 0.0


@settings(max_examples=40, deadline=None)
@given(vec_strategy(), vec_strategy(), st.booleans())
def test_pairwise_nonnegative(a, b, same):
    assert pairwise_loss(t(*a), t(*b), same, H).item() >= 0.0


@settings(max_examples=40, deadline=None)
@given(vec_strategy(), vec_strategy(), vec_strategy(), vec_strategy())
def test_translation_invariance(a, p, n, shift):
    base = triplet_loss(t(*a), t(*p), t(*n), H).item()
    sa = t(*(np.array(a) + np.array(shift)))
    sp = t(*(np.array(p) + np.array(shift)))
    sn = t(*(np.array(n) + np.array(shift)))
    shifted = triplet_loss(sa, sp, sn, H).item()
    assert abs(base - shifted) < 1e-12


# -- batched forms agree with unit losses --------------------------------------

def rows(values, ids):
    """One tensor per id column of ``ids``, gathered from ``values``."""
    return [Tensor(values).take(col) for col in np.asarray(ids).T]


def test_triplet_mean_equals_unit_batch_mean():
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(10, 6))
    trips = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (1, 0, 9)]
    batched = triplet_loss_mean(*rows(emb, trips), H).item()
    units = [triplet_loss(Tensor(emb[a]), Tensor(emb[p]), Tensor(emb[n]), H)
             for a, p, n in trips]
    assert abs(batched - batch_mean(units).item()) < 1e-12


def test_pairwise_mean_equals_unit_batch_mean():
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(8, 5))
    pairs = np.array([(0, 1, 1), (2, 3, 0), (4, 5, 0), (6, 7, 1)])
    batched = pairwise_loss_mean(*rows(emb, pairs[:, :2]), pairs[:, 2], H).item()
    units = [pairwise_loss(Tensor(emb[a]), Tensor(emb[b]), bool(same), H)
             for a, b, same in pairs]
    assert abs(batched - batch_mean(units).item()) < 1e-12


def test_quadruplet_mean_equals_unit_batch_mean():
    rng = np.random.default_rng(6)
    emb = rng.normal(size=(9, 4))
    quads = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 0, 1, 2)]
    batched = quadruplet_loss_mean(*rows(emb, quads), H).item()
    units = [quadruplet_loss(Tensor(emb[a]), Tensor(emb[p]), Tensor(emb[n1]), Tensor(emb[n2]), H)
             for a, p, n1, n2 in quads]
    assert abs(batched - batch_mean(units).item()) < 1e-12


def test_center_means_equal_unit_batch_means():
    # Stage 2 feeds the family losses an anchor row and center rows gathered
    # by class id: [anchor slot, own class, negative class(es)], and
    # [anchor slot, class, same] for pairs.
    rng = np.random.default_rng(7)
    emb, table = rng.normal(size=(5, 4)), rng.normal(size=(4, 4))
    slots = np.arange(5)
    own, neg, neg2 = np.array([0, 1, 2, 3, 0]), np.array([1, 2, 3, 0, 2]), np.array([2, 3, 0, 1, 3])
    same = np.array([1, 0, 1, 0, 0])
    anchors = Tensor(emb).take(slots)

    def center(ids):
        return Tensor(table).take(ids)

    batched = triplet_loss_mean(anchors, center(own), center(neg), H).item()
    units = [center_triplet_loss(Tensor(emb[i]), Tensor(table[own[i]]), Tensor(table[neg[i]]), H,
                                 anchor_class=own[i], neg_class=neg[i]) for i in slots]
    assert abs(batched - batch_mean(units).item()) < 1e-12

    partner = np.where(same == 1, own, neg)
    batched = pairwise_loss_mean(anchors, center(partner), same, H).item()
    units = [center_pairwise_loss(Tensor(emb[i]), Tensor(table[partner[i]]), bool(same[i]), H)
             for i in slots]
    assert abs(batched - batch_mean(units).item()) < 1e-12

    batched = quadruplet_loss_mean(anchors, center(own), center(neg), center(neg2), H).item()
    units = [center_quadruplet_loss(Tensor(emb[i]), Tensor(table[own[i]]), Tensor(table[neg[i]]),
                                    Tensor(table[neg2[i]]), H, classes=(own[i], neg[i], neg2[i]))
             for i in slots]
    assert abs(batched - batch_mean(units).item()) < 1e-12


def test_an_empty_unit_batch_is_a_contract_error():
    empty = Tensor(np.zeros((0, 3)))
    for call in (lambda: triplet_loss_mean(empty, empty, empty, H),
                 lambda: pairwise_loss_mean(empty, empty, np.zeros(0), H),
                 lambda: quadruplet_loss_mean(empty, empty, empty, empty, H)):
        with pytest.raises(ContractError, match="no units"):
            call()


def test_cross_entropy_mean_equals_unit_batch_mean():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 4, size=6)
    w = rng.uniform(0.5, 2.0, size=4)
    batched = cross_entropy_mean(logits, labels, weights=w).item()
    units = [cross_entropy(Tensor(logits.data[i]), int(labels[i]), weights=w) for i in range(6)]
    assert abs(batched - batch_mean(units).item()) < 1e-12
    batched_f = cross_entropy_mean(logits, labels, weights=w, gamma=2.0).item()
    units_f = [focal_loss(Tensor(logits.data[i]), int(labels[i]), gamma=2.0, weights=w)
               for i in range(6)]
    assert abs(batched_f - batch_mean(units_f).item()) < 1e-12


MEAN_LOSSES = [pytest.param(cross_entropy_mean, id="cross_entropy_mean"),
               pytest.param(partial(cross_entropy_mean, gamma=2.0), id="focal_loss_mean")]


@pytest.mark.parametrize("mean_loss", MEAN_LOSSES)
def test_empty_logit_batch_is_a_contract_error(mean_loss):
    with pytest.raises(ContractError, match="empty logit batch"):
        mean_loss(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.intp))


@pytest.mark.parametrize("mean_loss", MEAN_LOSSES)
@pytest.mark.parametrize("labels", [[0, 1], [[0], [1], [2], [0]], 1])
def test_labels_that_are_not_one_per_row_are_a_shape_error(mean_loss, labels):
    with pytest.raises(ShapeError, match="labels"):
        mean_loss(Tensor(np.zeros((4, 3))), labels)


@pytest.mark.parametrize("mean_loss", MEAN_LOSSES)
@pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
def test_weights_that_are_not_one_per_class_are_a_shape_error(mean_loss, weights):
    with pytest.raises(ShapeError, match="weights"):
        mean_loss(Tensor(np.zeros((4, 3))), [0, 1, 2, 2], weights=weights)

# -- gradients (light check; the acceptance suite runs the full 100-point oracle)

def _nudged_points(rng, count, dim=4):
    pts = []
    while len(pts) < count:
        candidate = [rng.normal(size=(1, dim)) for _ in range(4)]
        pts.append(candidate)
    return pts


def test_losses_match_finite_differences_at_random_points():
    rng = np.random.default_rng(123)
    checks = 0
    for a, p, n, n2 in _nudged_points(rng, 8):
        for fn in (lambda x, y, z, w: triplet_loss_mean(x, y, z, H),
                   lambda x, y, z, w: quadruplet_loss_mean(x, y, z, w, H),
                   lambda x, y, z, w: (pairwise_loss_mean(x, y, [0], H)
                                       + pairwise_loss_mean(y, z, [1], H))):
            try:
                err = finite_diff_check(fn, [a, p, n, n2])
            except HingeKinkError:
                continue
            assert err < 1e-4
            checks += 1
    assert checks >= 12


def test_distance_rows_matches_scalar_path():
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    rows = distance_rows(Tensor(x), Tensor(y)).data
    scalars = [euclidean_distance(Tensor(x[i]), Tensor(y[i])).item() for i in range(7)]
    np.testing.assert_allclose(rows, scalars, atol=1e-12)


@pytest.mark.parametrize("margin, value", [("alpha", float("nan")), ("alpha", float("inf")),
                                           ("alpha", -0.1), ("beta", float("nan")),
                                           ("beta", float("-inf"))],
                         ids=["alpha_nan", "alpha_inf", "alpha_negative", "beta_nan", "beta_neg_inf"])
def test_a_non_finite_margin_or_a_negative_alpha_is_a_contract_error(margin, value):
    with pytest.raises(ContractError, match=f"margins must be finite.*{margin}={value}"):
        LossHyper(**{margin: value})

