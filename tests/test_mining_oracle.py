"""The vectorized miners against the per-anchor loops they replaced.

The functions below are the loop implementations of the semi-hard triplet,
quadruplet and center miners, kept as reference oracles; they return lists
of unit tuples.  Each vectorized miner in ``tricenter.sampling`` must
return the same units, as rows of an ``np.intp`` array, and leave the
generator in the same state, so seeded runs do not change.  The center
miners' arrays also carry the anchor's own class in column 1, which the
oracles leave out.
Random triplets, pairs and center pairs are still loops in the package and
are not compared here.
"""

import logging

import numpy as np
import pytest

from tricenter import sampling
from tricenter.distance import lp_cdist, lp_norm
from tricenter.errors import ContractError
from tricenter.evaluation import compactness
from tricenter.losses import LossHyper
from tricenter.sampling import BatchPlan, _embedding_values

log = logging.getLogger(__name__)


# -- reference oracles: the loop implementations, verbatim --------------------

def _pairwise_distances(values: np.ndarray, p_norm: int) -> np.ndarray:
    diff = np.abs(values[:, None, :] - values[None, :, :]) ** p_norm
    s = diff.sum(axis=2)
    return s if p_norm == 1 else s ** (1.0 / p_norm)


def form_triplets(batch: BatchPlan, embeddings, strategy: str,
                  hyper, rng: np.random.Generator) -> list:
    """Form one triplet per anchor slot.

    The positive is uniform over other slots of the anchor's class.  Under
    ``random`` the negative is uniform over all other-class slots; under
    ``random_hard`` it is uniform over semi-hard negatives (anchor-negative
    distance inside (d_ap, d_ap + alpha)), falling back to the hardest
    negative when the semi-hard band is empty.  Anchors whose class has a
    single slot in the batch are skipped.
    """
    if strategy not in ("random", "random_hard"):
        raise ContractError(f"unknown mining strategy {strategy!r}")
    labels = batch.labels
    if len(np.unique(labels)) < 2:
        raise ContractError("triplet formation needs at least 2 classes in the batch")
    values = _embedding_values(embeddings)
    dist = _pairwise_distances(values, hyper.p_norm) if strategy == "random_hard" else None
    triplets = []
    for anchor in range(len(labels)):
        same = np.flatnonzero(labels == labels[anchor])
        same = same[same != anchor]
        if len(same) == 0:
            log.debug("anchor slot %d has no in-batch positive; skipped", anchor)
            continue
        positive = int(rng.choice(same))
        negatives = np.flatnonzero(labels != labels[anchor])
        if strategy == "random":
            negative = int(rng.choice(negatives))
        else:
            d_ap = dist[anchor, positive]
            d_an = dist[anchor, negatives]
            band = negatives[(d_an > d_ap) & (d_an < d_ap + hyper.alpha)]
            if len(band) > 0:
                negative = int(rng.choice(band))
            else:
                negative = int(negatives[np.argmin(d_an)])
        triplets.append((anchor, positive, negative))
    return triplets


def form_center_triplets(batch: BatchPlan, embeddings, centers, hyper) -> list:
    """Pair every anchor with every negative center that incurs positive loss.

    Returns (anchor_slot, negative_class) pairs: all classes k other than the
    anchor's whose center violates ||f_a - c_own|| + alpha > ||f_a - c_k||.
    """
    values = _embedding_values(embeddings)
    matrix = centers.matrix if hasattr(centers, "matrix") else np.asarray(centers, dtype=np.float64)
    if matrix.ndim != 2:
        raise ContractError("center table must be a K x D matrix")
    p = hyper.p_norm
    d = np.abs(values[:, None, :] - matrix[None, :, :]) ** p
    d = d.sum(axis=2)
    if p != 1:
        d = d ** (1.0 / p)
    labels = batch.labels
    own = d[np.arange(len(labels)), labels]
    margin = own[:, None] + hyper.alpha - d
    margin[np.arange(len(labels)), labels] = 0.0  # own class never qualifies
    slots, classes = np.nonzero(margin > 0.0)
    return list(zip(slots.tolist(), classes.tolist()))


def form_quadruplets(batch: BatchPlan, rng: np.random.Generator) -> list:
    """Anchor + positive + negatives from two distinct other classes, all uniform."""
    labels = batch.labels
    present = np.unique(labels)
    if len(present) < 3:
        raise ContractError(
            f"quadruplet formation needs >= 3 classes in the batch, got {len(present)}")
    quads = []
    for anchor in range(len(labels)):
        same = np.flatnonzero(labels == labels[anchor])
        same = same[same != anchor]
        if len(same) == 0:
            log.debug("anchor slot %d has no in-batch positive; skipped", anchor)
            continue
        positive = int(rng.choice(same))
        other_classes = present[present != labels[anchor]]
        c1 = rng.choice(other_classes)
        c2 = rng.choice(other_classes[other_classes != c1])
        n1 = int(rng.choice(np.flatnonzero(labels == c1)))
        n2 = int(rng.choice(np.flatnonzero(labels == c2)))
        quads.append((anchor, positive, n1, n2))
    return quads


def form_center_quadruplets(batch: BatchPlan, embeddings, centers, hyper,
                            rng: np.random.Generator) -> list:
    """Center-involved quadruplets over all qualifying first negatives.

    For each anchor, every class k whose center makes the primary hinge
    positive becomes negative1; negative2 is a uniformly drawn third class.
    Returns (anchor_slot, n1_class, n2_class) units.
    """
    matrix = centers.matrix if hasattr(centers, "matrix") else np.asarray(centers, dtype=np.float64)
    k_total = matrix.shape[0]
    if k_total < 3:
        raise ContractError("center quadruplets need at least 3 classes")
    qualifying = form_center_triplets(batch, embeddings, matrix, hyper)
    labels = batch.labels
    units = []
    for slot, n1 in qualifying:
        third = [c for c in range(k_total) if c != labels[slot] and c != n1]
        units.append((slot, n1, int(rng.choice(third))))
    return units


def compactness_reference(embeddings, labels, center_matrix, p_norm=2):
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    matrix = np.asarray(center_matrix, dtype=np.float64)
    diff = np.abs(emb - matrix[labels]) ** p_norm
    within = diff.sum(axis=1)
    within = within if p_norm == 1 else within ** (1.0 / p_norm)
    k = matrix.shape[0]
    pair_dists = []
    for i in range(k):
        for j in range(i + 1, k):
            d = np.abs(matrix[i] - matrix[j]) ** p_norm
            d = d.sum()
            pair_dists.append(d if p_norm == 1 else d ** (1.0 / p_norm))
    inter = float(np.mean(pair_dists)) if pair_dists else 0.0
    return float(within.mean()), inter


# -- helpers -------------------------------------------------------------------

ALPHAS = (0.0, 0.2, 0.5, 2.0)
N_BATCHES = 40


def random_batch(rng, min_classes=2):
    """Ragged labels over a few classes; some classes have a single slot."""
    while True:
        k = int(rng.integers(min_classes, 7))
        n = int(rng.integers(min_classes, 30))
        labels = rng.integers(0, k, size=n)
        if len(np.unique(labels)) >= min_classes:
            return BatchPlan(indices=np.arange(n), labels=labels, stage="flat", batch_size=n)


def random_embeddings(rng, n, dim):
    """Embeddings rounded to one decimal, so distances tie."""
    return np.round(rng.normal(size=(n, dim)), 1)


def assert_same_units(got, want, k):
    """``got`` is the [n, k] intp array whose rows are the unit tuples ``want``."""
    assert got.dtype == np.intp and got.shape == (len(want), k)
    assert got.tolist() == [[int(x) for x in unit] for unit in want]


def assert_same_draws(new, old, call, k, expected=list):
    """``call(fn, rng)`` on both miners: the same units (``expected`` maps the
    oracle's tuples to the array layout) and the same final generator state."""
    rng_new, rng_old = np.random.default_rng(99), np.random.default_rng(99)
    got, want = call(new, rng_new), call(old, rng_old)
    assert_same_units(got, expected(want), k)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def with_own_class(batch):
    """Map oracle center units ``(slot, *classes)`` to ``(slot, own class, *classes)``."""
    return lambda units: [(slot, batch.labels[slot], *rest) for slot, *rest in units]


def batches(seed, min_classes=2):
    rng = np.random.default_rng(seed)
    for i in range(N_BATCHES):
        batch = random_batch(rng, min_classes)
        dim = int(rng.integers(1, 6))
        yield batch, random_embeddings(rng, len(batch), dim), ALPHAS[i % len(ALPHAS)]


# -- the miners against their oracles ------------------------------------------

@pytest.mark.parametrize("p_norm", [1, 2, 3])
def test_semi_hard_triplets_match_the_loop(p_norm):
    for batch, emb, alpha in batches(10 + p_norm):
        hyper = LossHyper(alpha=alpha, p_norm=p_norm)
        assert_same_draws(sampling.form_triplets, form_triplets,
                          lambda fn, rng: fn(batch, emb, "random_hard", hyper, rng), 3)


def test_quadruplets_match_the_loop():
    for batch, _, _ in batches(30, min_classes=3):
        assert_same_draws(sampling.form_quadruplets, form_quadruplets,
                          lambda fn, rng: fn(batch, rng), 4)


@pytest.mark.parametrize("p_norm", [1, 2, 3])
def test_center_miners_match_the_loop(p_norm):
    rng = np.random.default_rng(40 + p_norm)
    for batch, emb, alpha in batches(40 + p_norm, min_classes=3):
        k = int(batch.labels.max()) + 1 + int(rng.integers(0, 2))
        centers = random_embeddings(rng, k, emb.shape[1])
        hyper = LossHyper(alpha=alpha, p_norm=p_norm)
        own = with_own_class(batch)
        assert_same_units(sampling.form_center_triplets(batch, emb, centers, hyper),
                          own(form_center_triplets(batch, emb, centers, hyper)), 3)
        assert_same_draws(sampling.form_center_quadruplets, form_center_quadruplets,
                          lambda fn, r: fn(batch, emb, centers, hyper, r), 4, own)


@pytest.mark.parametrize("m_per_class, dim", [(10, 16), (30, 3)])
def test_balanced_batches_match_the_loop(m_per_class, dim):
    """The stage-1 shape: equal slots per class, as build_balanced_batch makes them."""
    index = sampling.DatasetIndex.from_labels(np.repeat(np.arange(7), [40, 9, 25, 3, 60, 12, 5]))
    rng = np.random.default_rng(50)
    for alpha in ALPHAS:
        plan = sampling.build_balanced_batch(index, m_per_class, rng)
        emb = np.round(rng.normal(size=(len(plan), dim)), 1)
        hyper = LossHyper(alpha=alpha)
        assert_same_draws(sampling.form_triplets, form_triplets,
                          lambda fn, r: fn(plan, emb, "random_hard", hyper, r), 3)
        assert_same_draws(sampling.form_quadruplets, form_quadruplets,
                          lambda fn, r: fn(plan, r), 4)


def test_empty_band_falls_back_to_the_hardest_negative():
    # alpha = 0 leaves every semi-hard band empty, so every negative is the argmin.
    plan = BatchPlan(indices=np.arange(6), labels=np.array([0, 0, 1, 1, 1, 2]), stage="flat")
    emb = np.array([[0.0], [1.0], [3.0], [0.5], [3.0], [0.5]])
    hyper = LossHyper(alpha=0.0)
    got = sampling.form_triplets(plan, emb, "random_hard", hyper, np.random.default_rng(0))
    want = form_triplets(plan, emb, "random_hard", hyper, np.random.default_rng(0))
    assert_same_units(got, want, 3)
    # Anchor 0 at 0.0: negatives at 3.0, 0.5, 3.0, 0.5; the tie goes to the first slot.
    assert got[0].tolist() == [0, 1, 3]


def test_fallback_when_every_negative_is_infinitely_far():
    plan = BatchPlan(indices=np.arange(4), labels=np.array([0, 0, 1, 1]), stage="flat")
    emb = np.array([[0.0], [1.0], [1e200], [1e200]])  # squares overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_draws(sampling.form_triplets, form_triplets,
                          lambda fn, r: fn(plan, emb, "random_hard", LossHyper(), r), 3)
        units = sampling.form_triplets(plan, emb, "random_hard", LossHyper(),
                                       np.random.default_rng(0))
    assert units[:2].tolist() == [[0, 1, 2], [1, 0, 2]]


def test_single_slot_anchors_are_skipped():
    plan = BatchPlan(indices=np.arange(5), labels=np.array([0, 1, 1, 2, 2]), stage="flat")
    emb = np.arange(10.0).reshape(5, 2)
    assert_same_draws(sampling.form_triplets, form_triplets,
                      lambda fn, r: fn(plan, emb, "random_hard", LossHyper(), r), 3)
    for strategy in ("random", "random_hard"):
        units = sampling.form_triplets(plan, emb, strategy, LossHyper(), np.random.default_rng(1))
        assert units[:, 0].tolist() == [1, 2, 3, 4]
    assert_same_draws(sampling.form_quadruplets, form_quadruplets, lambda fn, r: fn(plan, r), 4)
    pairs = sampling.form_pairs(plan, np.random.default_rng(1))
    assert pairs[:, [0, 2]].tolist() == [
        [0, 0], [1, 1], [1, 0], [2, 1], [2, 0], [3, 1], [3, 0], [4, 1], [4, 0]]


def test_batch_without_positives_draws_nothing():
    plan = BatchPlan(indices=np.arange(3), labels=np.array([0, 1, 2]), stage="flat")
    emb = np.eye(3)
    for strategy in ("random", "random_hard"):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert sampling.form_triplets(plan, emb, strategy, LossHyper(), rng).shape == (0, 3)
        assert rng.bit_generator.state == before
    assert sampling.form_quadruplets(plan, np.random.default_rng(3)).shape == (0, 4)


def test_too_few_classes_still_rejected():
    plan = BatchPlan(indices=np.arange(4), labels=np.array([0, 0, 1, 1]), stage="flat")
    with pytest.raises(ContractError):
        sampling.form_quadruplets(plan, np.random.default_rng(0))
    with pytest.raises(ContractError):
        sampling.form_center_quadruplets(plan, np.zeros((4, 2)), np.zeros((2, 2)), LossHyper(),
                                         np.random.default_rng(0))


# -- the distance kernel --------------------------------------------------------

@pytest.mark.parametrize("p_norm", [1, 2, 3])
def test_lp_cdist_equals_the_naive_formula_exactly(p_norm):
    rng = np.random.default_rng(60 + p_norm)
    a, b = rng.normal(size=(9, 37)), rng.normal(size=(5, 37))
    naive = (np.abs(a[:, None, :] - b[None, :, :]) ** p_norm).sum(axis=2)
    if p_norm != 1:
        naive = naive ** (1.0 / p_norm)
    np.testing.assert_array_equal(lp_cdist(a, b, p_norm), naive)
    row = np.abs(a[0] - b[0]) ** p_norm
    assert lp_norm(a[0] - b[0], p_norm) == (row.sum() if p_norm == 1 else row.sum() ** (1.0 / p_norm))


@pytest.mark.parametrize("p_norm", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 7, 128, 300])
def test_compactness_matches_the_center_pair_loop(p_norm, dim):
    rng = np.random.default_rng(dim + p_norm)
    labels = rng.integers(0, 6, size=50)
    emb, centers = rng.normal(size=(50, dim)), rng.normal(size=(6, dim))
    assert compactness(emb, labels, centers, p_norm) == compactness_reference(
        emb, labels, centers, p_norm)
