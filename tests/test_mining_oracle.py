"""The vectorized miners against the per-anchor loops they replaced.

The functions below are the loop implementations of the triplet (random
and semi-hard), pair, quadruplet and center miners, kept as reference
oracles; they return lists of unit tuples.  Each vectorized miner in
``tricenter.sampling`` must return the same units, as rows of an
``np.intp`` array, and leave the generator in the same state, so seeded
runs do not change.  The stage-1 triplet and quadruplet miners take only
balanced plans, so they are compared on those; the pair and center miners
also on ragged ones.  The center triplet and quadruplet miners' arrays also
carry the anchor's own class in column 1, which those oracles leave out.
"""

import logging

import numpy as np
import pytest

from tricenter import sampling
from tricenter.distance import BLOCK_FLOATS, lp_cdist, lp_norm
from tricenter.errors import ContractError
from tricenter.evaluation import compactness
from tricenter.losses import LossHyper
from tricenter.sampling import BatchPlan

log = logging.getLogger(__name__)


# -- reference oracles: the loop implementations, verbatim --------------------

def _pairwise_distances(values: np.ndarray) -> np.ndarray:
    diff = np.abs(values[:, None, :] - values[None, :, :]) ** 2
    return diff.sum(axis=2) ** 0.5


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
    values = np.asarray(embeddings, dtype=np.float64)
    dist = _pairwise_distances(values) if strategy == "random_hard" else None
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
    values = np.asarray(embeddings, dtype=np.float64)
    matrix = centers.matrix if hasattr(centers, "matrix") else np.asarray(centers, dtype=np.float64)
    if matrix.ndim != 2:
        raise ContractError("center table must be a K x D matrix")
    d = np.abs(values[:, None, :] - matrix[None, :, :]) ** 2
    d = d.sum(axis=2) ** 0.5
    labels = batch.labels
    own = d[np.arange(len(labels)), labels]
    margin = own[:, None] + hyper.alpha - d
    margin[np.arange(len(labels)), labels] = 0.0  # own class never qualifies
    slots, classes = np.nonzero(margin > 0.0)
    return list(zip(slots.tolist(), classes.tolist()))


def form_pairs(batch: BatchPlan, rng: np.random.Generator) -> list:
    """One same-class pair (when available) and one cross-class pair per slot."""
    labels = batch.labels
    if len(np.unique(labels)) < 2:
        raise ContractError("pair formation needs at least 2 classes in the batch")
    pairs = []
    for a in range(len(labels)):
        same = np.flatnonzero(labels == labels[a])
        same = same[same != a]
        if len(same) > 0:
            pairs.append((a, int(rng.choice(same)), 1))
        other = np.flatnonzero(labels != labels[a])
        pairs.append((a, int(rng.choice(other)), 0))
    return pairs


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


def form_center_pairs(batch: BatchPlan, embeddings, centers, hyper) -> list:
    """Center-involved pairs: the own center plus every margin-violating negative center.

    Returns (anchor_slot, partner_class, same) units mirroring the
    all-qualifying-negatives rule of the center triplet stage.
    """
    d = lp_cdist(np.asarray(embeddings, dtype=np.float64), centers)
    labels = batch.labels
    units = []
    for a in range(len(labels)):
        units.append((a, int(labels[a]), 1))
        for k in range(d.shape[1]):
            if k != labels[a] and hyper.alpha - d[a, k] > 0.0:
                units.append((a, k, 0))
    return units


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


def compactness_reference(embeddings, labels, center_matrix):
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    matrix = np.asarray(center_matrix, dtype=np.float64)
    diff = np.abs(emb - matrix[labels]) ** 2
    within = diff.sum(axis=1) ** 0.5
    k = matrix.shape[0]
    pair_dists = []
    for i in range(k):
        for j in range(i + 1, k):
            d = np.abs(matrix[i] - matrix[j]) ** 2
            pair_dists.append(d.sum() ** 0.5)
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
            return BatchPlan(indices=np.arange(n), labels=labels)


def balanced_batch(rng, min_classes=2):
    """K in [min_classes, 6] classes of m in [1, 6] slots each, shuffled."""
    k, m = int(rng.integers(min_classes, 7)), int(rng.integers(1, 7))
    return BatchPlan(indices=np.arange(k * m), labels=rng.permutation(np.repeat(np.arange(k), m)))


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


def batches(seed, min_classes=2, make=random_batch):
    rng = np.random.default_rng(seed)
    for i in range(N_BATCHES):
        batch = make(rng, min_classes)
        dim = int(rng.integers(1, 6))
        yield batch, random_embeddings(rng, len(batch), dim), ALPHAS[i % len(ALPHAS)]


# -- the miners against their oracles ------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_semi_hard_triplets_match_the_loop(seed):
    for batch, emb, alpha in batches(10 + seed, make=balanced_batch):
        hyper = LossHyper(alpha=alpha)
        assert_same_draws(sampling.form_triplets, form_triplets,
                          lambda fn, rng: fn(batch, emb, "random_hard", hyper, rng), 3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_triplets_pairs_and_center_pairs_match_the_loop(seed):
    for batch, emb, alpha in batches(20 + seed, make=balanced_batch):
        hyper = LossHyper(alpha=alpha)
        assert_same_draws(sampling.form_triplets, form_triplets,
                          lambda fn, r: fn(batch, emb, "random", hyper, r), 3)
    rng = np.random.default_rng(20 + seed)
    for batch, emb, alpha in batches(20 + seed):
        hyper = LossHyper(alpha=alpha)
        assert_same_draws(sampling.form_pairs, form_pairs, lambda fn, r: fn(batch, r), 3)
        centers = random_embeddings(rng, int(batch.labels.max()) + 1 + int(rng.integers(0, 2)),
                                    emb.shape[1])
        assert_same_units(sampling.form_center_pairs(batch, emb, centers, hyper),
                          form_center_pairs(batch, emb, centers, hyper), 3)


def test_quadruplets_match_the_loop():
    for batch, _, _ in batches(30, min_classes=3, make=balanced_batch):
        assert_same_draws(sampling.form_quadruplets, form_quadruplets,
                          lambda fn, rng: fn(batch, rng), 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_center_miners_match_the_loop(seed):
    rng = np.random.default_rng(40 + seed)
    for batch, emb, alpha in batches(40 + seed, min_classes=3):
        k = int(batch.labels.max()) + 1 + int(rng.integers(0, 2))
        centers = random_embeddings(rng, k, emb.shape[1])
        hyper = LossHyper(alpha=alpha)
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
        for strategy in ("random", "random_hard"):
            assert_same_draws(sampling.form_triplets, form_triplets,
                              lambda fn, r: fn(plan, emb, strategy, hyper, r), 3)
        assert_same_draws(sampling.form_quadruplets, form_quadruplets,
                          lambda fn, r: fn(plan, r), 4)
        assert_same_draws(sampling.form_pairs, form_pairs, lambda fn, r: fn(plan, r), 3)


# Every class of a balanced plan has the same slot count, so form_quadruplets
# makes all its draws in one call; these are the edges of that call.
@pytest.mark.parametrize("labels", [
    np.repeat([0, 1, 2], 5),     # three classes: the second class draw has bound 1
    np.repeat(np.arange(6), 2),  # two per class: the positive draw has bound 1
    np.array([4, 0, 2, 1, 3]),   # one per class: no anchor, so no draw
], ids=["three_classes", "two_per_class", "one_per_class"])
def test_balanced_quadruplets_match_the_loop(labels):
    rng = np.random.default_rng(70)
    for _ in range(20):
        plan = BatchPlan(indices=np.arange(len(labels)), labels=rng.permutation(labels))
        assert_same_draws(sampling.form_quadruplets, form_quadruplets,
                          lambda fn, r: fn(plan, r), 4)


@pytest.mark.parametrize("budget", [1, 200])
def test_semi_hard_band_counted_in_chunks_matches_the_loop(budget, monkeypatch):
    """Band sizes counted a few (anchor, positive) pairs at a time: the same
    units and generator state as the loop."""
    monkeypatch.setattr(sampling, "BLOCK_FLOATS", budget)
    assert budget // 70 < 70 * 9  # a balanced batch's 630 pairs take several chunks
    for seed in (1, 2, 3):
        test_semi_hard_triplets_match_the_loop(seed)
    test_balanced_batches_match_the_loop(10, 16)


def test_empty_band_falls_back_to_the_hardest_negative():
    # alpha = 0 leaves every semi-hard band empty, so every negative is the argmin.
    plan = BatchPlan(indices=np.arange(6), labels=np.array([0, 0, 1, 1, 2, 2]))
    emb = np.array([[0.0], [1.0], [3.0], [0.5], [3.0], [0.5]])
    hyper = LossHyper(alpha=0.0)
    got = sampling.form_triplets(plan, emb, "random_hard", hyper, np.random.default_rng(0))
    want = form_triplets(plan, emb, "random_hard", hyper, np.random.default_rng(0))
    assert_same_units(got, want, 3)
    # Anchor 0 at 0.0: negatives at 3.0, 0.5, 3.0, 0.5; the tie goes to the first slot.
    assert got[0].tolist() == [0, 1, 3]


def test_fallback_when_every_negative_is_infinitely_far():
    plan = BatchPlan(indices=np.arange(4), labels=np.array([0, 0, 1, 1]))
    emb = np.array([[0.0], [1.0], [1e200], [1e200]])  # squares overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_draws(sampling.form_triplets, form_triplets,
                          lambda fn, r: fn(plan, emb, "random_hard", LossHyper(), r), 3)
        units = sampling.form_triplets(plan, emb, "random_hard", LossHyper(),
                                       np.random.default_rng(0))
    assert units[:2].tolist() == [[0, 1, 2], [1, 0, 2]]


def test_single_slot_anchors_are_skipped():
    plan = BatchPlan(indices=np.arange(5), labels=np.array([0, 1, 1, 2, 2]))
    pairs = sampling.form_pairs(plan, np.random.default_rng(1))
    assert pairs[:, [0, 2]].tolist() == [
        [0, 0], [1, 1], [1, 0], [2, 1], [2, 0], [3, 1], [3, 0], [4, 1], [4, 0]]


def test_batch_without_positives_draws_nothing():
    plan = BatchPlan(indices=np.arange(3), labels=np.array([0, 1, 2]))
    emb = np.eye(3)
    for strategy in ("random", "random_hard"):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert sampling.form_triplets(plan, emb, strategy, LossHyper(), rng).shape == (0, 3)
        assert rng.bit_generator.state == before
    assert sampling.form_quadruplets(plan, np.random.default_rng(3)).shape == (0, 4)


@pytest.mark.parametrize("labels", [
    [0, 0, 1, 1, 2],           # ragged: class 2 has one slot
    [0, 0, 2, 2, 3, 3],        # gapped: class 1 has none
    [1, 1, 2, 2, 3, 3],        # gapped: class 0 has none
], ids=["ragged", "gap", "no_class_zero"])
def test_stage_one_miners_reject_a_plan_that_is_not_balanced(labels):
    plan = BatchPlan(indices=np.arange(len(labels)), labels=np.array(labels))
    emb = np.zeros((len(labels), 2))
    for strategy in ("random", "random_hard"):
        with pytest.raises(ContractError, match="balanced plan .* class counts"):
            sampling.form_triplets(plan, emb, strategy, LossHyper(), np.random.default_rng(0))
    with pytest.raises(ContractError, match="balanced plan .* class counts"):
        sampling.form_quadruplets(plan, np.random.default_rng(0))


def test_too_few_classes_still_rejected():
    plan = BatchPlan(indices=np.arange(4), labels=np.array([0, 0, 1, 1]))
    with pytest.raises(ContractError):
        sampling.form_quadruplets(plan, np.random.default_rng(0))
    with pytest.raises(ContractError):
        sampling.form_center_quadruplets(plan, np.zeros((4, 2)), np.zeros((2, 2)), LossHyper(),
                                         np.random.default_rng(0))


# -- the distance kernel --------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lp_cdist_equals_the_naive_formula_exactly(seed):
    rng = np.random.default_rng(60 + seed)
    # (rows of a, rows of b, D): one block; several blocks with a ragged last
    # one; a single row over the block budget; no rows at all
    shapes = [(9, 5, 37), (700, 7, 128), (3, 130, 1100), (0, 5, 37)]
    assert 700 * 7 * 128 > 2 * BLOCK_FLOATS and 130 * 1100 > BLOCK_FLOATS
    for n, m, dim in shapes:
        a, b = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
        naive = (np.abs(a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2) ** 0.5
        got = lp_cdist(a, b)
        assert got.shape == (n, m) and got.dtype == naive.dtype
        assert got.tobytes() == naive.tobytes()
    # lp_cdist(a, a) computes the upper triangle and mirrors it: one block;
    # several blocks with a ragged last one; a single row; no rows at all
    assert 300 * 300 * 16 > 2 * BLOCK_FLOATS and 300 % (BLOCK_FLOATS // (300 * 16))
    for n, dim in [(9, 37), (300, 16), (1, 37), (0, 37)]:
        a = rng.normal(size=(n, dim))
        naive = (np.abs(a[:, None, :] - a[None, :, :]) ** 2).sum(axis=2) ** 0.5
        got = lp_cdist(a, a)
        assert got.shape == (n, n) and got.tobytes() == naive.tobytes()
        assert got.tobytes() == got.T.copy().tobytes()
    a, b = rng.normal(size=(2, 37)), rng.normal(size=(2, 37))
    assert lp_norm(a[0] - b[0]) == (np.abs(a[0] - b[0]) ** 2).sum() ** 0.5


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 7, 128, 300])
def test_compactness_matches_the_center_pair_loop(seed, dim):
    rng = np.random.default_rng(dim + seed)
    labels = rng.integers(0, 6, size=50)
    emb, centers = rng.normal(size=(50, dim)), rng.normal(size=(6, dim))
    assert compactness(emb, labels, centers) == compactness_reference(emb, labels, centers)


@pytest.mark.parametrize("label", [-1, 2], ids=["negative", "past_the_centers"])
def test_compactness_refuses_a_label_outside_the_centers(label):
    """numpy would measure a row labelled -1 against the last center."""
    with pytest.raises(ContractError, match=f"label {label} is out of range for 2 centers"):
        compactness([[1.0, 1.0], [10.0, 0.0]], [0, label], [[0.0, 0.0], [10.0, 0.0]])


@pytest.mark.parametrize("rows, labels", [(1, [0, 0]), (2, [0])], ids=["more_labels", "fewer_labels"])
def test_compactness_refuses_rows_and_labels_of_different_lengths(rows, labels):
    """One row against two labels would broadcast to two distances."""
    with pytest.raises(ContractError, match="need one label each"):
        compactness(np.ones((rows, 2)), labels, [[0.0, 0.0], [10.0, 0.0]])


def test_compactness_refuses_an_empty_input():
    with pytest.raises(ContractError, match="at least one embedding"):
        compactness(np.zeros((0, 2)), [], [[0.0, 0.0], [10.0, 0.0]])


def test_compactness_refuses_centers_of_another_width():
    with pytest.raises(ContractError, match=r"centers \(2, 3\) do not match embeddings \(1, 2\)"):
        compactness([[10.0, 0.0]], [0], np.zeros((2, 3)))
