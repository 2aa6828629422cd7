"""Batch construction and sampling-unit formation.

Stage-1 batches are class-balanced: the same number of samples from every
class, drawn with replacement when a class is smaller than the quota.
Stage-2 batches are plain uniform shuffles chunked to a flat size.

Every miner returns its units as an ``np.intp`` array of shape [n, k], one
row per unit; an empty result has shape (0, k).  The layouts are:

- triplets ``[anchor, positive, negative]``;
- pairs ``[a, b, same]``, where ``same`` is 1 for a same-class pair, else 0;
- quadruplets ``[anchor, positive, negative1, negative2]``.

Stage-1 miners fill every id column with batch slots (positions inside a
BatchPlan), not dataset rows, because balanced batches may repeat a sample;
``BatchPlan.indices`` maps slots back to dataset rows.  The center miners
use the same layout per family with column 0 an anchor slot and the other
id columns class ids, so the center-involved loss is the family's loss on
center rows: center triplets ``[anchor, own class, negative class]``,
center pairs ``[anchor, class, same]``, center quadruplets
``[anchor, own class, negative1 class, negative2 class]``.

The semi-hard triplet, quadruplet and center-quadruplet miners work on the
whole batch at once, but they keep the random contract of a per-anchor
loop: anchors in slot order, and for each anchor the same draws in the same
order (positive, then negative or classes, then slots), each one
``rng.integers(n)`` over a candidate list in ascending slot or class order,
which is what ``rng.choice`` of that list draws.  A seeded run therefore
mines the same units and leaves the generator in the same state as the
loop did.  Draws whose bounds are all known up front are made in one
``rng.integers(0, bounds)`` call, which yields the same values as the
scalar calls one after another; a draw whose bound depends on an earlier
draw (the semi-hard band of the drawn positive, the slots of the drawn
classes) stays a scalar call in a loop.  Random triplets, pairs and center
pairs are still per-anchor loops.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .distance import lp_cdist
from .errors import ContractError

log = logging.getLogger(__name__)


@dataclass
class DatasetIndex:
    """Per-class lists of sample indices."""

    by_class: list

    def __post_init__(self):
        self.by_class = [np.asarray(ix, dtype=np.intp) for ix in self.by_class]
        seen = np.concatenate(self.by_class) if self.by_class else np.array([], dtype=np.intp)
        if len(np.unique(seen)) != len(seen):
            raise ContractError("a sample index appears in more than one class list")

    @classmethod
    def from_labels(cls, labels, n_classes: int | None = None) -> "DatasetIndex":
        labels = np.asarray(labels, dtype=np.intp)
        if labels.size and labels.min() < 0:
            raise ContractError("labels must be nonnegative")
        k = int(n_classes) if n_classes is not None else (int(labels.max()) + 1 if labels.size else 0)
        return cls([np.flatnonzero(labels == c) for c in range(k)])

    @property
    def n_classes(self) -> int:
        return len(self.by_class)

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(ix) for ix in self.by_class], dtype=np.intp)

    @property
    def n_samples(self) -> int:
        return int(self.sizes.sum())

    def require_nonempty_classes(self):
        empty = [c for c, ix in enumerate(self.by_class) if len(ix) == 0]
        if empty:
            raise ContractError(f"classes {empty} have no samples")


@dataclass
class BatchPlan:
    """Ordered sample indices for one optimization step.

    ``indices`` are dataset rows, ``labels`` the class of each slot.  Stage
    is "balanced" (m_per_class set) or "flat" (batch_size set).
    """

    indices: np.ndarray
    labels: np.ndarray
    stage: str
    m_per_class: int | None = None
    batch_size: int | None = None

    def __len__(self):
        return len(self.indices)


def build_balanced_batch(index: DatasetIndex, m_per_class: int,
                         rng: np.random.Generator, labels=None) -> BatchPlan:
    """Draw exactly ``m_per_class`` samples from every class and shuffle.

    Classes smaller than the quota are drawn with replacement so every batch
    stays exactly balanced regardless of imbalance in the dataset.
    """
    if m_per_class < 1:
        raise ContractError(f"m_per_class must be >= 1, got {m_per_class}")
    index.require_nonempty_classes()
    chosen = []
    for c, members in enumerate(index.by_class):
        replace = len(members) < m_per_class
        chosen.append(rng.choice(members, size=m_per_class, replace=replace))
    flat = np.concatenate(chosen)
    slot_labels = np.repeat(np.arange(index.n_classes, dtype=np.intp), m_per_class)
    order = rng.permutation(len(flat))
    return BatchPlan(indices=flat[order], labels=slot_labels[order],
                     stage="balanced", m_per_class=m_per_class)


def flat_batch_plans(labels, batch_size: int, rng: np.random.Generator) -> list:
    """Shuffle the whole dataset and chunk it into flat batches of ``batch_size``."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    labels = np.asarray(labels, dtype=np.intp)
    order = rng.permutation(len(labels))
    plans = []
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        plans.append(BatchPlan(indices=chunk, labels=labels[chunk],
                               stage="flat", batch_size=batch_size))
    return plans


def _embedding_values(embeddings) -> np.ndarray:
    if isinstance(embeddings, Tensor):
        return embeddings.data
    return np.asarray(embeddings, dtype=np.float64)


def _class_masks(labels: np.ndarray):
    """([N, N] different-class mask, [N, N] same-class-other-slot mask)."""
    same = labels[:, None] == labels[None, :]
    positive = same.copy()
    np.fill_diagonal(positive, False)
    return ~same, positive


def _kth(mask: np.ndarray, k) -> np.ndarray:
    """Column of the k-th (0-based) True entry of each row of ``mask``."""
    return (mask.cumsum(axis=1) > np.asarray(k)[:, None]).argmax(axis=1)


def _units(*columns) -> np.ndarray:
    """[n, k] unit array from k aligned id columns."""
    return np.stack(columns, axis=1).astype(np.intp, copy=False)


def _log_skipped(n_positives: np.ndarray):
    skipped = np.flatnonzero(n_positives == 0)
    if skipped.size:
        log.debug("anchor slots %s have no in-batch positive; skipped", skipped.tolist())


def form_triplets(batch: BatchPlan, embeddings, strategy: str,
                  hyper, rng: np.random.Generator) -> np.ndarray:
    """Form one ``[anchor, positive, negative]`` triplet per anchor slot.

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
    if strategy == "random":
        triplets = []
        for anchor in range(len(labels)):
            same = np.flatnonzero(labels == labels[anchor])
            same = same[same != anchor]
            if len(same) == 0:
                log.debug("anchor slot %d has no in-batch positive; skipped", anchor)
                continue
            positive = int(rng.choice(same))
            negative = int(rng.choice(np.flatnonzero(labels != labels[anchor])))
            triplets.append((anchor, positive, negative))
        return np.array(triplets, dtype=np.intp).reshape(-1, 3)
    negative_mask, positive_mask = _class_masks(labels)
    n_pos = positive_mask.sum(axis=1)
    _log_skipped(n_pos)
    anchors = np.flatnonzero(n_pos)
    values = _embedding_values(embeddings)
    dist = lp_cdist(values, values, hyper.p_norm)
    # Each slot's negative distances in ascending order (other slots at +inf),
    # so two binary searches count the semi-hard band of the drawn positive:
    # its size bounds the next draw.
    sorted_negatives = np.sort(np.where(negative_mask, dist, np.inf), axis=1)
    positive_slots = np.nonzero(positive_mask)[1]
    first_positive = (np.cumsum(n_pos) - n_pos).tolist()
    n_pos_list = n_pos.tolist()
    positives, k_band = [], []
    for a in anchors.tolist():
        positive = int(positive_slots[first_positive[a] + int(rng.integers(n_pos_list[a]))])
        d_ap = dist[a, positive]
        band_size = int(np.searchsorted(sorted_negatives[a], d_ap + hyper.alpha, "left")
                        - np.searchsorted(sorted_negatives[a], d_ap, "right"))
        positives.append(positive)
        k_band.append(int(rng.integers(band_size)) if band_size > 0 else -1)
    positives = np.asarray(positives, dtype=np.intp)
    k_band = np.asarray(k_band, dtype=np.intp)
    d_ap = dist[anchors, positives][:, None]
    d_an = dist[anchors]
    anchor_negatives = negative_mask[anchors]
    band = anchor_negatives & (d_an > d_ap) & (d_an < d_ap + hyper.alpha)
    hardest = np.where(anchor_negatives, d_an, np.inf).argmin(axis=1)
    # A row whose negatives are all at +inf puts argmin on slot 0.
    hardest = np.where(anchor_negatives[np.arange(len(anchors)), hardest], hardest,
                       anchor_negatives.argmax(axis=1))
    negatives = np.where(k_band >= 0, _kth(band, k_band), hardest)
    return _units(anchors, positives, negatives)


def _center_distances(embeddings, centers, p_norm: int) -> np.ndarray:
    matrix = centers.matrix if hasattr(centers, "matrix") else np.asarray(centers, dtype=np.float64)
    if matrix.ndim != 2:
        raise ContractError("center table must be a K x D matrix")
    return lp_cdist(_embedding_values(embeddings), matrix, p_norm)


def form_center_triplets(batch: BatchPlan, embeddings, centers, hyper) -> np.ndarray:
    """Pair every anchor with every negative center that incurs positive loss.

    Returns ``[anchor_slot, own_class, negative_class]`` units: all classes k
    other than the anchor's whose center violates
    ||f_a - c_own|| + alpha > ||f_a - c_k||.
    """
    d = _center_distances(embeddings, centers, hyper.p_norm)
    labels = batch.labels
    own = d[np.arange(len(labels)), labels]
    margin = own[:, None] + hyper.alpha - d
    margin[np.arange(len(labels)), labels] = 0.0  # own class never qualifies
    slots, classes = np.nonzero(margin > 0.0)
    return _units(slots, labels[slots], classes)


def form_pairs(batch: BatchPlan, rng: np.random.Generator) -> np.ndarray:
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
    return np.array(pairs, dtype=np.intp).reshape(-1, 3)


def form_quadruplets(batch: BatchPlan, rng: np.random.Generator) -> np.ndarray:
    """Anchor + positive + negatives from two distinct other classes, all uniform."""
    labels = batch.labels
    present = np.unique(labels)
    if len(present) < 3:
        raise ContractError(
            f"quadruplet formation needs >= 3 classes in the batch, got {len(present)}")
    _, positive_mask = _class_masks(labels)
    n_pos = positive_mask.sum(axis=1)
    _log_skipped(n_pos)
    anchors = np.flatnonzero(n_pos)
    rank = np.searchsorted(present, labels).tolist()  # index of each slot's class in present
    counts = np.bincount(labels)[present].tolist()
    n_other = len(present) - 1
    n_pos_list = n_pos.tolist()
    # Per anchor: positive, first class, second class, then one slot of each
    # class; the last two bounds depend on the drawn classes.
    k = []
    for a in anchors.tolist():
        kp = int(rng.integers(n_pos_list[a]))
        j1 = int(rng.integers(n_other))
        j1 += j1 >= rank[a]
        lo, hi = sorted((rank[a], j1))
        j2 = int(rng.integers(n_other - 1))
        j2 += j2 >= lo
        j2 += j2 >= hi
        k.append((kp, j1, j2, int(rng.integers(counts[j1])), int(rng.integers(counts[j2]))))
    k = np.array(k, dtype=np.intp).reshape(-1, 5)
    by_class = np.argsort(labels, kind="stable")  # slots grouped by class, ascending
    class_start = np.cumsum(counts) - counts
    positives = _kth(positive_mask[anchors], k[:, 0])
    n1 = by_class[class_start[k[:, 1]] + k[:, 3]]
    n2 = by_class[class_start[k[:, 2]] + k[:, 4]]
    return _units(anchors, positives, n1, n2)


def form_center_pairs(batch: BatchPlan, embeddings, centers, hyper) -> np.ndarray:
    """Center-involved pairs: the own center plus every margin-violating negative center.

    Returns ``[anchor_slot, partner_class, same]`` units mirroring the
    all-qualifying-negatives rule of the center triplet stage.
    """
    d = _center_distances(embeddings, centers, hyper.p_norm)
    labels = batch.labels
    units = []
    for a in range(len(labels)):
        units.append((a, int(labels[a]), 1))
        for k in range(d.shape[1]):
            if k != labels[a] and hyper.alpha - d[a, k] > 0.0:
                units.append((a, k, 0))
    return np.array(units, dtype=np.intp).reshape(-1, 3)


def form_center_quadruplets(batch: BatchPlan, embeddings, centers, hyper,
                            rng: np.random.Generator) -> np.ndarray:
    """Center-involved quadruplets over all qualifying first negatives.

    For each anchor, every class k whose center makes the primary hinge
    positive becomes negative1; negative2 is a uniformly drawn third class.
    Returns ``[anchor_slot, own_class, n1_class, n2_class]`` units.
    """
    matrix = centers.matrix if hasattr(centers, "matrix") else np.asarray(centers, dtype=np.float64)
    k_total = matrix.shape[0]
    if k_total < 3:
        raise ContractError("center quadruplets need at least 3 classes")
    qualifying = form_center_triplets(batch, embeddings, matrix, hyper)
    slots, own, n1 = qualifying.T
    # The k-th class other than the anchor's and n1.
    lo = np.minimum(own, n1)
    hi = np.maximum(own, n1)
    third = rng.integers(0, k_total - 2, size=len(qualifying))
    third += third >= lo
    third += third >= hi
    return _units(slots, own, n1, third)


def oversample_indices(index: DatasetIndex, rng: np.random.Generator) -> np.ndarray:
    """Epoch-long index stream where every class is resampled up to the largest size."""
    index.require_nonempty_classes()
    target = int(index.sizes.max())
    parts = [rng.choice(members, size=target, replace=True) for members in index.by_class]
    stream = np.concatenate(parts)
    return stream[rng.permutation(len(stream))]
