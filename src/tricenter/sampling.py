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

Miners take the batch embeddings and a center table as float arrays
(``[N, D]`` and ``[K, D]``).  The stage-1 miners (triplets, quadruplets)
take only the plans ``build_balanced_batch`` makes: every class 0..K-1 has
the same number m of slots, and any other plan is a ``ContractError``.
They keep the random contract of a per-anchor loop: anchors in slot order,
and for each anchor the same draws in the same order (positive, then
negative or classes, then slots), each one ``rng.integers(n)`` over a
candidate list in ascending slot or class order, which is what
``rng.choice`` of that list draws.  A seeded run therefore mines the same
units and leaves the generator in the same state as the loop did.  In a
balanced plan every bound is known up front, so the draws are made in one
``rng.integers(0, bounds)`` call, which yields the same values as the
scalar calls one after another, and ``_kth`` reads each drawn slot off the
candidate mask.  Only the semi-hard band draw of ``form_triplets`` stays a
scalar call in a loop: its bound is the band size of the drawn positive,
counted for every candidate positive before the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import BLOCK_FLOATS, lp_cdist
from .errors import ContractError

MINING_STRATEGIES = ("random", "random_hard")  # stage-1 negative choice of ``form_triplets``


@dataclass
class DatasetIndex:
    """The rows of each class, ascending, and the class sizes; ``from_labels``
    builds one, so the rows partition ``0..N-1``."""

    by_class: list
    sizes: np.ndarray

    @classmethod
    def from_labels(cls, labels, n_classes: int | None = None) -> "DatasetIndex":
        labels = np.asarray(labels, dtype=np.intp)
        if labels.size and labels.min() < 0:
            raise ContractError("labels must be nonnegative")
        if n_classes is None:  # the largest label sets K; past the row count it is a bad label
            k = int(labels.max()) + 1 if labels.size else 0
            if k > labels.size:
                raise ContractError(f"label {k - 1} implies {k} classes, more than the "
                                    f"{labels.size} rows can hold")
        else:
            k = int(n_classes)
        if labels.size and labels.max() >= k:
            raise ContractError(f"label {labels.max()} is out of range for {k} classes")
        sizes = np.bincount(labels, minlength=k)
        # a stable sort keeps each class's rows ascending; the last piece is empty
        return cls(np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes))[:-1], sizes)

    @property
    def n_classes(self) -> int:
        return len(self.sizes)

    def require_nonempty_classes(self):
        empty = np.flatnonzero(self.sizes == 0).tolist()
        if empty:
            raise ContractError(f"classes {empty} have no samples")


@dataclass
class BatchPlan:
    """One optimization step's slots: ``indices`` are dataset rows, ``labels``
    the class of each slot."""

    indices: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.indices)


def build_balanced_batch(index: DatasetIndex, m_per_class: int,
                         rng: np.random.Generator) -> BatchPlan:
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
    return BatchPlan(indices=flat[order], labels=slot_labels[order])


def flat_batch_plans(labels, batch_size: int, rng: np.random.Generator,
                     order: np.ndarray | None = None) -> list:
    """Chunk ``order`` (default: a shuffle of every row drawn from ``rng``)
    into flat batches of ``batch_size``."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    labels = np.asarray(labels, dtype=np.intp)
    if order is None:
        order = rng.permutation(len(labels))
    plans = []
    for start in range(0, len(order), batch_size):
        chunk = order[start:start + batch_size]
        plans.append(BatchPlan(indices=chunk, labels=labels[chunk]))
    return plans


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


def _slots_per_class(labels: np.ndarray, min_classes: int) -> int:
    """The slot count m of a balanced plan: every class 0..K-1 has m slots
    and K >= ``min_classes``."""
    counts = np.bincount(labels)
    if len(counts) < min_classes or (counts != counts[0]).any():
        raise ContractError(f"stage-1 mining needs a balanced plan over >= {min_classes} classes "
                            f"0..K-1, got class counts {counts.tolist()}")
    return int(counts[0])


def form_triplets(batch: BatchPlan, embeddings, strategy: str,
                  hyper, rng: np.random.Generator) -> np.ndarray:
    """Form one ``[anchor, positive, negative]`` triplet per slot of a
    balanced plan; none when each class has a single slot.

    The positive is uniform over other slots of the anchor's class.  Under
    ``random`` the negative is uniform over all other-class slots; under
    ``random_hard`` it is uniform over semi-hard negatives (anchor-negative
    distance inside (d_ap, d_ap + alpha)), falling back to the hardest
    negative when the semi-hard band is empty.
    """
    if strategy not in MINING_STRATEGIES:
        raise ContractError(f"unknown mining strategy {strategy!r}")
    labels = batch.labels
    n, m = len(labels), _slots_per_class(labels, 2)
    if m == 1:
        return np.empty((0, 3), dtype=np.intp)
    anchors = np.arange(n)
    negative_mask, positive_mask = _class_masks(labels)
    if strategy == "random":
        k = rng.integers(0, [m - 1, n - m], size=(n, 2))
        return _units(anchors, _kth(positive_mask, k[:, 0]), _kth(negative_mask, k[:, 1]))
    dist = lp_cdist(embeddings, embeddings)
    negative_dist = np.where(negative_mask, dist, np.inf)  # +inf is in no band (d_ap, d_ap + alpha)
    # The band size of every (anchor, candidate positive) pair, in chunks of
    # pairs: the drawn positive's band size bounds the next draw.  Anchor a's
    # m - 1 pairs are a*(m-1) .. a*(m-1) + m-2.
    pair_anchors, pair_positives = np.nonzero(positive_mask)
    pair_d_ap = dist[pair_anchors, pair_positives][:, None]
    band_sizes = np.empty(len(pair_anchors), dtype=np.intp)
    chunk = max(1, BLOCK_FLOATS // n)
    for start in range(0, len(pair_anchors), chunk):
        rows = slice(start, start + chunk)
        d_an, d_ap = negative_dist[pair_anchors[rows]], pair_d_ap[rows]
        band_sizes[rows] = ((d_an > d_ap) & (d_an < d_ap + hyper.alpha)).sum(axis=1)
    band_sizes = band_sizes.tolist()
    draws = []
    for a in range(n):
        pair = a * (m - 1) + int(rng.integers(m - 1))
        draws.append((pair, int(rng.integers(band_sizes[pair])) if band_sizes[pair] > 0 else -1))
    pairs, k_band = np.array(draws, dtype=np.intp).T
    positives, d_ap = pair_positives[pairs], pair_d_ap[pairs]
    band = (negative_dist > d_ap) & (negative_dist < d_ap + hyper.alpha)
    hardest = negative_dist.argmin(axis=1)
    # A row whose negatives are all at +inf puts argmin on slot 0.
    hardest = np.where(negative_mask[anchors, hardest], hardest, negative_mask.argmax(axis=1))
    negatives = np.where(k_band >= 0, _kth(band, k_band), hardest)
    return _units(anchors, positives, negatives)


def form_center_triplets(batch: BatchPlan, embeddings, centers, hyper) -> np.ndarray:
    """Pair every anchor with every negative center that incurs positive loss.

    Returns ``[anchor_slot, own_class, negative_class]`` units: all classes k
    other than the anchor's whose center violates
    ||f_a - c_own|| + alpha > ||f_a - c_k||.
    """
    d = lp_cdist(embeddings, centers)
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
    negative_mask, positive_mask = _class_masks(labels)
    # Per slot a positive draw (when the slot has one), then a negative draw.
    bounds = np.stack([positive_mask.sum(axis=1), negative_mask.sum(axis=1)], axis=1)
    slots, column = np.nonzero(bounds)
    k = rng.integers(0, bounds[slots, column])
    partners = _kth(np.stack([positive_mask, negative_mask], axis=1)[slots, column], k)
    return _units(slots, partners, 1 - column)


def _other_class(j, a, b):
    """The ``j``-th (0-based) class in ascending order other than the
    distinct classes ``a`` and ``b``."""
    j = j + (j >= np.minimum(a, b))
    return j + (j >= np.maximum(a, b))


def form_quadruplets(batch: BatchPlan, rng: np.random.Generator) -> np.ndarray:
    """Anchor + positive + negatives from two distinct other classes, all
    uniform, for every slot of a balanced plan; none when each class has a
    single slot."""
    labels = batch.labels
    m = _slots_per_class(labels, 3)
    if m == 1:
        return np.empty((0, 4), dtype=np.intp)
    n_other = len(labels) // m - 1
    # Per anchor: positive, first class, second class, then one slot of each
    # class.  A class's rank among the others is its label, skipping the
    # anchor's own.
    k = rng.integers(0, [m - 1, n_other, n_other - 1, m, m], size=(len(labels), 5))
    k[:, 1] += k[:, 1] >= labels
    k[:, 2] = _other_class(k[:, 2], labels, k[:, 1])
    _, positive_mask = _class_masks(labels)
    by_class = np.argsort(labels, kind="stable")  # class c's slots are by_class[c*m:(c+1)*m]
    return _units(np.arange(len(labels)), _kth(positive_mask, k[:, 0]),
                  by_class[k[:, 1] * m + k[:, 3]], by_class[k[:, 2] * m + k[:, 4]])


def form_center_pairs(batch: BatchPlan, embeddings, centers, hyper) -> np.ndarray:
    """Center-involved pairs: the own center plus every margin-violating negative center.

    Returns ``[anchor_slot, partner_class, same]`` units mirroring the
    all-qualifying-negatives rule of the center triplet stage.
    """
    d = lp_cdist(embeddings, centers)
    labels = batch.labels
    # Column 0 is the own center, column 1 + k is class k.
    keep = np.concatenate([np.ones((len(labels), 1), dtype=bool), hyper.alpha - d > 0.0], axis=1)
    keep[np.arange(len(labels)), 1 + labels] = False
    slots, column = np.nonzero(keep)
    return _units(slots, np.where(column == 0, labels[slots], column - 1), column == 0)


def form_center_quadruplets(batch: BatchPlan, embeddings, centers, hyper,
                            rng: np.random.Generator) -> np.ndarray:
    """Center-involved quadruplets over all qualifying first negatives.

    For each anchor, every class k whose center makes the primary hinge
    positive becomes negative1; negative2 is a uniformly drawn third class.
    Returns ``[anchor_slot, own_class, n1_class, n2_class]`` units.
    """
    k_total = centers.shape[0]
    if k_total < 3:
        raise ContractError("center quadruplets need at least 3 classes")
    qualifying = form_center_triplets(batch, embeddings, centers, hyper)
    slots, own, n1 = qualifying.T
    third = _other_class(rng.integers(0, k_total - 2, size=len(qualifying)), own, n1)
    return _units(slots, own, n1, third)


def oversample_indices(index: DatasetIndex, rng: np.random.Generator) -> np.ndarray:
    """Epoch-long index stream where every class is resampled up to the largest size."""
    index.require_nonempty_classes()
    target = int(index.sizes.max())
    parts = [rng.choice(members, size=target, replace=True) for members in index.by_class]
    stream = np.concatenate(parts)
    return stream[rng.permutation(len(stream))]
