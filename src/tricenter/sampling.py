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
candidate mask.  The semi-hard draws of ``form_triplets`` are the exception:
a band draw's bound is the band size of the positive just drawn.
``_draw_pairs`` guesses the positives, makes the draws those guesses imply
in one checked call, and runs the scalar loop only when a guess fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import BLOCK_FLOATS, euclidean_cdist, gram_bracket
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


def _distance_bounds(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[N, N] bounds ``lo <= d <= hi`` on every distance of
    ``euclidean_cdist(embeddings, embeddings)``: square roots of the
    ``gram_bracket`` ends, which the monotone, correctly rounded square root
    keeps in order.  Where the bracket bounds nothing (non-finite or
    overflowing values) both are NaN, so every comparison with them is false."""
    lower, upper = gram_bracket(embeddings, embeddings)
    unbounded = ~np.isfinite(upper)
    lower[unbounded] = upper[unbounded] = np.nan
    return np.sqrt(np.maximum(lower, 0.0, out=lower), out=lower), np.sqrt(upper, out=upper)


def _band_counts(lo_an, hi_an, lo_ap, hi_ap, alpha):
    """How many negatives the bounds put inside the semi-hard band
    (d_ap, d_ap + alpha) of each (anchor, candidate positive) pair, and for
    each anchor whether some negative is neither surely inside nor surely
    out of one of its bands.

    ``lo_an``, ``hi_an`` [A, n-m] bound each anchor's distances to its
    negatives, ``lo_ap``, ``hi_ap`` [A, m-1] those to its candidate
    positives.  Exact distances (lo = hi) give the bands themselves.  A NaN
    bound is neither inside nor out."""
    size, undecided = np.empty(lo_ap.shape, dtype=np.intp), np.empty(len(lo_ap), dtype=bool)
    chunk = max(1, BLOCK_FLOATS // (lo_ap.shape[1] * lo_an.shape[1]))  # anchors per block
    for start in range(0, len(lo_an), chunk):
        rows = slice(start, start + chunk)
        lo_n, hi_n = lo_an[rows, None, :], hi_an[rows, None, :]
        lo_p, hi_p = lo_ap[rows, :, None], hi_ap[rows, :, None]
        inside = (lo_n > hi_p) & (hi_n < lo_p + alpha)
        out = (hi_n <= lo_p) | (lo_n >= hi_p + alpha)
        size[rows] = inside.sum(axis=2)
        undecided[rows] = ~(inside | out).reshape(len(inside), -1).all(axis=1)
    return size, undecided


def _draw_pairs(band_sizes: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per anchor, the drawn candidate positive j and then, when the band of
    (anchor, j) is not empty, the drawn band member (else -1): the draws of
    the loop ``j = rng.integers(m - 1)``, ``rng.integers(band_sizes[a][j])``
    over anchors in order, with its values and final generator state.

    The loop's bounds depend on its own draws, so they are guessed: 2n draws
    at bound m - 1 from a saved state, scanned as the loop would read them
    (a band draw of bound 1 takes no random bits).  The guessed bound
    sequence is then drawn in one call from the same state.  If every
    positive of that call equals its guess, every bound was the loop's, by
    induction, and so is every value; otherwise the state is restored and
    the loop runs.  Each draw takes one 32-bit word unless it is rejected,
    which happens with odds below bound / 2**32, so the guesses nearly
    always hold.  At m = 2 a positive draw takes no bits either, and the
    loop runs.
    """
    n, m = band_sizes.shape[0], band_sizes.shape[1] + 1
    rows = band_sizes.tolist()
    if m > 2:
        state = rng.bit_generator.state
        guesses = rng.integers(m - 1, size=2 * n)
        reads, at, guessed = [], 0, guesses.tolist()  # the guess each positive is read from
        for row in rows:
            reads.append(at)
            at += 1 + (row[guessed[at]] > 1)
        picked = guesses[reads]
        sizes = band_sizes[np.arange(n), picked]
        banded = sizes > 0
        first = np.cumsum(1 + banded) - 1 - banded  # each anchor's positive in ``bounds``
        bounds = np.full(n + banded.sum(), m - 1)
        bounds[first[banded] + 1] = sizes[banded]
        rng.bit_generator.state = state
        values = np.append(rng.integers(0, bounds), -1)
        if (values[first] == picked).all():
            return picked, np.where(banded, values[first + 1], -1)
        rng.bit_generator.state = state
    draws = []
    for row in rows:
        j = int(rng.integers(m - 1))
        draws.append((j, int(rng.integers(row[j])) if row[j] > 0 else -1))
    return tuple(np.array(draws, dtype=np.intp).T)


def form_triplets(batch: BatchPlan, embeddings, strategy: str,
                  hyper, rng: np.random.Generator) -> np.ndarray:
    """Form one ``[anchor, positive, negative]`` triplet per slot of a
    balanced plan; none when each class has a single slot.

    The positive is uniform over other slots of the anchor's class.  Under
    ``random`` the negative is uniform over all other-class slots; under
    ``random_hard`` it is uniform over semi-hard negatives (anchor-negative
    distance inside (d_ap, d_ap + alpha)), falling back to the hardest
    negative when the semi-hard band is empty.

    ``random_hard`` decides band membership and the hardest negative from
    ``_distance_bounds``; an anchor's exact distances are measured only when
    those bounds leave some comparison open, so the units are those of the
    exact distances.
    """
    if strategy not in MINING_STRATEGIES:
        raise ContractError(f"unknown mining strategy {strategy!r}")
    labels = batch.labels
    n, m = len(labels), _slots_per_class(labels, 2)
    if m == 1:
        return np.empty((0, 3), dtype=np.intp)
    anchors = np.arange(n)
    if strategy == "random":
        negative_mask, positive_mask = _class_masks(labels)
        k = rng.integers(0, [m - 1, n - m], size=(n, 2))
        return _units(anchors, _kth(positive_mask, k[:, 0]), _kth(negative_mask, k[:, 1]))
    # Row a of ``others`` holds anchor a's m - 1 candidate positives, then its
    # n - m negatives, each in ascending slot order; so do the bound arrays.
    # Row c of ``outside`` holds the slots of every class but c.
    by_class = np.argsort(labels, kind="stable").reshape(-1, m)  # row c: class c's slots
    outside = np.nonzero(labels != np.arange(len(by_class))[:, None])[1].reshape(-1, n - m)
    own = by_class[labels]
    others = np.concatenate([own[own != anchors[:, None]].reshape(n, m - 1), outside[labels]],
                            axis=1)
    lo, hi = _distance_bounds(embeddings)
    lo, hi = lo[anchors[:, None], others], hi[anchors[:, None], others]
    lo_ap, hi_ap, lo_an, hi_an = lo[:, :m - 1], hi[:, :m - 1], lo[:, m - 1:], hi[:, m - 1:]

    def measure(rows):  # exact distances for these anchors, as lo = hi
        d = euclidean_cdist(embeddings[rows], embeddings)
        lo[rows] = hi[rows] = d[np.arange(len(rows))[:, None], others[rows]]

    band_sizes, undecided = _band_counts(lo_an, hi_an, lo_ap, hi_ap, hyper.alpha)
    rows = np.flatnonzero(undecided)
    if rows.size:
        measure(rows)
        band_sizes[rows] = _band_counts(lo_an[rows], hi_an[rows], lo_ap[rows], hi_ap[rows],
                                        hyper.alpha)[0]
    drawn, k_band = _draw_pairs(band_sizes, rng)
    picked = np.empty(n, dtype=np.intp)  # each anchor's negative, as a column of ``lo_an``
    banded = np.flatnonzero(k_band >= 0)
    d_lo, d_hi = lo_ap[banded, drawn[banded], None], hi_ap[banded, drawn[banded], None]
    band = (lo_an[banded] > d_hi) & (hi_an[banded] < d_lo + hyper.alpha)
    picked[banded] = _kth(band, k_band[banded])
    # The hardest negative of an empty band: decided where every other lower
    # bound exceeds the best upper bound, else the argmin of exact distances,
    # which takes the first of equal values, the first NaN, and the first
    # negative when all are +inf.
    empty = np.flatnonzero(k_band < 0)
    best = hi_an[empty].argmin(axis=1)
    rivals = lo_an[empty]
    rivals[np.arange(len(empty)), best] = np.inf
    tied = empty[~(rivals > hi_an[empty, best][:, None]).all(axis=1)]
    if tied.size:
        measure(tied)
    picked[empty] = best
    picked[tied] = lo_an[tied].argmin(axis=1)
    return _units(anchors, others[anchors, drawn], others[anchors, m - 1 + picked])


def form_center_triplets(batch: BatchPlan, embeddings, centers, hyper) -> np.ndarray:
    """Pair every anchor with every negative center that incurs positive loss.

    Returns ``[anchor_slot, own_class, negative_class]`` units: all classes k
    other than the anchor's whose center violates
    ||f_a - c_own|| + alpha > ||f_a - c_k||.
    """
    d = euclidean_cdist(embeddings, centers)
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
    d = euclidean_cdist(embeddings, centers)
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
