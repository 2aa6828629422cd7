"""Metric-learning and classification losses as pure differentiable functions.

Every loss takes embeddings (and, for the center variants, class-center rows)
as Tensors and returns a scalar Tensor.  Distances are true L_p norms of the
raw embeddings, never squared and never normalized.  Hinges use max(0, .)
with gradient 0 at the kink.

The *_mean helpers are vectorized equivalents of mapping the unit loss over
a list of sampling units and taking batch_mean; tests pin the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, ShapeError


@dataclass
class LossHyper:
    """Margins and distance order shared by the metric losses.

    alpha is the main margin (default 0.5), beta the secondary margin of the
    quadruplet losses and must stay below alpha there, p_norm the order of
    the L_p distance (default 2).
    """

    alpha: float = 0.5
    beta: float = 0.25
    p_norm: int = 2

    def __post_init__(self):
        if self.alpha < 0:
            raise ContractError(f"alpha must be nonnegative, got {self.alpha}")
        if int(self.p_norm) < 1:
            raise ContractError(f"p_norm must be a positive integer, got {self.p_norm}")
        self.p_norm = int(self.p_norm)

    def require_quadruplet_margins(self):
        if not self.beta < self.alpha:
            raise ContractError(
                f"quadruplet losses need beta < alpha, got beta={self.beta} alpha={self.alpha}")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def lp_distance(x, y, p_norm: int = 2) -> Tensor:
    """(sum |x_i - y_i|^p)^(1/p) between two same-length vectors.

    For p > 1 the distance is differentiable wherever d > 0: a zero
    coordinate of x - y is not a kink, so its only kink is at d = 0.  For
    p = 1 every zero coordinate of x - y is a kink.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    if x.data.shape != y.data.shape or x.data.ndim != 1:
        raise ShapeError(f"distance operands must be vectors of one length, "
                         f"got {x.data.shape} vs {y.data.shape}")
    return x.lp_dist(y, p_norm)


def lp_distance_rows(x: Tensor, y: Tensor, p_norm: int = 2) -> Tensor:
    """Row-wise L_p distances between two [n, D] tensors; returns shape [n].

    Same kink rule as ``lp_distance``, row by row.
    """
    if x.data.shape != y.data.shape or x.data.ndim != 2:
        raise ShapeError(f"row distances need matching 2-D shapes, got {x.data.shape} vs {y.data.shape}")
    return x.lp_dist(y, p_norm)


def triplet_loss(f_a, f_p, f_n, hyper: LossHyper) -> Tensor:
    """Hinge on (anchor-positive distance + alpha - anchor-negative distance)."""
    d_ap = lp_distance(f_a, f_p, hyper.p_norm)
    d_an = lp_distance(f_a, f_n, hyper.p_norm)
    return (d_ap + hyper.alpha - d_an).relu()

def center_triplet_loss(f_a, c_anchor, c_neg, hyper: LossHyper,
                        anchor_class=None, neg_class=None) -> Tensor:
    """Triplet hinge with the positive/negative replaced by class centers.

    c_anchor is the center of the anchor's own class, c_neg the center of a
    different class; passing the class ids turns that precondition into a
    checked contract.
    """
    if anchor_class is not None and neg_class is not None and anchor_class == neg_class:
        raise ContractError(f"negative center class {neg_class} equals the anchor class")
    return triplet_loss(f_a, c_anchor, c_neg, hyper)


def pairwise_loss(f_a, f_b, same_class: bool, hyper: LossHyper) -> Tensor:
    """Distance for same-class pairs, hinge(alpha - distance) for cross-class pairs."""
    d = lp_distance(f_a, f_b, hyper.p_norm)
    if same_class:
        return d
    return (hyper.alpha - d).relu()


def quadruplet_loss(f_a, f_p, f_n1, f_n2, hyper: LossHyper,
                    classes=None) -> Tensor:
    """Triplet hinge plus a secondary hinge separating the two negatives.

    The two negatives must come from two distinct classes, both different
    from the anchor class; pass ``classes=(anchor, n1, n2)`` to enforce it.
    """
    hyper.require_quadruplet_margins()
    if classes is not None:
        anchor_cls, n1_cls, n2_cls = classes
        if n1_cls == anchor_cls or n2_cls == anchor_cls or n1_cls == n2_cls:
            raise ContractError(f"quadruplet classes must be pairwise distinct, got {classes}")
    p = hyper.p_norm
    d_ap = lp_distance(f_a, f_p, p)
    first = (d_ap + hyper.alpha - lp_distance(f_a, f_n1, p)).relu()
    second = (d_ap + hyper.beta - lp_distance(f_n1, f_n2, p)).relu()
    return first + second


def center_pairwise_loss(f_a, c_b, same_class: bool, hyper: LossHyper) -> Tensor:
    """Pairwise ranking loss with the partner replaced by its class center."""
    return pairwise_loss(f_a, c_b, same_class, hyper)


def center_quadruplet_loss(f_a, c_p, c_n1, c_n2, hyper: LossHyper,
                           classes=None) -> Tensor:
    """Quadruplet loss with positive and negatives replaced by class centers."""
    return quadruplet_loss(f_a, c_p, c_n1, c_n2, hyper, classes=classes)


def cross_entropy(logits, label: int, weights=None) -> Tensor:
    """Negative weighted log-softmax of the true class.

    ``logits`` is a length-K tensor, ``weights`` an optional length-K array
    of per-class weights; the loss is -w[label] * log softmax(logits)[label].
    """
    logits = _as_tensor(logits)
    k = logits.data.size
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy expects 1-D logits, got shape {logits.data.shape}")
    if not 0 <= int(label) < k:
        raise ContractError(f"label {label} out of range for {k} classes")
    shift = float(np.max(logits.data))  # constant, cancels in value and gradient
    shifted = logits - shift
    log_probs = shifted - shifted.exp().sum().log()
    onehot = np.zeros(k)
    onehot[int(label)] = 1.0
    nll = -(log_probs * onehot).sum()
    if weights is None:
        return nll
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (k,):
        raise ShapeError(f"weights must have shape ({k},), got {w.shape}")
    return nll * float(w[int(label)])


def focal_loss(logits, label: int, gamma: float = 2.0, weights=None) -> Tensor:
    """Cross entropy scaled by (1 - p_true)^gamma; gamma=0 recovers cross_entropy."""
    if gamma < 0:
        raise ContractError(f"gamma must be >= 0, got {gamma}")
    logits = _as_tensor(logits)
    k = logits.data.size
    if not 0 <= int(label) < k:
        raise ContractError(f"label {label} out of range for {k} classes")
    shift = float(np.max(logits.data))
    shifted = logits - shift
    log_probs = shifted - shifted.exp().sum().log()
    onehot = np.zeros(k)
    onehot[int(label)] = 1.0
    log_pt = (log_probs * onehot).sum()
    modulator = (1.0 - log_pt.exp()).pow(float(gamma)) if gamma != 0 else Tensor(1.0)
    loss = modulator * (-log_pt)
    if weights is None:
        return loss
    w = np.asarray(weights, dtype=np.float64)
    return loss * float(w[int(label)])


def batch_mean(unit_losses) -> Tensor:
    """Arithmetic mean of a non-empty list of scalar loss tensors."""
    units = list(unit_losses)
    if not units:
        raise ContractError("batch_mean of an empty loss list; skip empty batches upstream")
    total = units[0]
    for u in units[1:]:
        total = total + u
    return total * (1.0 / len(units))


def inverse_frequency_weights(class_sizes) -> np.ndarray:
    """Per-class weights N_total / (K * N_k); the sample-mean weight is 1."""
    sizes = np.asarray(class_sizes, dtype=np.float64)
    if np.any(sizes <= 0):
        raise ContractError("class sizes must be positive to form inverse-frequency weights")
    return sizes.sum() / (sizes.size * sizes)


# ---------------------------------------------------------------------------
# Vectorized batch forms used by the training loops.
# ---------------------------------------------------------------------------

def triplet_loss_mean(embeddings: Tensor, triplets, hyper: LossHyper) -> Tensor:
    """Mean triplet loss over (anchor, positive, negative) row-index units."""
    if not triplets:
        raise ContractError("no triplets to average")
    a = np.array([t.anchor for t in triplets], dtype=np.intp)
    p = np.array([t.positive for t in triplets], dtype=np.intp)
    n = np.array([t.negative for t in triplets], dtype=np.intp)
    fa, fp, fn = embeddings.take(a), embeddings.take(p), embeddings.take(n)
    d_ap = lp_distance_rows(fa, fp, hyper.p_norm)
    d_an = lp_distance_rows(fa, fn, hyper.p_norm)
    return (d_ap + hyper.alpha - d_an).relu().mean()


def pairwise_loss_mean(embeddings: Tensor, pairs, hyper: LossHyper) -> Tensor:
    """Mean pairwise ranking loss over (a, b, same_class) row-index units."""
    if not pairs:
        raise ContractError("no pairs to average")
    a = np.array([u.a for u in pairs], dtype=np.intp)
    b = np.array([u.b for u in pairs], dtype=np.intp)
    same = np.array([u.same_class for u in pairs], dtype=np.float64)
    d = lp_distance_rows(embeddings.take(a), embeddings.take(b), hyper.p_norm)
    same_part = (d * same).sum()
    diff_part = ((hyper.alpha - d).relu() * (1.0 - same)).sum()
    return (same_part + diff_part) * (1.0 / len(pairs))


def quadruplet_loss_mean(embeddings: Tensor, quadruplets, hyper: LossHyper) -> Tensor:
    """Mean quadruplet loss over (anchor, positive, negative1, negative2) units."""
    if not quadruplets:
        raise ContractError("no quadruplets to average")
    hyper.require_quadruplet_margins()
    a = np.array([q.anchor for q in quadruplets], dtype=np.intp)
    p = np.array([q.positive for q in quadruplets], dtype=np.intp)
    n1 = np.array([q.negative1 for q in quadruplets], dtype=np.intp)
    n2 = np.array([q.negative2 for q in quadruplets], dtype=np.intp)
    fa, fp = embeddings.take(a), embeddings.take(p)
    fn1, fn2 = embeddings.take(n1), embeddings.take(n2)
    d_ap = lp_distance_rows(fa, fp, hyper.p_norm)
    first = (d_ap + hyper.alpha - lp_distance_rows(fa, fn1, hyper.p_norm)).relu()
    second = (d_ap + hyper.beta - lp_distance_rows(fn1, fn2, hyper.p_norm)).relu()
    return (first + second).mean()


def center_triplet_loss_mean(anchor_rows: Tensor, anchor_centers: Tensor,
                             negative_centers: Tensor, hyper: LossHyper) -> Tensor:
    """Mean center-involved triplet loss over aligned [n, D] row tensors."""
    d_ac = lp_distance_rows(anchor_rows, anchor_centers, hyper.p_norm)
    d_nc = lp_distance_rows(anchor_rows, negative_centers, hyper.p_norm)
    return (d_ac + hyper.alpha - d_nc).relu().mean()


def center_pairwise_loss_mean(anchor_rows: Tensor, center_rows: Tensor,
                              same_mask, hyper: LossHyper) -> Tensor:
    """Mean center-involved pairwise loss over aligned [n, D] row tensors."""
    same = np.asarray(same_mask, dtype=np.float64)
    d = lp_distance_rows(anchor_rows, center_rows, hyper.p_norm)
    same_part = (d * same).sum()
    diff_part = ((hyper.alpha - d).relu() * (1.0 - same)).sum()
    return (same_part + diff_part) * (1.0 / d.data.size)


def center_quadruplet_loss_mean(anchor_rows: Tensor, own_centers: Tensor,
                                neg1_centers: Tensor, neg2_centers: Tensor,
                                hyper: LossHyper) -> Tensor:
    """Mean center-involved quadruplet loss over aligned [n, D] row tensors."""
    hyper.require_quadruplet_margins()
    p = hyper.p_norm
    d_ap = lp_distance_rows(anchor_rows, own_centers, p)
    first = (d_ap + hyper.alpha - lp_distance_rows(anchor_rows, neg1_centers, p)).relu()
    second = (d_ap + hyper.beta - lp_distance_rows(neg1_centers, neg2_centers, p)).relu()
    return (first + second).mean()


def _class_weights(logits: Tensor, weights):
    """Per-class weights as a length-K array, checked against [B, K] logits."""
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.float64)
    if logits.data.ndim != 2 or w.shape != (logits.data.shape[1],):
        raise ShapeError(f"weights must hold one entry per class of the logits "
                         f"{logits.data.shape}, got shape {w.shape}")
    return w


def cross_entropy_mean(logits: Tensor, labels, weights=None) -> Tensor:
    """Mean of per-sample weighted cross entropies over a [B, K] logit tensor."""
    w = _class_weights(logits, weights)
    labels = np.asarray(labels, dtype=np.intp)
    log_pt = logits.log_softmax_pick(labels)
    if w is None:
        return (-log_pt).mean()
    return ((-log_pt) * w[labels]).mean()


def focal_loss_mean(logits: Tensor, labels, gamma: float = 2.0, weights=None) -> Tensor:
    """Mean of per-sample weighted focal losses over a [B, K] logit tensor."""
    if gamma < 0:
        raise ContractError(f"gamma must be >= 0, got {gamma}")
    w = _class_weights(logits, weights)
    labels = np.asarray(labels, dtype=np.intp)
    log_pt = logits.log_softmax_pick(labels)
    nll = -log_pt
    if gamma != 0:
        nll = (1.0 - log_pt.exp()).pow(float(gamma)) * nll
    if w is not None:
        nll = nll * w[labels]
    return nll.mean()
