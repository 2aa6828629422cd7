"""Per-unit scalar forms of the losses and of nearest-center prediction.

The package computes every loss batch-wise (``tricenter.losses``) and
predicts batch-wise (``centers.nearest_center_predict_batch``).  These are
the one-unit forms, written as the formulas read: the three metric losses,
their center-involved variants, cross entropy, focal loss, the mean of a
list of unit losses, and the nearest center of one embedding.  The tests
pin the batched code to them.  ``log`` is the graph node the log-sum-exp
oracles need.
"""

from __future__ import annotations

import numpy as np

from tricenter.autodiff import Tensor
from tricenter.centers import CenterTable
from tricenter.distance import euclidean_cdist
from tricenter.errors import ContractError, ShapeError
from tricenter.losses import LossHyper


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def log(a: Tensor) -> Tensor:
    """Elementwise natural log as a graph node; the engine has no log op."""
    return Tensor._from_op(np.log(a.data), (a,), lambda g: (g / a.data,))


def euclidean_distance(x, y) -> Tensor:
    """(sum (x_i - y_i)^2)^(1/2) between two same-length vectors.

    The distance is differentiable wherever d > 0: a zero coordinate of
    x - y is not a kink, so its only kink is at d = 0.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    if x.data.shape != y.data.shape or x.data.ndim != 1:
        raise ShapeError(f"distance operands must be vectors of one length, "
                         f"got {x.data.shape} vs {y.data.shape}")
    return x.euclidean_dist(y)


def triplet_loss(f_a, f_p, f_n, hyper: LossHyper) -> Tensor:
    """Hinge on (anchor-positive distance + alpha - anchor-negative distance)."""
    d_ap = euclidean_distance(f_a, f_p)
    d_an = euclidean_distance(f_a, f_n)
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
    d = euclidean_distance(f_a, f_b)
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
    d_ap = euclidean_distance(f_a, f_p)
    first = (d_ap + hyper.alpha - euclidean_distance(f_a, f_n1)).relu()
    second = (d_ap + hyper.beta - euclidean_distance(f_n1, f_n2)).relu()
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
    log_probs = shifted - log(shifted.exp().sum())
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
    log_probs = shifted - log(shifted.exp().sum())
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


def nearest_center_predict(embedding, centers: CenterTable):
    """Classify one embedding to the closest center; ties go to the
    smallest class id.

    Returns (class_id, distance_vector) with one distance per class.
    """
    emb = embedding.data if isinstance(embedding, Tensor) else np.asarray(embedding, dtype=np.float64)
    dim = centers.matrix.shape[1]
    if emb.ndim != 1 or emb.shape[0] != dim:
        raise ContractError(f"embedding shape {emb.shape} does not match center dim {dim}")
    dists = euclidean_cdist(emb[None, :], centers.matrix)[0]
    return int(np.argmin(dists)), dists
