"""Metric-learning and classification losses over batches, as Tensors.

There is one batched loss per metric family (triplet, pairwise,
quadruplet).  Each takes aligned [n, D] row tensors, one per role of a
sampling unit, and returns the mean loss over the n units.  Stage 1 feeds
it embedding rows.  Stage 2 feeds it the anchors' embedding rows with
class-center rows in place of the positive and the negatives, which is how
the center-involved losses are defined.  Distances are Euclidean, never
squared and never normalized.  Hinges use max(0, .) with gradient 0
at the kink.

One classification loss, ``cross_entropy_mean`` with an optional focal
factor, serves every baseline; a two-stage run has no classifier head.  The
per-unit scalar forms of all these losses, focal loss included, live in the
tests as oracles; the tests pin each batched loss to the mean of its scalar
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, ShapeError


@dataclass
class LossHyper:
    """Margins shared by the metric losses.

    alpha is the main margin (default 0.5), beta the secondary margin of the
    quadruplet losses and must stay below alpha there.
    """

    alpha: float = 0.5
    beta: float = 0.25

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0 and math.isfinite(self.beta)):
            raise ContractError(f"margins must be finite and alpha nonnegative, "
                                f"got alpha={self.alpha}, beta={self.beta}")

    def require_quadruplet_margins(self):
        if not self.beta < self.alpha:
            raise ContractError(
                f"quadruplet losses need beta < alpha, got beta={self.beta} alpha={self.alpha}")


def lp_distance_rows(x: Tensor, y: Tensor) -> Tensor:
    """Row-wise Euclidean distances between two [n, D] tensors; returns
    shape [n].  A distance is differentiable wherever d > 0, so its only
    kink is at d = 0."""
    if x.data.shape != y.data.shape or x.data.ndim != 2:
        raise ShapeError(f"row distances need matching 2-D shapes, got {x.data.shape} vs {y.data.shape}")
    if x.data.shape[0] == 0:
        raise ContractError("no units to average; skip empty batches upstream")
    return x.lp_dist(y)


def inverse_frequency_weights(class_sizes) -> np.ndarray:
    """Per-class weights N_total / (K * N_k); the sample-mean weight is 1."""
    sizes = np.asarray(class_sizes, dtype=np.float64)
    if np.any(sizes <= 0):
        raise ContractError("class sizes must be positive to form inverse-frequency weights")
    return sizes.sum() / (sizes.size * sizes)


def triplet_loss_mean(a: Tensor, p: Tensor, n: Tensor, hyper: LossHyper) -> Tensor:
    """Mean hinge on d(a, p) + alpha - d(a, n) over aligned [n, D] rows."""
    d_ap = lp_distance_rows(a, p)
    d_an = lp_distance_rows(a, n)
    return (d_ap + hyper.alpha - d_an).relu().mean()


def pairwise_loss_mean(a: Tensor, b: Tensor, same, hyper: LossHyper) -> Tensor:
    """Mean of d(a, b) for same-class rows and hinge(alpha - d(a, b)) for the rest.

    ``same`` holds one truth value per row.
    """
    same = np.asarray(same, dtype=np.float64)
    d = lp_distance_rows(a, b)
    same_part = (d * same).sum()
    diff_part = ((hyper.alpha - d).relu() * (1.0 - same)).sum()
    return (same_part + diff_part) * (1.0 / d.data.size)


def quadruplet_loss_mean(a: Tensor, p: Tensor, n1: Tensor, n2: Tensor,
                         hyper: LossHyper) -> Tensor:
    """Mean triplet hinge plus a secondary hinge d(a, p) + beta - d(n1, n2).

    The rows are aligned [n, D] tensors; n1 and n2 come from two distinct
    classes, both other than the anchor's.
    """
    hyper.require_quadruplet_margins()
    d_ap = lp_distance_rows(a, p)
    first = (d_ap + hyper.alpha - lp_distance_rows(a, n1)).relu()
    second = (d_ap + hyper.beta - lp_distance_rows(n1, n2)).relu()
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


def cross_entropy_mean(logits: Tensor, labels, weights=None, gamma: float = 0.0) -> Tensor:
    """Mean of per-sample weighted focal losses -(1 - p_t)^gamma log p_t over a
    [B, K] logit tensor.  At gamma = 0 no focal factor is formed: this is plain
    (weighted) cross entropy, node for node."""
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
