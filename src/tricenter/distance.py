"""The Euclidean distance kernels shared by mining, prediction and diagnostics.

Every distance in the package is Euclidean.  Every non-differentiable one
goes through ``euclidean_norm``; the differentiable twin used by the losses
is the fused autodiff op ``Tensor.euclidean_dist`` (one graph node, reached
through ``losses.distance_rows``).  The values are bit for bit those of the naive
``((x - y) ** 2).sum(-1) ** 0.5``, so seeded mining and prediction do not
change with the kernel or its ``BLOCK_FLOATS`` row blocks (rows are
independent).

Prediction needs only the nearest row, and stage-1 mining only which
distances fall inside a band; both decide most of it from Gram values
``|a|^2 + |b|^2 - 2 a.b``, which BLAS computes, bracketed by ``gram_bracket``.
Only what the bracket cannot decide gets exact distances, so the labels and
the mined units are those of the naive formula.
"""

from __future__ import annotations

import numpy as np

BLOCK_FLOATS = 1 << 17  # float64 values (1 MB) per [rows, M, D] difference block
EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).smallest_subnormal


def euclidean_norm(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of ``diff`` along its last axis; overwrites ``diff``.

    ``diff * diff`` is computed in place, then summed over the contiguous
    last axis, so the summation order is that of the naive formula.
    """
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=-1) ** 0.5


def euclidean_cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[N, M] matrix of Euclidean distances between the rows of ``a`` [N, D] and ``b`` [M, D].

    This is the exact broadcast ``|a_i - b_j|^2`` form, not the Gram form
    ``|a|^2 + |b|^2 - 2 a @ b.T``: the Gram form is faster but differs from
    the exact distance by about 5e-7 on typical embeddings, so it serves only
    as a bracket (``gram_bracket``) that decides what it can and leaves the
    rest to this form.
    """
    rows = max(1, BLOCK_FLOATS // max(1, b.size))
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], rows):
        out[start:start + rows] = euclidean_norm(a[start:start + rows, None, :] - b[None, :, :])
    return out


def gram_bracket(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[N, M] bounds ``(lower, upper)`` on the squared sums behind ``euclidean_cdist(a, b)``.

    A computed inner product of length D errs by at most ``gamma_D sum |x_k y_k|``,
    where ``gamma_n = n u / (1 - n u)`` and ``u = eps / 2``, in any summation
    order, FMA or not (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, section 3.1).  With ``N = |a|^2 + |b|^2`` and
    ``s = |a - b|^2 <= 2 N``, the Gram value ``g = |a|^2 + |b|^2 - 2 a.b`` (two
    norms, one product with ``|a.b| <= N / 2``, two sums) is within
    ``2 gamma_(D+2) N`` of ``s``, and the squared sum of ``euclidean_cdist``
    (a difference, a square, D - 1 sums of non-negative terms) is within
    ``gamma_(D+2) s``.  The two differ by about ``2 (D + 2) eps N`` at most;
    the bracket ``g +- c (D + 3) eps t``, with ``t`` the computed N, takes
    ``c = 4``, which also covers ``t`` against N and the bracket's own
    rounding.  ``4 (D + 3) tiny`` adds the underflow of at most 5 D products,
    ``tiny / 2`` each.  Non-finite or overflowing values give a non-finite
    ``upper`` or a NaN, which bounds nothing: callers treat such entries as
    undecided.
    """
    dim = a.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # such entries are undecided
        norms = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)
        gram = a @ np.ascontiguousarray(b.T)  # BLAS runs about twice as fast as on b.T
        gram *= -2.0
        gram += norms
        slack = np.multiply(norms, 4 * (dim + 3) * EPS, out=norms)
        slack += 4 * (dim + 3) * TINY
        upper = gram + slack
        lower = np.subtract(gram, slack, out=gram)
    return lower, upper


def euclidean_argmin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index of the nearest row of ``b`` [M, D] for each row of ``a`` [N, D]:
    exactly ``euclidean_cdist(a, b).argmin(axis=1)``, ties to the smaller index.

    A row is decided when every other lower bound of ``gram_bracket`` exceeds
    the best upper bound times ``1 + 4 eps``, a gap that two correctly
    rounded square roots cannot close.  The other rows get exact distances
    from ``euclidean_cdist``: near-ties, hits on duplicated rows of ``b``,
    and non-finite or overflowing values, since a comparison with NaN is
    false.
    """
    lower, upper = gram_bracket(a, b)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are undecided
        best = upper.argmin(axis=1)
        rows = np.arange(a.shape[0])
        bound = upper[rows, best] * (1 + 4 * EPS)
        lower[rows, best] = np.inf
        decided = (lower > bound[:, None]).all(axis=1) & np.isfinite(bound)
    undecided = np.flatnonzero(~decided)
    if undecided.size:
        best[undecided] = euclidean_cdist(a[undecided], b).argmin(axis=1)
    return best
