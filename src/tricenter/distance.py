"""The Euclidean distance kernels shared by mining, prediction and diagnostics.

Every distance in the package is Euclidean.  Every non-differentiable one
goes through ``euclidean_norm``; the differentiable twin used by the losses
is the fused autodiff op ``Tensor.euclidean_dist`` (one graph node, reached
through ``losses.distance_rows``).  The values are bit for bit those of the naive
``((x - y) ** 2).sum(-1) ** 0.5``, so seeded mining and prediction do not
change with the kernel or its ``BLOCK_FLOATS`` row blocks (rows are
independent).

Prediction needs only the nearest row, and stage-1 mining only which
distances fall inside a band and which is the smallest; both decide most of
it from Gram values ``|a|^2 + |b|^2 - 2 a.b``, which BLAS computes.
``euclidean_bounds`` turns them into bounds ``lo <= d <= hi`` on each
distance, and ``bounded_argmin`` is the one rule that decides a smallest
distance from such bounds.  Only what the bounds cannot decide gets exact
distances, so the labels and the mined units are those of the naive formula.
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
    for bounds (``euclidean_bounds``) that decide what they can, through
    ``bounded_argmin`` or a band test, and leave the rest to this form.
    """
    rows = max(1, BLOCK_FLOATS // max(1, b.size))
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], rows):
        out[start:start + rows] = euclidean_norm(a[start:start + rows, None, :] - b[None, :, :])
    return out


def euclidean_bounds(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[N, M] bounds ``lo <= d <= hi`` on every distance d of ``euclidean_cdist(a, b)``.

    They are the square roots of a bracket on the squared sums behind d.  A
    computed inner product of length D errs by at most ``gamma_D sum |x_k y_k|``,
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
    ``tiny / 2`` each.  A correctly rounded square root is monotone, so the
    roots of the bracket ends bound d, the root of the squared sum.
    Non-finite or overflowing values give a non-finite upper end, which
    bounds nothing: there both bounds are NaN, so every comparison with them
    is false and leaves the entry undecided.
    """
    dim = a.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # such entries become NaN below
        norms = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)
        gram = a @ np.ascontiguousarray(b.T)  # BLAS runs about twice as fast as on b.T
        gram *= -2.0
        gram += norms
        slack = np.multiply(norms, 4 * (dim + 3) * EPS, out=norms)
        slack += 4 * (dim + 3) * TINY
        upper = gram + slack
        lower = np.subtract(gram, slack, out=gram)
    unbounded = ~np.isfinite(upper)
    lower[unbounded] = upper[unbounded] = np.nan
    return np.sqrt(np.maximum(lower, 0.0, out=lower), out=lower), np.sqrt(upper, out=upper)


def bounded_argmin(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the [N, M] bounds ``lo <= d <= hi``, the column of the
    smallest ``hi``, and the rows the bounds leave open.

    A row's column is its argmin of d, ties to the smaller index, unless some
    other ``lo`` of the row does not exceed that column's ``hi``; those rows
    (near-ties, equal distances, NaN bounds) are returned, ascending, for the
    caller to decide from exact distances.  Neither input is modified.
    """
    rows = np.arange(len(hi))
    best = hi.argmin(axis=1)
    beaten = lo > hi[rows, best][:, None]
    beaten[rows, best] = True
    return best, np.flatnonzero(~beaten.all(axis=1))


def euclidean_argmin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index of the nearest row of ``b`` [M, D] for each row of ``a`` [N, D]:
    exactly ``euclidean_cdist(a, b).argmin(axis=1)``, ties to the smaller index.

    ``bounded_argmin`` decides each row from ``euclidean_bounds``; the rows it
    leaves open get exact distances from ``euclidean_cdist``: near-ties, hits
    on duplicated rows of ``b``, and non-finite or overflowing values.
    """
    best, undecided = bounded_argmin(*euclidean_bounds(a, b))
    if undecided.size:
        best[undecided] = euclidean_cdist(a[undecided], b).argmin(axis=1)
    return best
