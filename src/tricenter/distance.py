"""The Euclidean distance kernel shared by mining, prediction and diagnostics.

Every distance in the package is Euclidean.  Every non-differentiable one
goes through ``lp_norm``; the differentiable twin used by the losses is the
fused autodiff op ``Tensor.lp_dist`` (one graph node, reached through
``losses.lp_distance_rows``).  The values are bit for bit those of the naive
``((x - y) ** 2).sum(-1) ** 0.5``, so seeded mining and prediction do not
change with the kernel, its ``BLOCK_FLOATS`` row blocks (rows are
independent) or its mirrored self case (``|x - y|`` rounds as ``|y - x|``).
"""

from __future__ import annotations

import numpy as np

BLOCK_FLOATS = 1 << 17  # float64 values (1 MB) per [rows, M, D] difference block


def lp_norm(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of ``diff`` along its last axis; overwrites ``diff``.

    ``diff * diff`` is computed in place, then summed over the contiguous
    last axis, so the summation order is that of the naive formula.
    """
    np.multiply(diff, diff, out=diff)
    return diff.sum(axis=-1) ** 0.5


def lp_cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[N, M] matrix of Euclidean distances between the rows of ``a`` [N, D] and ``b`` [M, D].

    This is the exact broadcast ``|a_i - b_j|^2`` form, not the Gram form
    ``|a|^2 + |b|^2 - 2 a @ b.T``: the Gram form is faster but differs from
    the exact distance by about 5e-7 on typical embeddings, which moves
    anchors across the edges of the semi-hard band and changes which
    triplets a seeded run mines.  For ``lp_cdist(a, a)`` each row block
    starts at the column of its first row, and the rest is mirrored.
    """
    rows = max(1, BLOCK_FLOATS // max(1, b.size))
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], rows):
        first = start if b is a else 0
        out[start:start + rows, first:] = lp_norm(a[start:start + rows, None, :] - b[None, first:, :])
    if b is a:
        np.copyto(out, out.T, where=np.tri(len(a), k=-1, dtype=bool))
    return out
