"""The L_p distance kernel shared by mining, prediction and diagnostics.

Every non-differentiable L_p distance in the package goes through
``lp_norm``; the differentiable twin used by the losses is the fused
autodiff op ``Tensor.lp_dist`` (one graph node, reached through
``losses.lp_distance_rows``).  The values are bit for bit those of the naive
``(np.abs(x - y) ** p).sum(-1) ** (1 / p)``, so seeded mining and prediction
do not change with the kernel, its ``BLOCK_FLOATS`` row blocks (rows are
independent) or its mirrored self case (``|x - y|`` rounds as ``|y - x|``).
"""

from __future__ import annotations

import numpy as np

BLOCK_FLOATS = 1 << 17  # float64 values (1 MB) per [rows, M, D] difference block


def lp_norm(diff: np.ndarray, p: int) -> np.ndarray:
    """L_p norm of ``diff`` along its last axis; overwrites ``diff``.

    ``|diff|^p`` is computed in place (``diff * diff`` for p = 2, which
    equals ``np.abs(diff) ** 2`` exactly), then summed over the contiguous
    last axis, so the summation order is that of the naive formula.
    """
    if p == 2:
        np.multiply(diff, diff, out=diff)
    else:
        np.abs(diff, out=diff)
        if p != 1:
            np.power(diff, p, out=diff)
    s = diff.sum(axis=-1)
    return s if p == 1 else s ** (1.0 / p)


def lp_cdist(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """[N, M] matrix of L_p distances between the rows of ``a`` [N, D] and ``b`` [M, D].

    This is the exact broadcast ``|a_i - b_j|^p`` form, not the Gram form
    ``|a|^2 + |b|^2 - 2 a @ b.T`` for p = 2: the Gram form is faster but
    differs from the exact distance by about 5e-7 on typical embeddings,
    which moves anchors across the edges of the semi-hard band and changes
    which triplets a seeded run mines.  For ``lp_cdist(a, a, p)`` each row
    block starts at the column of its first row, and the rest is mirrored.
    """
    rows = max(1, BLOCK_FLOATS // max(1, b.size))
    out = np.empty((a.shape[0], b.shape[0]))
    for start in range(0, a.shape[0], rows):
        first = start if b is a else 0
        out[start:start + rows, first:] = lp_norm(a[start:start + rows, None, :] - b[None, first:, :], p)
    if b is a:
        np.copyto(out, out.T, where=np.tri(len(a), k=-1, dtype=bool))
    return out
