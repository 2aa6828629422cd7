"""Class-center lifecycle: computed tables, trainable tables, and prediction.

A computed table holds the per-class mean embedding of the training set
under a fixed extractor state (the state of the previous epoch during
stage-2 training).  A trainable table is an ordinary parameter matrix
updated by the optimizer together with the extractor.  Either table carries
the L_p order it was trained under, and nearest-center prediction uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .distance import lp_cdist
from .errors import ContractError
from .sampling import DatasetIndex

FORWARD_CHUNK = 512  # rows per forward pass in embed_all and per block of workflows.predict
CENTER_MODES = ("computed", "trainable")


@dataclass
class CenterTable:
    """K x D class-center matrix, either computed or trainable, and the
    L_p order ``p_norm`` that distances to its rows are measured in."""

    table: Tensor
    mode: str  # one of CENTER_MODES
    source_epoch: int | None = None
    p_norm: int = 2

    def __post_init__(self):
        if self.mode not in CENTER_MODES:
            raise ContractError(f"unknown center mode {self.mode!r}")
        if self.table.data.ndim != 2:
            raise ContractError("center table must be a K x D matrix")
        if not np.all(np.isfinite(self.table.data)):
            raise ContractError("center table holds non-finite values")
        if not (isinstance(self.p_norm, int) and self.p_norm >= 1):
            raise ContractError(f"center p_norm must be a positive integer, got {self.p_norm!r}")

    @property
    def matrix(self) -> np.ndarray:
        return self.table.data

    @property
    def n_classes(self) -> int:
        return self.table.data.shape[0]


def embed_all(extractor, features: np.ndarray) -> np.ndarray:
    """Forward a whole feature matrix without building a graph,
    ``FORWARD_CHUNK`` rows per pass.

    The ``[N, out_dim]`` result spans the input.  ``workflows.predict`` calls
    this on one ``FORWARD_CHUNK`` block at a time, which forwards the same
    chunks as one call over the whole matrix, and never holds the result."""
    out = np.empty((features.shape[0], extractor.out_dim))
    with no_grad():
        for start in range(0, features.shape[0], FORWARD_CHUNK):
            stop = min(start + FORWARD_CHUNK, features.shape[0])
            out[start:stop] = extractor(Tensor(features[start:stop])).data
    return out


def compute_centers(extractor, features: np.ndarray, index: DatasetIndex,
                    source_epoch: int | None = None, p_norm: int = 2) -> CenterTable:
    """Average the embeddings of each class's training samples into a center row."""
    index.require_nonempty_classes()
    emb = embed_all(extractor, features)
    rows = np.stack([emb[members].mean(axis=0) for members in index.by_class])
    return CenterTable(Tensor(rows), mode="computed", source_epoch=source_epoch, p_norm=p_norm)


def nearest_center_predict_batch(embeddings: np.ndarray, centers: CenterTable):
    """Nearest-center prediction under the table's L_p order; returns
    (labels[N], distances[N, K]).

    Ties go to the smallest class id.  ``lp_cdist`` blocks the ``[rows, K, D]``
    difference to cache size, so it never spans the whole input.
    """
    dists = lp_cdist(embeddings, centers.matrix, centers.p_norm)
    return dists.argmin(axis=1), dists
