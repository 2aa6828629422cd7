"""Class-center lifecycle: computed tables, trainable tables, and prediction.

A computed table holds the per-class mean embedding of the training set
under a fixed extractor state (the state of the previous epoch during
stage-2 training).  A trainable table is an ordinary parameter matrix
updated by the optimizer together with the extractor.  Nearest-center
prediction measures Euclidean distances to the rows of either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .distance import euclidean_cdist
from .errors import ContractError
from .sampling import DatasetIndex

FORWARD_CHUNK = 512  # rows per forward pass in embed_all and per block of workflows.predict
CENTER_MODES = ("computed", "trainable")


@dataclass
class CenterTable:
    """K x D class-center matrix, either computed or trainable."""

    table: Tensor
    mode: str  # one of CENTER_MODES
    source_epoch: int | None = None

    def __post_init__(self):
        if self.mode not in CENTER_MODES:
            raise ContractError(f"unknown center mode {self.mode!r}")
        if self.table.data.ndim != 2:
            raise ContractError("center table must be a K x D matrix")
        if not np.all(np.isfinite(self.table.data)):
            raise ContractError("center table holds non-finite values")

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
                    source_epoch: int | None = None) -> CenterTable:
    """Average the embeddings of each class's training samples into a center row."""
    index.require_nonempty_classes()
    emb = embed_all(extractor, features)
    rows = np.stack([emb[members].mean(axis=0) for members in index.by_class])
    return CenterTable(Tensor(rows), mode="computed", source_epoch=source_epoch)


def nearest_center_predict_batch(embeddings: np.ndarray, centers: CenterTable):
    """Nearest-center prediction; returns (labels[N], distances[N, K]).

    Ties go to the smallest class id.  ``euclidean_cdist`` blocks the ``[rows, K, D]``
    difference to cache size, so it never spans the whole input.
    """
    dists = euclidean_cdist(embeddings, centers.matrix)
    return dists.argmin(axis=1), dists
