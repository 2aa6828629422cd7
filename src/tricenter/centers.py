"""Class-center lifecycle: computed tables, trainable tables, and prediction.

A computed table holds the per-class mean embedding of the training set
under a fixed extractor state (the state of the previous epoch during
stage-2 training).  A trainable table is an ordinary parameter matrix
updated by the optimizer together with the extractor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad
from .distance import lp_cdist
from .errors import ContractError
from .sampling import DatasetIndex

FORWARD_CHUNK = 512  # bounds memory of full-dataset passes


@dataclass
class CenterTable:
    """K x D class-center matrix, either computed or trainable."""

    table: Tensor
    mode: str  # "computed" | "trainable"
    source_epoch: int | None = None
    source_fingerprint: str | None = None

    def __post_init__(self):
        if self.mode not in ("computed", "trainable"):
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

    @property
    def dim(self) -> int:
        return self.table.data.shape[1]

    def rows(self, class_ids) -> Tensor:
        """Differentiable row gather; gradients reach the table in trainable mode."""
        return self.table.take(np.asarray(class_ids, dtype=np.intp))


def embed_all(extractor, features: np.ndarray, chunk: int = FORWARD_CHUNK) -> np.ndarray:
    """Forward a whole feature matrix without building a graph."""
    out = np.empty((features.shape[0], extractor.out_dim))
    with no_grad():
        for start in range(0, features.shape[0], chunk):
            stop = min(start + chunk, features.shape[0])
            out[start:stop] = extractor(Tensor(features[start:stop])).data
    return out


def compute_centers(extractor, features: np.ndarray, index: DatasetIndex,
                    source_epoch: int | None = None,
                    source_fingerprint: str | None = None) -> CenterTable:
    """Average the embeddings of each class's training samples into a center row."""
    index.require_nonempty_classes()
    emb = embed_all(extractor, features)
    rows = np.stack([emb[members].mean(axis=0) for members in index.by_class])
    return CenterTable(Tensor(rows), mode="computed",
                       source_epoch=source_epoch, source_fingerprint=source_fingerprint)


def init_trainable_centers(n_classes: int, dim: int, init: str = "from_computed",
                           rng: np.random.Generator | None = None,
                           source: CenterTable | None = None) -> CenterTable:
    """Create a trainable table, warm-started from a computed one or random."""
    if n_classes < 1 or dim < 1:
        raise ContractError("center table needs n_classes >= 1 and dim >= 1")
    if init == "from_computed":
        if source is None:
            raise ContractError("init='from_computed' needs a source table")
        if source.matrix.shape != (n_classes, dim):
            raise ContractError(f"source table shape {source.matrix.shape} does not match "
                                f"({n_classes}, {dim})")
        rows = source.matrix.copy()
    elif init == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        rows = rng.standard_normal((n_classes, dim))
    else:
        raise ContractError(f"unknown center init {init!r}")
    return CenterTable(Tensor(rows, requires_grad=True), mode="trainable")


def nearest_center_predict_batch(embeddings: np.ndarray, centers: CenterTable,
                                 p_norm: int = 2):
    """Nearest-center prediction; returns (labels[N], distances[N, K]).

    Ties go to the smallest class id.  The distances are filled
    ``FORWARD_CHUNK`` rows at a time, so the ``[rows, K, D]`` difference
    never spans the whole input.
    """
    emb = embeddings.data if isinstance(embeddings, Tensor) else np.asarray(embeddings, dtype=np.float64)
    dists = np.empty((emb.shape[0], centers.n_classes))
    for start in range(0, emb.shape[0], FORWARD_CHUNK):
        stop = start + FORWARD_CHUNK
        dists[start:stop] = lp_cdist(emb[start:stop], centers.matrix, p_norm)
    return dists.argmin(axis=1), dists
