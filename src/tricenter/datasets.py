"""Synthetic imbalanced datasets and CSV ingestion.

The bundled ``skin7-like`` preset is a 7-class long-tailed benchmark whose
class sizes taper geometrically from 335 down to 6 (imbalance ratio ~56),
standing in for dermatology-scale imbalance at desk scale.  Class means sit
on a scaled simplex (one-hot corners) in a 16-dimensional input space with
unit isotropic noise, which leaves the classes moderately overlapping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataFormatError
from .sampling import DatasetIndex


@dataclass
class SyntheticSpec:
    """Parameters of a Gaussian-mixture imbalanced dataset."""

    sizes: list
    means: np.ndarray  # [K, in_dim]
    sigmas: np.ndarray  # [K]
    seed: int = 0
    name: str = "custom"

    def __post_init__(self):
        self.sizes = [int(n) for n in self.sizes]
        self.means = np.asarray(self.means, dtype=np.float64)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if any(n < 1 for n in self.sizes):
            raise ContractError("every class size must be >= 1")
        if self.means.ndim != 2 or self.means.shape[0] != len(self.sizes):
            raise ContractError("means must be a [K, in_dim] matrix matching sizes")
        if self.sigmas.shape != (len(self.sizes),) or np.any(self.sigmas <= 0):
            raise ContractError("sigmas must be positive, one per class")

    @property
    def n_classes(self) -> int:
        return len(self.sizes)

    @property
    def in_dim(self) -> int:
        return self.means.shape[1]

    @property
    def imbalance_ratio(self) -> float:
        return max(self.sizes) / min(self.sizes)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "sizes": self.sizes, "seed": self.seed,
                "means": self.means.tolist(), "sigmas": self.sigmas.tolist()}


@dataclass
class Dataset:
    features: np.ndarray  # [N, in_dim]
    labels: np.ndarray  # [N]
    forced_n_classes: int | None = None  # keep the global K on subsets
    index: DatasetIndex = field(init=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ContractError("features must be [N, in_dim] with one label per row")
        if not np.all(np.isfinite(self.features)):
            raise ContractError("features hold non-finite values")
        self.index = DatasetIndex.from_labels(self.labels, self.forced_n_classes)

    @property
    def n_classes(self) -> int:
        return self.index.n_classes

    @property
    def in_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(self.features[rows], self.labels[rows],
                       forced_n_classes=self.n_classes)


# -- presets -----------------------------------------------------------------

SKIN7_LIKE_SIZES = [335, 171, 88, 45, 23, 12, 6]
SKIN7_LIKE_IN_DIM = 16
SKIN7_LIKE_SEPARATION = 3.0
SKIN7_LIKE_SIGMA = 1.0


def simplex_means(n_classes: int, in_dim: int, separation: float) -> np.ndarray:
    """Class means at scaled one-hot corners: a regular simplex with side sep*sqrt(2)."""
    if in_dim < n_classes:
        raise ContractError(f"in_dim {in_dim} must be >= n_classes {n_classes} for simplex means")
    means = np.zeros((n_classes, in_dim))
    means[np.arange(n_classes), np.arange(n_classes)] = separation
    return means


def preset_spec(name: str, seed: int = 0) -> SyntheticSpec:
    if name == "skin7-like":
        k = len(SKIN7_LIKE_SIZES)
        return SyntheticSpec(
            sizes=SKIN7_LIKE_SIZES,
            means=simplex_means(k, SKIN7_LIKE_IN_DIM, SKIN7_LIKE_SEPARATION),
            sigmas=np.full(k, SKIN7_LIKE_SIGMA),
            seed=seed,
            name=name,
        )
    raise ContractError(f"unknown preset {name!r}; available: skin7-like")


def gen_gaussian_imbalanced(spec: SyntheticSpec) -> Dataset:
    """Draw class-k samples from an isotropic Gaussian at mean_k with std sigma_k.

    Rows come out grouped by class (class 0 first); deterministic under the
    spec's seed.
    """
    rng = np.random.default_rng(spec.seed)
    blocks, labels = [], []
    for c, n in enumerate(spec.sizes):
        blocks.append(spec.means[c] + spec.sigmas[c] * rng.standard_normal((n, spec.in_dim)))
        labels.append(np.full(n, c, dtype=np.intp))
    return Dataset(np.vstack(blocks), np.concatenate(labels))


# -- CSV ingestion -----------------------------------------------------------

def save_csv(dataset: Dataset, path, spec: SyntheticSpec | None = None) -> None:
    """Write ``label,f0,f1,...`` rows; floats use shortest round-trip repr."""
    cols = dataset.features.shape[1]
    with open(path, "w") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(cols)) + "\n")
        for lab, row in zip(dataset.labels, dataset.features):
            fh.write(str(int(lab)) + "," + ",".join(repr(float(v)) for v in row) + "\n")
    if spec is not None:
        with open(str(path) + ".spec.json", "w") as fh:
            json.dump(spec.to_json_dict(), fh, indent=1, sort_keys=True)


def load_csv(path) -> Dataset:
    """Parse a ``label,f0,f1,...`` file; raises DataFormatError with the bad line number.

    Each non-blank line after the header holds as many comma-separated fields
    as the header: a nonnegative label as ``int()`` reads it, then finite
    features as ``float()`` reads them; no quoting, no comments.  The line
    loop defines a valid row.  One ``np.loadtxt`` call parses the rows first
    (equal values on every spelling it accepts); when it refuses the file,
    which includes ``1_0`` and non-ASCII digits, or a width, label or
    non-finite value is wrong, the loop decides.  No label may reach the row
    count, since the labels set the class count and every K-sized structure.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    lines = text.splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise DataFormatError(f"{path}: line 1: header must be 'label,f0,f1,...'")
    width = len(header) - 1
    body = [line for line in lines[1:] if line.strip()]
    # numpy also strips the unit separator \x1f around a number; float() refuses it
    if body and "\x1f" not in text:
        try:
            table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
            labels = [int(line.partition(",")[0]) for line in body]
        except ValueError:  # the line loop below reports the bad line
            table = None
        if (table is not None and table.shape[1] == width + 1 and min(labels) >= 0
                and np.isfinite(table).all()):
            return _dataset(path, np.ascontiguousarray(table[:, 1:]), labels)
    labels, rows = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width + 1:
            raise DataFormatError(f"{path}: line {ln}: expected {width + 1} fields, got {len(parts)}")
        try:
            lab = int(parts[0])
            if lab < 0:
                raise ValueError
        except ValueError:
            raise DataFormatError(f"{path}: line {ln}: label {parts[0]!r} is not a nonnegative integer")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise DataFormatError(f"{path}: line {ln}: non-numeric feature value")
        if not all(map(math.isfinite, rows[-1])):
            raise DataFormatError(f"{path}: line {ln}: non-finite feature value")
        labels.append(lab)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return _dataset(path, np.array(rows), labels)


def _dataset(path, features: np.ndarray, labels: list) -> Dataset:
    """The Dataset of parsed rows; a class count the rows cannot hold is the file's error."""
    try:
        return Dataset(features, np.array(labels))
    except ContractError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
