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
    spec's seed.  Each class's draws fill its row block of the one ``[N,
    in_dim]`` matrix and are scaled and shifted there, with the rounding of
    ``mean + sigma * z``.
    """
    rng = np.random.default_rng(spec.seed)
    features = np.empty((sum(spec.sizes), spec.in_dim))
    start = 0
    for mean, sigma, n in zip(spec.means, spec.sigmas, spec.sizes):
        block = features[start:start + n]
        rng.standard_normal(out=block)
        np.multiply(sigma, block, out=block)
        np.add(mean, block, out=block)
        start += n
    return Dataset(features, np.repeat(np.arange(spec.n_classes, dtype=np.intp), spec.sizes))


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


SCAN_CHARS = 1 << 20  # characters per read while load_csv scans a file
# str.splitlines() also ends a line at each of these, and numpy strips \x1f
# around a number where int() and float() refuse it
_LOOP_ONLY = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _loop_only(text: str) -> bool:
    return any(ch in text for ch in _LOOP_ONLY)  # one fast find per character


def load_csv(path, n_classes: int | None = None) -> Dataset:
    """Parse a ``label,f0,f1,...`` file; raises DataFormatError with the bad line number.

    Each non-blank line after the header holds as many comma-separated fields
    as the header: a nonnegative label as ``int()`` reads it, then finite
    features as ``float()`` reads them; no quoting, no comments.  A leading
    UTF-8 byte-order mark, as spreadsheets write one, is skipped.  The line
    loop defines a valid row.  The labels set the class count and every
    K-sized structure, so no label may reach the row count; with
    ``n_classes`` (the classes of a model that scores the rows) no label may
    reach that count instead.

    ``_parse_plain`` reads the file first without holding its text or a list
    of its lines; when it declines the file, the line loop reads it whole
    and decides, so both accept the same files with the same values.  The
    features of a file that ``_parse_plain`` reads are a view of its parsed
    records, not a C-contiguous copy: rows ``in_dim + 1`` floats apart.
    """
    try:
        parsed = _parse_plain(path)
    except UnicodeDecodeError:  # the line loop names the byte
        parsed = None
    features, labels = parsed if parsed is not None else _parse_lines(path)
    try:
        return Dataset(features, labels, forced_n_classes=n_classes)
    except ContractError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _parse_plain(path):
    """(features, labels) of a file by one structured ``np.loadtxt`` call, or None.

    A scan in ``SCAN_CHARS`` reads first declines a file holding a character
    of ``_LOOP_ONLY`` or no data rows (numpy would warn on those).  numpy's
    integer parser accepts a subset of the labels that ``int()`` reads, with
    equal values (``1_0``, non-ASCII digits and labels past 64 bits are
    refused), and its float parser equals ``float()`` on every spelling it
    accepts.  numpy reads the file's lines as they come, without the
    whitespace-only ones the line loop skips.  A refusal, a wrong width, a
    negative label or a non-finite value declines the file, so the line loop
    reports its line.  The features returned are the ``features`` field of
    the parsed records, a view whose rows sit ``in_dim + 1`` floats apart,
    so the file's values are held once.
    """
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline()
        fields = header.rstrip("\n").split(",")
        if fields[0] != "label" or len(fields) < 2 or _loop_only(header):
            return None
        body, rows = fh.tell(), False
        for chunk in iter(lambda: fh.read(SCAN_CHARS), ""):
            if _loop_only(chunk):
                return None
            rows = rows or not chunk.isspace()
        if not rows:
            return None
        fh.seek(body)
        dtype = np.dtype([("label", np.intp), ("features", np.float64, (len(fields) - 1,))])
        try:
            table = np.loadtxt((line for line in fh if not line.isspace()), dtype=dtype,
                               delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None
    labels, features = table["label"], table["features"]
    if labels.min() < 0 or not np.isfinite(features).all():
        return None
    return features, labels.copy()


def _parse_lines(path):
    """(features, labels) of a file by the line loop that defines a valid row."""
    try:
        with open(path, encoding="utf-8") as fh:  # not utf-8-sig: a bad byte's offset
            text = fh.read().removeprefix("\ufeff")  # counts the BOM, as the file does
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    lines = text.splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise DataFormatError(f"{path}: line 1: header must be 'label,f0,f1,...'")
    width = len(header) - 1
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
        if lab > np.iinfo(np.intp).max:  # past every row count and class count
            raise DataFormatError(f"{path}: line {ln}: label {parts[0]!r} is too large")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise DataFormatError(f"{path}: line {ln}: non-numeric feature value")
        if not all(map(math.isfinite, rows[-1])):
            raise DataFormatError(f"{path}: line {ln}: non-finite feature value")
        labels.append(lab)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows), np.array(labels, dtype=np.intp)
