"""Feature extractor MLP, linear classifier head, Adam, and checkpoint files."""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, DataFormatError, ShapeError

_ACTIVATIONS = {"relu": Tensor.relu, "tanh": Tensor.tanh}


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


class FeatureExtractor:
    """MLP mapping input rows to embedding rows.

    ``layer_sizes`` runs from the input width to the embedding dimension.
    The named activation is applied between layers; the embedding layer has
    no activation and embeddings are not normalized.
    """

    def __init__(self, layer_sizes, activation: str = "relu", rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2 or any(int(s) < 1 for s in layer_sizes):
            raise ContractError(f"layer_sizes must hold >= 2 positive extents, got {layer_sizes}")
        if activation not in _ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.activation = activation
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            self.weights.append(Tensor(glorot_uniform(n_in, n_out, rng), requires_grad=True))
            self.biases.append(Tensor(np.zeros(n_out), requires_grad=True))

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[Tensor]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def forward(self, batch: Tensor) -> Tensor:
        if not isinstance(batch, Tensor):
            batch = Tensor(batch)
        if batch.data.ndim != 2 or batch.data.shape[1] != self.in_dim:
            raise ShapeError(
                f"expected batch of shape [B, {self.in_dim}], got {batch.data.shape}")
        act = _ACTIVATIONS[self.activation]
        x = batch
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x.affine(w, b)
            if i != last:
                x = act(x)
        return x

    __call__ = forward

    def state(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def load_state(self, arrays) -> None:
        params = self.parameters()
        if len(arrays) != len(params):
            raise ContractError("state length does not match parameter count")
        for p, a in zip(params, arrays):
            if p.data.shape != a.shape:
                raise ShapeError(f"state shape {a.shape} does not match parameter {p.data.shape}")
            p.data = np.array(a, dtype=np.float64)


class LinearHead:
    """Single linear layer producing class logits from embeddings."""

    def __init__(self, in_dim: int, n_classes: int, rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.weight = Tensor(glorot_uniform(in_dim, n_classes, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(n_classes), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def forward(self, embeddings: Tensor) -> Tensor:
        return embeddings.affine(self.weight, self.bias)

    __call__ = forward

    def state(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]

    def load_state(self, arrays) -> None:
        for p, a in zip(self.parameters(), arrays):
            if p.data.shape != a.shape:
                raise ShapeError(f"state shape {a.shape} does not match parameter {p.data.shape}")
            p.data = np.array(a, dtype=np.float64)


class Adam:
    """Bias-corrected Adam over a list of parameter Tensors.

    Defaults follow the training protocol used throughout this project:
    learning rate 1e-4, beta1 0.9, beta2 0.99, epsilon 1e-8.  Both moments
    live in one flat vector over all parameters (in list order), so each
    step runs its elementwise passes once, not once per parameter, into
    reused buffers; every element sees the same arithmetic, in the same
    order, as in a per-parameter update.
    """

    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.99, epsilon: float = 1e-8):
        if lr <= 0 or epsilon <= 0 or not (0 < beta1 < 1) or not (0 < beta2 < 1):
            raise ContractError("Adam hyperparameters out of range")
        self.params = list(params)
        if not self.params:
            raise ContractError("Adam needs at least one parameter")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("Adam got the same parameter twice")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        size = sum(p.data.size for p in self.params)
        self.first_moment = np.zeros(size)
        self.second_moment = np.zeros(size)
        self._scratch = np.empty((2, size))  # temporaries of the update, reused each step

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """Apply one update from the gradients currently stored on the parameters.

        Every parameter gets a fresh ``data`` array (a view into this step's
        flat result), so arrays read before the step keep their values.
        """
        for p in self.params:
            if p.grad is None:
                raise ContractError("adam step with a missing gradient; run backward first")
            if p.grad.shape != p.data.shape:
                raise ShapeError("gradient shape does not match parameter shape")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        g = np.concatenate([p.grad.ravel() for p in self.params])
        m, v = self.first_moment, self.second_moment
        step, denom = self._scratch
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=step)
        v *= self.beta2
        v += np.multiply(1.0 - self.beta2, np.multiply(g, g, out=g), out=g)
        # data - lr * (m / c1) / (sqrt(v / c2) + epsilon), evaluated in place
        np.multiply(self.lr, np.divide(m, c1, out=step), out=step)
        np.add(np.sqrt(np.divide(v, c2, out=denom), out=denom), self.epsilon, out=denom)
        np.divide(step, denom, out=step)
        data = np.concatenate([p.data.ravel() for p in self.params])
        np.subtract(data, step, out=data)
        start = 0
        for p in self.params:
            stop = start + p.data.size
            p.data = data[start:stop].reshape(p.data.shape)
            start = stop


# ---------------------------------------------------------------------------
# Checkpoint container.
#
# Layout (version 1), all integers little-endian:
#   bytes 0..3   magic b"TCK1"
#   bytes 4..7   uint32 header length H
#   bytes 8..8+H utf-8 JSON header
#   remainder    the arrays listed in header["arrays"], concatenated as raw
#                little-endian float64, C order
# The header records epoch, config fingerprint, extractor topology, optional
# head and center-table metadata, and the name/shape of every array.  The
# center metadata holds the table's mode, source epoch and p_norm, the L_p
# order that nearest-center prediction must use; a file written without
# p_norm reads as p_norm 2.
# ---------------------------------------------------------------------------

_MAGIC = b"TCK1"


@dataclass
class Checkpoint:
    extractor: FeatureExtractor
    epoch: int
    config_fingerprint: str
    head: LinearHead | None = None
    center_matrix: np.ndarray | None = None
    center_mode: str | None = None
    center_source_epoch: int | None = None
    center_p_norm: int = 2
    extra: dict = field(default_factory=dict)


def config_fingerprint(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    arrays = []
    entries = []

    def add(name, arr):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        arrays.append(arr)
        entries.append({"name": name, "shape": list(arr.shape)})

    for i, arr in enumerate(ckpt.extractor.state()):
        add(f"extractor.{i}", arr)
    if ckpt.head is not None:
        for i, arr in enumerate(ckpt.head.state()):
            add(f"head.{i}", arr)
    if ckpt.center_matrix is not None:
        add("centers", ckpt.center_matrix)

    header = {
        "version": 1,
        "epoch": int(ckpt.epoch),
        "config_fingerprint": ckpt.config_fingerprint,
        "extractor": {"layer_sizes": ckpt.extractor.layer_sizes,
                      "activation": ckpt.extractor.activation},
        "head": None if ckpt.head is None else {"n_classes": int(ckpt.head.bias.data.size)},
        "centers": None if ckpt.center_matrix is None else {
            "mode": ckpt.center_mode, "source_epoch": ckpt.center_source_epoch,
            "p_norm": int(ckpt.center_p_norm)},
        "extra": ckpt.extra,
        "arrays": entries,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(arr.tobytes())


def _count(x, low: int = 0) -> bool:
    """True for a JSON integer (not a bool) of at least ``low``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _header_fields(header: dict, path):
    """The header values ``load_checkpoint`` reads, type-checked."""
    def malformed(reason):
        return DataFormatError(f"{path}: malformed checkpoint header ({reason})")

    try:
        arrays, extractor, head = header["arrays"], header["extractor"], header["head"]
        centers, epoch, fingerprint = header["centers"], header["epoch"], header["config_fingerprint"]
    except KeyError as exc:
        raise malformed(f"missing {exc}") from None
    if not (isinstance(arrays, list) and all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list) and all(_count(s) for s in e["shape"])
            for e in arrays)):
        raise malformed("arrays must list {name, shape} entries with non-negative integer extents")
    if not (isinstance(extractor, dict) and isinstance(extractor.get("layer_sizes"), list)
            and all(_count(s, 1) for s in extractor["layer_sizes"])
            and isinstance(extractor.get("activation"), str)):
        raise malformed("extractor must hold positive integer layer_sizes and an activation name")
    if head is not None and not (isinstance(head, dict) and _count(head.get("n_classes"), 1)):
        raise malformed("head must be null or hold a positive integer n_classes")
    if centers is not None and not (isinstance(centers, dict)
                                    and _count(centers.get("p_norm", 2), 1)):
        raise malformed("centers must be null or an object with a positive integer p_norm")
    if not _count(epoch) or not isinstance(fingerprint, str):
        raise malformed("epoch must be a non-negative integer and config_fingerprint a string")
    if not isinstance(header.get("extra", {}), dict):
        raise malformed("extra must be an object")
    entries = [(e["name"], tuple(e["shape"])) for e in arrays]
    return (entries, extractor, None if head is None else head["n_classes"], centers or {},
            epoch, fingerprint)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint.

    A damaged layout (cut, non-JSON or over-long file) or a header value of
    the wrong type or shape raises ``DataFormatError``; arrays whose shapes
    do not fit the recorded topology raise ``ShapeError``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:4]
    if magic != _MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic {magic!r})")
    if len(blob) < 8:
        raise DataFormatError(f"{path}: truncated checkpoint header length")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    offset = 8 + hlen
    if len(blob) < offset:
        raise DataFormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(blob[8:offset])
    except ValueError as exc:
        raise DataFormatError(f"{path}: unreadable checkpoint header ({exc})") from None
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
    if header.get("version") != 1:
        raise DataFormatError(f"{path}: unsupported checkpoint version {header.get('version')}")
    entries, extractor_meta, n_head_classes, cmeta, epoch, fingerprint = _header_fields(header, path)

    loaded = {}
    for name, shape in entries:
        count = math.prod(shape)
        if len(blob) < offset + count * 8:
            raise DataFormatError(f"{path}: truncated checkpoint payload")
        loaded[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    if offset != len(blob):
        raise DataFormatError(f"{path}: {len(blob) - offset} trailing bytes after the checkpoint payload")

    def array(name):
        if name not in loaded:
            raise DataFormatError(f"{path}: checkpoint has no array {name!r}")
        return loaded[name]

    extractor = FeatureExtractor(extractor_meta["layer_sizes"], activation=extractor_meta["activation"])
    extractor.load_state([array(f"extractor.{i}") for i in range(len(extractor.parameters()))])

    head = None
    if n_head_classes is not None:
        head = LinearHead(extractor.out_dim, n_head_classes)
        head.load_state([array("head.0"), array("head.1")])

    center_matrix = loaded.get("centers")
    if center_matrix is not None and (center_matrix.ndim != 2
                                      or center_matrix.shape[1] != extractor.out_dim):
        raise ShapeError(f"center table shape {center_matrix.shape} does not fit "
                         f"embedding width {extractor.out_dim}")

    return Checkpoint(
        extractor=extractor,
        epoch=epoch,
        config_fingerprint=fingerprint,
        head=head,
        center_matrix=center_matrix,
        center_mode=cmeta.get("mode"),
        center_source_epoch=cmeta.get("source_epoch"),
        center_p_norm=cmeta.get("p_norm", 2),
        extra=header.get("extra", {}),
    )


def params_fingerprint(arrays) -> str:
    """Stable hash of a parameter state, used to pin center provenance."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]
