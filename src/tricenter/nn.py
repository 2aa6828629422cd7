"""Feature extractor MLP, linear classifier head, Adam, and checkpoint files."""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .centers import CENTER_MODES, CenterTable
from .errors import ContractError, DataFormatError, ShapeError


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


class FeatureExtractor:
    """MLP mapping input rows to embedding rows.

    ``layer_sizes`` runs from the input width to the embedding dimension.
    tanh is applied between layers: bounded hiddens keep the hinge losses
    stable.  The embedding layer has no activation and embeddings are not
    normalized.
    """

    def __init__(self, layer_sizes, rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2 or any(int(s) < 1 for s in layer_sizes):
            raise ContractError(f"layer_sizes must hold >= 2 positive extents, got {layer_sizes}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.layer_sizes = [int(s) for s in layer_sizes]
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
        if batch.data.ndim != 2 or batch.data.shape[1] != self.in_dim:
            raise ShapeError(
                f"expected batch of shape [B, {self.in_dim}], got {batch.data.shape}")
        x = batch
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x.affine(w, b)
            if i != last:
                x = x.tanh()
        return x

    __call__ = forward


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


BETA1, BETA2, EPSILON = 0.9, 0.99, 1e-8  # Adam's moment decays and epsilon


class Adam:
    """Bias-corrected Adam over a list of parameter Tensors, at learning rate
    ``lr`` with moment decays ``BETA1`` and ``BETA2`` and epsilon ``EPSILON``.

    Both moments live in one flat vector over all parameters (in list
    order), so each step runs its elementwise passes once, not once per
    parameter, into reused buffers; every element sees the same arithmetic,
    in the same order, as in a per-parameter update.
    """

    def __init__(self, params, lr: float):
        self.params = list(params)
        if not self.params:
            raise ContractError("Adam needs at least one parameter")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("Adam got the same parameter twice")
        if not (math.isfinite(lr) and lr > 0):
            raise ContractError(f"Adam's lr must be finite and positive, got {lr}")
        self.lr = lr
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
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        g = np.concatenate([p.grad.ravel() for p in self.params])
        m, v = self.first_moment, self.second_moment
        step, denom = self._scratch
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=step)
        v *= BETA2
        v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=g), out=g)
        # data - lr * (m / c1) / (sqrt(v / c2) + EPSILON), evaluated in place
        np.multiply(self.lr, np.divide(m, c1, out=step), out=step)
        np.add(np.sqrt(np.divide(v, c2, out=denom), out=denom), EPSILON, out=denom)
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
# Layout (version 2), all integers little-endian:
#   bytes 0..3   magic b"TCK1"
#   bytes 4..7   uint32 header length H
#   bytes 8..8+H utf-8 JSON header: version, epoch, config_fingerprint,
#                extractor {layer_sizes, activation}, head {n_classes} or null,
#                centers {mode, source_epoch, p_norm, n_classes} or null, where
#                activation is always "tanh" (every extractor is tanh) and
#                p_norm is always 2 (every distance is Euclidean)
#   remainder    the extractor's parameters(), then the head's, then the
#                center matrix, as raw little-endian float64 in C order
# The header states the topology once; every array's shape follows from it.
# ---------------------------------------------------------------------------

_MAGIC = b"TCK1"


@dataclass
class Checkpoint:
    """A model on disk: the extractor, and a classifier head or a center
    table (its matrix, mode and source epoch) when there is one."""

    extractor: FeatureExtractor
    epoch: int
    config_fingerprint: str
    head: LinearHead | None = None
    centers: CenterTable | None = None


def config_fingerprint(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    params = ckpt.extractor.parameters() + ([] if ckpt.head is None else ckpt.head.parameters())
    # read as they are: ``Adam.step`` replaces a parameter's array, never writes into it
    arrays = [p.data for p in params] + ([] if ckpt.centers is None else [ckpt.centers.matrix])
    header = {
        "version": 2,
        "epoch": int(ckpt.epoch),
        "config_fingerprint": ckpt.config_fingerprint,
        "extractor": {"layer_sizes": ckpt.extractor.layer_sizes,
                      "activation": "tanh"},
        "head": None if ckpt.head is None else {"n_classes": int(ckpt.head.bias.data.size)},
        "centers": None if ckpt.centers is None else {
            "mode": ckpt.centers.mode, "source_epoch": ckpt.centers.source_epoch,
            "p_norm": 2, "n_classes": ckpt.centers.n_classes},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _count(x, low: int = 0) -> bool:
    """True for a JSON integer (not a bool) of at least ``low``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _header_fields(header: dict, path):
    """The header values ``load_checkpoint`` reads, type-checked."""
    def malformed(reason):
        return DataFormatError(f"{path}: malformed checkpoint header ({reason})")

    try:
        extractor, head, centers = header["extractor"], header["head"], header["centers"]
        epoch, fingerprint = header["epoch"], header["config_fingerprint"]
    except KeyError as exc:
        raise malformed(f"missing {exc}") from None
    if not (isinstance(extractor, dict) and isinstance(extractor.get("layer_sizes"), list)
            and len(extractor["layer_sizes"]) >= 2
            and all(_count(s, 1) for s in extractor["layer_sizes"])):
        raise malformed("extractor must hold >= 2 positive integer layer_sizes")
    if extractor.get("activation") != "tanh":
        raise malformed(f"extractor.activation is {extractor.get('activation')!r}, "
                        "but every extractor is tanh")
    if head is not None and not (isinstance(head, dict) and _count(head.get("n_classes"), 1)):
        raise malformed("head must be null or hold a positive integer n_classes")
    if centers is not None and not (isinstance(centers, dict)
                                    and centers.get("mode") in CENTER_MODES
                                    and _count(centers.get("n_classes"), 1)):
        raise malformed(f"centers must be null or an object with a mode in {CENTER_MODES} "
                        "and a positive integer n_classes")
    if centers is not None and not (centers.get("source_epoch") is None
                                    or _count(centers["source_epoch"])):
        raise malformed("centers.source_epoch must be null or a non-negative integer")
    if centers is not None and not (_count(centers.get("p_norm")) and centers["p_norm"] == 2):
        raise malformed(f"centers.p_norm is {centers.get('p_norm')!r}, "
                        "but every distance is Euclidean (2)")
    if not _count(epoch) or not isinstance(fingerprint, str):
        raise malformed("epoch must be a non-negative integer and config_fingerprint a string")
    return extractor, None if head is None else head["n_classes"], centers, epoch, fingerprint


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint.

    A damaged layout (cut or non-JSON header), a header value of the wrong
    type, or a payload whose length is not the one the header's topology
    implies raises ``DataFormatError``, before any array or module is built;
    so does a non-finite payload value, before any module is built.
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
    if header.get("version") != 2:
        raise DataFormatError(f"{path}: unsupported checkpoint version {header.get('version')}")
    extractor_meta, n_head_classes, cmeta, epoch, fingerprint = _header_fields(header, path)

    sizes = extractor_meta["layer_sizes"]
    shapes = [shape for n_in, n_out in zip(sizes, sizes[1:]) for shape in ((n_in, n_out), (n_out,))]
    if n_head_classes is not None:
        shapes += [(sizes[-1], n_head_classes), (n_head_classes,)]
    if cmeta is not None:
        shapes.append((cmeta["n_classes"], sizes[-1]))
    counts = [math.prod(shape) for shape in shapes]
    if len(blob) - offset != 8 * sum(counts):
        raise DataFormatError(f"{path}: checkpoint payload holds {len(blob) - offset} bytes "
                              f"where its header's topology needs {8 * sum(counts)}")
    values = np.frombuffer(blob, dtype="<f8", offset=offset).astype(np.float64)
    if not np.isfinite(values).all():
        raise DataFormatError(f"{path}: checkpoint payload holds non-finite values")
    pieces = [a.reshape(shape) for a, shape in zip(np.split(values, np.cumsum(counts)[:-1]), shapes)]

    extractor = FeatureExtractor(sizes)
    head = None if n_head_classes is None else LinearHead(sizes[-1], n_head_classes)
    for p, a in zip(extractor.parameters() + ([] if head is None else head.parameters()), pieces):
        p.data = a
    centers = None
    if cmeta is not None:
        centers = CenterTable(Tensor(pieces[-1]), mode=cmeta["mode"],
                              source_epoch=cmeta.get("source_epoch"))
    return Checkpoint(extractor=extractor, epoch=epoch, config_fingerprint=fingerprint,
                      head=head, centers=centers)


def params_fingerprint(arrays) -> str:
    """Stable hash of a parameter state, used to pin center provenance."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]
