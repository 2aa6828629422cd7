"""Two-stage training orchestration and single-stage baselines.

Stage 1 trains the feature extractor with a metric loss (triplet by
default) over class-balanced batches.  Stage 2 fine-tunes it with the
same family's loss, its positive and negatives replaced by class-center
rows: computed centers are refreshed once per epoch from the parameters of
the just-finished epoch, trainable centers are optimized jointly with the
extractor.

Baselines (bce/wce/oce/wfce) train a linear classifier head on top of the
extractor in a single stage and predict by argmax instead of by nearest
center.

Every stage and baseline runs the same epoch loop, ``_fit``, with one stop
rule: an epoch that steps no batch ends that loop and marks the run
``converged_early``.  Only stage 2 meets it in practice (no center unit
qualifies); stage-1 miners and the baselines score every valid batch.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import losses, sampling
from .autodiff import Tensor
from .centers import CENTER_MODES, CenterTable, compute_centers
from .datasets import Dataset
from .errors import ContractError, DivergenceError
from .losses import LossHyper
from .nn import Adam, FeatureExtractor, LinearHead, config_fingerprint, params_fingerprint

log = logging.getLogger(__name__)

BASELINES = ("bce", "wce", "oce", "wfce")
FOCAL_GAMMA = 2.0  # wfce's focusing exponent, the focal-loss default
STAGE2_BATCH_SIZE = 16  # rows per flat batch of the center stage


@dataclass
class Stage1Config:
    epochs: int = 200
    m_per_class: int = 10
    mining: str = "random_hard"  # triplet family only: "random" | "random_hard"

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError("stage1 epochs must be >= 0")
        if self.m_per_class < 1:
            raise ContractError(f"m_per_class must be >= 1, got {self.m_per_class}")
        if self.mining not in sampling.MINING_STRATEGIES:
            raise ContractError(f"unknown mining strategy {self.mining!r}")


@dataclass
class Stage2Config:
    epochs: int = 200
    center_mode: str = "computed"  # "computed" | "trainable"
    alpha: float | None = None  # margin override for the center stage
    lr: float | None = None  # learning-rate override for the center stage
    refresh_each_epoch: bool = True  # computed mode: recompute centers every epoch

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError("stage2 epochs must be >= 0")
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ContractError(f"stage2 alpha must be finite and nonnegative, got {self.alpha}")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractError(f"stage2 lr must be finite and positive, got {self.lr}")
        if self.center_mode not in CENTER_MODES:
            raise ContractError(f"unknown center mode {self.center_mode!r}")


@dataclass
class TrainConfig:
    method: str = "two_stage"  # "two_stage" | "baseline:bce" | ... | "baseline:wfce"
    loss_family: str = "triplet"
    stage1: Stage1Config = field(default_factory=Stage1Config)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    hyper: LossHyper = field(default_factory=LossHyper)
    lr: float = 1e-4  # Adam's learning rate
    seed: int = 0
    embedding_dim: int = 128
    hidden: tuple = (64, 64)
    baseline_epochs: int | None = None  # default: stage1.epochs + stage2.epochs
    baseline_batch_size: int = 32

    def __post_init__(self):
        if self.method != "two_stage" and not (
                self.method.startswith("baseline:") and self.method.split(":", 1)[1] in BASELINES):
            raise ContractError(f"unknown method {self.method!r}")
        if self.loss_family not in _FAMILIES:
            raise ContractError(f"unknown loss family {self.loss_family!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractError(f"lr must be finite and positive, got {self.lr}")
        if self.hyper.beta < 0:
            raise ContractError(f"beta must be >= 0, got {self.hyper.beta}")
        if self.loss_family == "quadruplet":
            self.hyper.require_quadruplet_margins()
            _stage2_hyper(self).require_quadruplet_margins()
        if self.loss_family != "pairwise" and self.stage1.m_per_class < 2:
            raise ContractError(f"{self.loss_family} batches need m_per_class >= 2, "
                                f"got {self.stage1.m_per_class}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if not (isinstance(self.embedding_dim, (int, np.integer)) and self.embedding_dim >= 1):
            raise ContractError(f"embedding dimension must be a positive integer, got {self.embedding_dim!r}")
        if not all(isinstance(h, (int, np.integer)) and h >= 1 for h in self.hidden):
            raise ContractError(f"hidden widths must be positive integers, got {self.hidden!r}")
        if self.baseline_epochs is not None and self.baseline_epochs < 0:
            raise ContractError(f"baseline epochs must be >= 0, got {self.baseline_epochs}")
        if self.baseline_batch_size < 1:
            raise ContractError("baseline batch_size must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunRecord:
    """Everything one training run produced, minus wall-clock noise in reports."""

    method: str
    seed: int
    config_fingerprint: str
    extractor: FeatureExtractor
    head: LinearHead | None = None
    centers: CenterTable | None = None
    stage1_losses: list = field(default_factory=list)
    stage2_losses: list = field(default_factory=list)
    stage1_epoch_times: list = field(default_factory=list)
    stage2_epoch_times: list = field(default_factory=list)
    center_refreshes: list = field(default_factory=list)  # (epoch, source params fingerprint)
    status: str = "completed"


def build_extractor(config: TrainConfig, in_dim: int, rng: np.random.Generator) -> FeatureExtractor:
    sizes = [in_dim, *config.hidden, config.embedding_dim]
    return FeatureExtractor(sizes, rng=rng)


def _stage2_hyper(config: TrainConfig) -> LossHyper:
    if config.stage2.alpha is None:
        return config.hyper
    return replace(config.hyper, alpha=config.stage2.alpha)


@dataclass(frozen=True)
class _Family:
    """How one loss family mines and scores a batch in either stage.

    Both miners return units in the family's layout (see ``sampling``): the
    first ``row_columns`` columns name rows, which are gathered and passed
    to the loss in column order, and a further column is passed as it is.
    Miners and loss are looked up on their modules at each call, so a
    function rebound there (by a profiler, say) is the one that runs.
    """

    mine: Callable  # (config, plan, embeddings, rng) -> stage-1 units
    mine_centers: Callable  # (plan, embeddings, center matrix, hyper, rng) -> center units
    loss: str  # name of the batched loss in ``losses``
    row_columns: int
    min_classes: int

    def score(self, units: np.ndarray, sources: list, hyper: LossHyper) -> Tensor | None:
        """The loss on gathered rows: id column ``i`` of ``units`` gathers
        rows of ``sources[i]``, the batch embeddings or the center table (so
        a trainable table gets the gradient); None when no units formed."""
        if not len(units):
            return None
        rows = [source.take(ids) for source, ids in zip(sources, units.T)]
        return getattr(losses, self.loss)(*rows, *units.T[self.row_columns:], hyper)


_FAMILIES = {
    "triplet": _Family(
        mine=lambda config, plan, emb, rng: sampling.form_triplets(
            plan, emb, config.stage1.mining, config.hyper, rng),
        mine_centers=lambda plan, emb, matrix, hyper, rng: sampling.form_center_triplets(
            plan, emb, matrix, hyper),
        loss="triplet_loss_mean", row_columns=3, min_classes=2),
    "pairwise": _Family(
        mine=lambda config, plan, emb, rng: sampling.form_pairs(plan, rng),
        mine_centers=lambda plan, emb, matrix, hyper, rng: sampling.form_center_pairs(
            plan, emb, matrix, hyper),
        loss="pairwise_loss_mean", row_columns=2, min_classes=2),
    "quadruplet": _Family(
        mine=lambda config, plan, emb, rng: sampling.form_quadruplets(plan, rng),
        mine_centers=lambda plan, emb, matrix, hyper, rng: sampling.form_center_quadruplets(
            plan, emb, matrix, hyper, rng),
        loss="quadruplet_loss_mean", row_columns=4, min_classes=3),
}


def _require_classes(config: TrainConfig, dataset: Dataset):
    need = _FAMILIES[config.loss_family].min_classes
    if dataset.n_classes < need:
        raise ContractError(f"{config.loss_family} training needs at least {need} classes")


def _metric_batch_loss(config: TrainConfig, emb: Tensor, plan, rng) -> Tensor | None:
    """Stage-1 loss over one balanced batch; None when no units formed."""
    family = _FAMILIES[config.loss_family]
    units = family.mine(config, plan, emb.data, rng)
    return family.score(units, [emb] * family.row_columns, config.hyper)


def _center_stage_batch_loss(config: TrainConfig, emb: Tensor, plan,
                             centers: CenterTable, hyper: LossHyper,
                             rng: np.random.Generator) -> Tensor | None:
    """The family's loss on the anchors and their center rows over one flat
    batch; None when nothing qualifies."""
    family = _FAMILIES[config.loss_family]
    units = family.mine_centers(plan, emb.data, centers.matrix, hyper, rng)
    return family.score(units, [emb] + [centers.table] * (family.row_columns - 1), hyper)


def _start(config: TrainConfig, dataset: Dataset) -> tuple[np.random.Generator, RunRecord]:
    """The run's generator and a record holding a fresh extractor drawn from it."""
    rng = np.random.default_rng(config.seed)
    return rng, RunRecord(
        method=config.method, seed=config.seed, config_fingerprint=config_fingerprint(config.to_dict()),
        extractor=build_extractor(config, dataset.in_dim, rng))


def _fit(record: RunRecord, stage: int, epochs: int, opt: Adam, epoch_plans: Callable,
         batch_loss: Callable, label: str) -> None:
    """The epoch loop of every trainer: one Adam step per plan of
    ``epoch_plans(epoch)`` whose ``batch_loss`` is not None.

    Each epoch's mean batch loss (0.0 when no batch stepped) and wall time
    go to the record's lists of ``stage`` (1 or 2) and to the INFO log.  An
    epoch that steps no batch ends the loop and marks the run
    ``converged_early``.
    """
    loss_sink, time_sink = ((record.stage1_losses, record.stage1_epoch_times) if stage == 1
                            else (record.stage2_losses, record.stage2_epoch_times))
    for epoch in range(epochs):
        t0 = time.perf_counter()
        values = []
        for plan in epoch_plans(epoch):
            opt.zero_grad()
            loss = batch_loss(plan)
            if loss is None:
                continue
            values.append(loss.item())
            if not math.isfinite(values[-1]):
                raise DivergenceError(f"non-finite loss during {label}; aborting run")
            loss.backward()
            opt.step()
        loss_sink.append(float(np.mean(values)) if values else 0.0)
        time_sink.append(time.perf_counter() - t0)
        log.info("%s epoch %d  loss %.6f  time %.3fs", label, epoch, loss_sink[-1], time_sink[-1])
        if not values:
            record.status = "converged_early"
            return


def run_stage1(config: TrainConfig, dataset: Dataset, record: RunRecord,
               rng: np.random.Generator) -> None:
    """Balanced-batch metric training of the record's extractor, in place."""
    s1 = config.stage1
    if s1.epochs == 0:
        return
    _require_classes(config, dataset)
    dataset.index.require_nonempty_classes()
    extractor = record.extractor
    opt = Adam(extractor.parameters(), config.lr)
    batch_size = dataset.n_classes * s1.m_per_class
    n_batches = max(1, math.ceil(dataset.features.shape[0] / batch_size))

    def epoch_plans(epoch):  # lazy: each batch draw precedes that batch's mining draws
        return (sampling.build_balanced_batch(dataset.index, s1.m_per_class, rng)
                for _ in range(n_batches))

    def batch_loss(plan):
        return _metric_batch_loss(config, extractor(Tensor(dataset.features[plan.indices])),
                                  plan, rng)

    _fit(record, 1, s1.epochs, opt, epoch_plans, batch_loss, "stage 1")


def run_stage2(config: TrainConfig, dataset: Dataset, record: RunRecord,
               rng: np.random.Generator) -> None:
    """Center-involved fine-tuning of the record's extractor, in place.  A
    trainable table, warm-started from the computed means, trains with the
    extractor and stays on ``record.centers``; computed centers are refreshed
    before each epoch and leave it unset."""
    s2 = config.stage2
    hyper = _stage2_hyper(config)
    _require_classes(config, dataset)
    extractor, features = record.extractor, dataset.features
    params = extractor.parameters()

    centers: CenterTable | None = None
    if s2.center_mode == "trainable":
        rows = compute_centers(extractor, features, dataset.index).matrix
        centers = record.centers = CenterTable(Tensor(rows, requires_grad=True), "trainable")
        params = params + [centers.table]

    opt = Adam(params, config.lr if s2.lr is None else s2.lr)

    def epoch_plans(epoch):
        nonlocal centers
        if s2.center_mode == "computed" and (s2.refresh_each_epoch or centers is None):
            fingerprint = params_fingerprint(p.data for p in extractor.parameters())
            centers = compute_centers(extractor, features, dataset.index, source_epoch=epoch - 1)
            record.center_refreshes.append((epoch, fingerprint))
        return sampling.flat_batch_plans(dataset.labels, STAGE2_BATCH_SIZE, rng)

    def batch_loss(plan):  # reads the current ``centers``
        emb = extractor(Tensor(features[plan.indices]))
        return _center_stage_batch_loss(config, emb, plan, centers, hyper, rng)

    _fit(record, 2, s2.epochs, opt, epoch_plans, batch_loss, "stage 2")


def run_two_stage(config: TrainConfig, dataset: Dataset) -> RunRecord:
    """Stage-1 balanced metric training followed by the center-involved stage.

    Nearest-center prediction data is always attached: a trainable table
    that stage 2 left on the record stays; otherwise the final centers are
    computed from the final parameters over the whole training set.  No
    classifier head is built.
    """
    rng, record = _start(config, dataset)
    run_stage1(config, dataset, record, rng)
    if config.stage2.epochs > 0:
        run_stage2(config, dataset, record, rng)

    if record.centers is None:
        record.centers = compute_centers(record.extractor, dataset.features, dataset.index,
                                         source_epoch=len(record.stage2_losses))
    return record


def run_baseline(config: TrainConfig, dataset: Dataset) -> RunRecord:
    """Single-stage classifier training with the imbalance strategy of
    ``config.method`` (``baseline:<strategy>``).

    bce: plain cross entropy; wce: inverse-frequency weighted cross entropy;
    oce: plain cross entropy over an oversampled epoch stream; wfce:
    inverse-frequency weighted focal loss of exponent ``FOCAL_GAMMA``.
    """
    strategy = config.method.split(":", 1)[1]
    rng, record = _start(config, dataset)
    record.head = LinearHead(record.extractor.out_dim, dataset.n_classes, rng=rng)
    dataset.index.require_nonempty_classes()

    weights = None
    if strategy in ("wce", "wfce"):
        weights = losses.inverse_frequency_weights(dataset.index.sizes)
    gamma = FOCAL_GAMMA if strategy == "wfce" else 0.0
    epochs = config.baseline_epochs
    if epochs is None:
        epochs = config.stage1.epochs + config.stage2.epochs
    extractor, head = record.extractor, record.head
    opt = Adam(extractor.parameters() + head.parameters(), config.lr)

    def epoch_plans(epoch):
        order = sampling.oversample_indices(dataset.index, rng) if strategy == "oce" else None
        return sampling.flat_batch_plans(dataset.labels, config.baseline_batch_size, rng,
                                         order=order)

    def batch_loss(plan):
        logits = head(extractor(Tensor(dataset.features[plan.indices])))
        return losses.cross_entropy_mean(logits, plan.labels, weights, gamma)

    _fit(record, 1, epochs, opt, epoch_plans, batch_loss, f"baseline {strategy}")
    return record


def run_method(config: TrainConfig, dataset: Dataset) -> RunRecord:
    """Dispatch on config.method."""
    if config.method == "two_stage":
        return run_two_stage(config, dataset)
    return run_baseline(config, dataset)
