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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import losses, sampling
from .autodiff import Tensor
from .centers import CenterTable, compute_centers, init_trainable_centers
from .datasets import Dataset
from .errors import ContractError, DivergenceError
from .losses import LossHyper
from .nn import Adam, FeatureExtractor, LinearHead, config_fingerprint, params_fingerprint

BASELINES = ("bce", "wce", "oce", "wfce")
LOSS_FAMILIES = ("triplet", "pairwise", "quadruplet")


@dataclass
class Stage1Config:
    epochs: int = 200
    m_per_class: int = 10
    mining: str = "random_hard"  # "random" | "random_hard"
    lambda_ce: float = 0.0  # weight of an optional cross-entropy term

    def validate(self):
        if self.epochs < 0:
            raise ContractError("stage1 epochs must be >= 0")
        if self.mining not in ("random", "random_hard"):
            raise ContractError(f"unknown mining strategy {self.mining!r}")
        if self.lambda_ce < 0:
            raise ContractError("lambda_ce must be >= 0")


@dataclass
class Stage2Config:
    epochs: int = 200
    batch_size: int = 16
    center_mode: str = "computed"  # "computed" | "trainable"
    center_init: str = "from_computed"  # trainable mode: "from_computed" | "random"
    alpha: float | None = None  # margin override for the center stage
    lr: float | None = None  # learning-rate override for the center stage
    refresh_each_epoch: bool = True  # computed mode: recompute centers every epoch
    freeze_layers: int = 0  # leave the first n layers of the extractor fixed
    final_centers: str = "default"  # "default" | "learned" | "recomputed"

    def validate(self):
        if self.epochs < 0:
            raise ContractError("stage2 epochs must be >= 0")
        if self.batch_size < 1:
            raise ContractError("stage2 batch_size must be >= 1")
        if self.center_mode not in ("computed", "trainable"):
            raise ContractError(f"unknown center mode {self.center_mode!r}")
        if self.center_init not in ("from_computed", "random"):
            raise ContractError(f"unknown center init {self.center_init!r}")
        if self.final_centers not in ("default", "learned", "recomputed"):
            raise ContractError(f"unknown final_centers choice {self.final_centers!r}")


@dataclass
class OptimizerConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon: float = 1e-8


@dataclass
class TrainConfig:
    method: str = "two_stage"  # "two_stage" | "baseline:bce" | ... | "baseline:wfce"
    loss_family: str = "triplet"
    centered: bool = True  # False: spend the stage-2 budget on more stage-1 training
    stage1: Stage1Config = field(default_factory=Stage1Config)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    hyper: LossHyper = field(default_factory=LossHyper)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    seed: int = 0
    embedding_dim: int = 128
    hidden: tuple = (64, 64)
    activation: str = "tanh"  # bounded hiddens keep the hinge losses stable
    focal_gamma: float = 2.0
    baseline_epochs: int | None = None  # default: stage1.epochs + stage2.epochs
    baseline_batch_size: int = 32

    def validate(self):
        if self.method != "two_stage" and not (
                self.method.startswith("baseline:") and self.method.split(":", 1)[1] in BASELINES):
            raise ContractError(f"unknown method {self.method!r}")
        if self.loss_family not in LOSS_FAMILIES:
            raise ContractError(f"unknown loss family {self.loss_family!r}")
        if self.hyper.beta < 0 and self.loss_family == "quadruplet":
            raise ContractError("beta must be >= 0 for quadruplet training")
        self.stage1.validate()
        self.stage2.validate()

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "loss_family": self.loss_family,
            "centered": self.centered,
            "stage1": vars(self.stage1).copy(),
            "stage2": vars(self.stage2).copy(),
            "hyper": {"alpha": self.hyper.alpha, "beta": self.hyper.beta,
                      "p_norm": self.hyper.p_norm},
            "optimizer": vars(self.optimizer).copy(),
            "seed": self.seed,
            "embedding_dim": self.embedding_dim,
            "hidden": list(self.hidden),
            "activation": self.activation,
            "focal_gamma": self.focal_gamma,
            "baseline_epochs": self.baseline_epochs,
            "baseline_batch_size": self.baseline_batch_size,
        }


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
    stage1_state: list | None = None  # extractor parameters right after stage 1
    status: str = "completed"
    report = None  # filled by evaluation workflows
    small_report = None


def _check_finite(value: float, context: str):
    if not math.isfinite(value):
        raise DivergenceError(f"non-finite loss during {context}; aborting run")


def _progress(verbose, stage, epoch, mean_loss, seconds):
    if verbose:
        print(f"{stage} epoch {epoch}  loss {mean_loss:.6f}  time {seconds:.3f}s", flush=True)


def build_extractor(config: TrainConfig, in_dim: int, rng: np.random.Generator) -> FeatureExtractor:
    sizes = [in_dim, *config.hidden, config.embedding_dim]
    return FeatureExtractor(sizes, activation=config.activation, rng=rng)


def _stage2_hyper(config: TrainConfig) -> LossHyper:
    if config.stage2.alpha is None:
        return config.hyper
    return replace(config.hyper, alpha=config.stage2.alpha)


def _trainable_params(extractor: FeatureExtractor, freeze_layers: int) -> list:
    if freeze_layers <= 0:
        return extractor.parameters()
    params = []
    for i, (w, b) in enumerate(zip(extractor.weights, extractor.biases)):
        if i >= freeze_layers:
            params.extend((w, b))
    if not params:
        raise ContractError("freeze_layers leaves nothing to train")
    return params


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
    if not len(units):
        return None
    k = family.row_columns
    rows = [emb.take(ids) for ids in units.T[:k]]
    return getattr(losses, family.loss)(*rows, *units.T[k:], config.hyper)


def run_stage1(config: TrainConfig, dataset: Dataset, extractor: FeatureExtractor,
               rng: np.random.Generator, head: LinearHead | None = None,
               epochs: int | None = None, verbose: bool = False,
               record: RunRecord | None = None, loss_sink: list | None = None,
               time_sink: list | None = None) -> None:
    """Balanced-batch metric training; mutates the extractor in place."""
    s1 = config.stage1
    epochs = s1.epochs if epochs is None else epochs
    if epochs == 0:
        return
    _require_classes(config, dataset)
    dataset.index.require_nonempty_classes()
    if loss_sink is None:
        loss_sink = record.stage1_losses if record is not None else []
    if time_sink is None:
        time_sink = record.stage1_epoch_times if record is not None else []
    params = extractor.parameters()
    if head is not None:
        params = params + head.parameters()
    opt = Adam(params, lr=config.optimizer.lr, beta1=config.optimizer.beta1,
               beta2=config.optimizer.beta2, epsilon=config.optimizer.epsilon)
    batch_size = dataset.n_classes * s1.m_per_class
    n_batches = max(1, math.ceil(dataset.features.shape[0] / batch_size))
    features = dataset.features
    for epoch in range(epochs):
        t0 = time.perf_counter()
        batch_losses = []
        for _ in range(n_batches):
            plan = sampling.build_balanced_batch(dataset.index, s1.m_per_class, rng)
            opt.zero_grad()
            emb = extractor(Tensor(features[plan.indices]))
            loss = _metric_batch_loss(config, emb, plan, rng)
            if loss is None:
                continue
            if s1.lambda_ce > 0:
                loss = loss + s1.lambda_ce * losses.cross_entropy_mean(head(emb), plan.labels)
            value = loss.item()
            _check_finite(value, "stage 1")
            loss.backward()
            opt.step()
            batch_losses.append(value)
        mean_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
        dt = time.perf_counter() - t0
        loss_sink.append(mean_loss)
        time_sink.append(dt)
        _progress(verbose, "stage1", epoch, mean_loss, dt)


def _center_stage_batch_loss(config: TrainConfig, emb: Tensor, plan,
                             centers: CenterTable, hyper: LossHyper,
                             rng: np.random.Generator) -> Tensor | None:
    """The family's loss on the anchors and their center rows over one flat
    batch; None when nothing qualifies."""
    family = _FAMILIES[config.loss_family]
    units = family.mine_centers(plan, emb.data, centers.matrix, hyper, rng)
    if not len(units):
        return None
    k = family.row_columns
    rows = [emb.take(units[:, 0])] + [centers.rows(ids) for ids in units.T[1:k]]
    return getattr(losses, family.loss)(*rows, *units.T[k:], hyper)


def run_stage2(config: TrainConfig, dataset: Dataset, extractor: FeatureExtractor,
               rng: np.random.Generator, record: RunRecord,
               verbose: bool = False) -> CenterTable | None:
    """Center-involved fine-tuning; returns the final center table."""
    s2 = config.stage2
    hyper = _stage2_hyper(config)
    _require_classes(config, dataset)
    features = dataset.features
    params = _trainable_params(extractor, s2.freeze_layers)

    centers: CenterTable | None = None
    if s2.center_mode == "trainable":
        if s2.center_init == "from_computed":
            source = compute_centers(extractor, features, dataset.index,
                                     source_epoch=-1,
                                     source_fingerprint=params_fingerprint(extractor.state()))
            centers = init_trainable_centers(dataset.n_classes, extractor.out_dim,
                                             init="from_computed", source=source)
        else:
            centers = init_trainable_centers(dataset.n_classes, extractor.out_dim,
                                             init="random", rng=rng)
        params = params + [centers.table]

    lr = s2.lr if s2.lr is not None else config.optimizer.lr
    opt = Adam(params, lr=lr, beta1=config.optimizer.beta1,
               beta2=config.optimizer.beta2, epsilon=config.optimizer.epsilon)

    for epoch in range(s2.epochs):
        t0 = time.perf_counter()
        if s2.center_mode == "computed" and (s2.refresh_each_epoch or centers is None):
            fingerprint = params_fingerprint(extractor.state())
            centers = compute_centers(extractor, features, dataset.index,
                                      source_epoch=epoch - 1, source_fingerprint=fingerprint)
            record.center_refreshes.append((epoch, fingerprint))
        batch_losses = []
        for plan in sampling.flat_batch_plans(dataset.labels, s2.batch_size, rng):
            opt.zero_grad()
            emb = extractor(Tensor(features[plan.indices]))
            loss = _center_stage_batch_loss(config, emb, plan, centers, hyper, rng)
            if loss is None:
                continue
            value = loss.item()
            _check_finite(value, "stage 2")
            loss.backward()
            opt.step()
            batch_losses.append(value)
        mean_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
        dt = time.perf_counter() - t0
        record.stage2_losses.append(mean_loss)
        record.stage2_epoch_times.append(dt)
        _progress(verbose, "stage2", epoch, mean_loss, dt)
        if not batch_losses:
            record.status = "converged_early"
            break
    return centers


def run_two_stage(config: TrainConfig, dataset: Dataset, verbose: bool = False) -> RunRecord:
    """Stage-1 balanced metric training followed by the center-involved stage.

    With ``centered=False`` the stage-2 budget is spent on more stage-1 style
    training instead, which is the budget-matched plain-loss baseline for the
    loss-family extension comparisons.  Nearest-center prediction data is
    always attached: computed-center runs recompute the final centers from
    the final parameters over the whole training set, trainable-center runs
    keep their learned rows.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    extractor = build_extractor(config, dataset.in_dim, rng)
    head = None
    if config.stage1.lambda_ce > 0:
        head = LinearHead(extractor.out_dim, dataset.n_classes, rng=rng)
    record = RunRecord(method=config.method, seed=config.seed,
                       config_fingerprint=config_fingerprint(config.to_dict()),
                       extractor=extractor, head=head)

    run_stage1(config, dataset, extractor, rng, head=head, verbose=verbose, record=record)
    record.stage1_state = extractor.state()

    centers = None
    if config.stage2.epochs > 0:
        if config.centered:
            centers = run_stage2(config, dataset, extractor, rng, record, verbose=verbose)
        else:
            run_stage1(config, dataset, extractor, rng, head=head,
                       epochs=config.stage2.epochs, verbose=verbose, record=record,
                       loss_sink=record.stage2_losses, time_sink=record.stage2_epoch_times)

    final_choice = config.stage2.final_centers
    keep_learned = (centers is not None and centers.mode == "trainable"
                    and final_choice in ("default", "learned"))
    if keep_learned:
        record.centers = centers
    else:
        record.centers = compute_centers(
            extractor, dataset.features, dataset.index,
            source_epoch=config.stage2.epochs,
            source_fingerprint=params_fingerprint(extractor.state()))
    return record


def run_baseline(strategy: str, config: TrainConfig, dataset: Dataset,
                 verbose: bool = False) -> RunRecord:
    """Single-stage classifier training with one of the imbalance strategies.

    bce: plain cross entropy; wce: inverse-frequency weighted cross entropy;
    oce: plain cross entropy over an oversampled epoch stream; wfce:
    inverse-frequency weighted focal loss.
    """
    if strategy not in BASELINES:
        raise ContractError(f"unknown baseline {strategy!r}; expected one of {BASELINES}")
    rng = np.random.default_rng(config.seed)
    extractor = build_extractor(config, dataset.in_dim, rng)
    head = LinearHead(extractor.out_dim, dataset.n_classes, rng=rng)
    record = RunRecord(method=f"baseline:{strategy}", seed=config.seed,
                       config_fingerprint=config_fingerprint(config.to_dict()),
                       extractor=extractor, head=head)
    dataset.index.require_nonempty_classes()

    weights = None
    if strategy in ("wce", "wfce"):
        weights = losses.inverse_frequency_weights(dataset.index.sizes)
    epochs = config.baseline_epochs
    if epochs is None:
        epochs = config.stage1.epochs + config.stage2.epochs
    opt = Adam(extractor.parameters() + head.parameters(), lr=config.optimizer.lr,
               beta1=config.optimizer.beta1, beta2=config.optimizer.beta2,
               epsilon=config.optimizer.epsilon)
    features = dataset.features
    b = config.baseline_batch_size
    for epoch in range(epochs):
        t0 = time.perf_counter()
        if strategy == "oce":
            stream = sampling.oversample_indices(dataset.index, rng)
            plans = [sampling.BatchPlan(indices=stream[i:i + b],
                                        labels=dataset.labels[stream[i:i + b]],
                                        stage="flat", batch_size=b)
                     for i in range(0, len(stream), b)]
        else:
            plans = sampling.flat_batch_plans(dataset.labels, b, rng)
        batch_losses = []
        for plan in plans:
            opt.zero_grad()
            logits = head(extractor(Tensor(features[plan.indices])))
            if strategy == "wfce":
                loss = losses.focal_loss_mean(logits, plan.labels,
                                              gamma=config.focal_gamma, weights=weights)
            else:
                loss = losses.cross_entropy_mean(logits, plan.labels, weights=weights)
            value = loss.item()
            _check_finite(value, f"baseline {strategy}")
            loss.backward()
            opt.step()
            batch_losses.append(value)
        mean_loss = float(np.mean(batch_losses))
        dt = time.perf_counter() - t0
        record.stage1_losses.append(mean_loss)
        record.stage1_epoch_times.append(dt)
        _progress(verbose, strategy, epoch, mean_loss, dt)
    return record


def run_method(config: TrainConfig, dataset: Dataset, verbose: bool = False) -> RunRecord:
    """Dispatch on config.method."""
    config.validate()
    if config.method == "two_stage":
        return run_two_stage(config, dataset, verbose=verbose)
    return run_baseline(config.method.split(":", 1)[1], config, dataset, verbose=verbose)
