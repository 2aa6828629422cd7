"""Seeded few-epoch training runs per loss family and baseline, and the miner contract.

Each run trains 2+2 epochs on the skin7-like preset (small extractor) and is
evaluated on a stratified holdout split.  Pairwise and ``random`` mining run
in no benchmark workload, so these runs are their end-to-end check.
"""

import math

import numpy as np
import pytest

from tricenter import sampling
from tricenter.centers import compute_centers
from tricenter.datasets import (Dataset, SyntheticSpec, gen_gaussian_imbalanced, preset_spec,
                                simplex_means)
from tricenter.errors import ContractError, DivergenceError
from tricenter.losses import LossHyper
from tricenter.training import (OptimizerConfig, Stage1Config, Stage2Config, TrainConfig,
                                run_method, run_two_stage)
from tricenter.workflows import run_holdout, run_sweep

H = LossHyper()


@pytest.fixture(scope="module")
def dataset():
    return gen_gaussian_imbalanced(preset_spec("skin7-like", seed=3))


def config(**overrides):
    base = dict(stage1=Stage1Config(epochs=2, m_per_class=4),
                stage2=Stage2Config(epochs=2), embedding_dim=16, hidden=(24,), seed=3)
    base.update(overrides)
    return TrainConfig(**base)


def majority_mf1(train_labels, test_labels) -> float:
    """Macro-F1 in percent of always predicting the largest training class."""
    major = int(np.bincount(train_labels).argmax())
    hits = int((test_labels == major).sum())
    f1 = 2.0 * hits / (len(test_labels) + hits)  # precision hits/n, recall 1
    return 100.0 * f1 / len(set(test_labels.tolist()) | {major})


def assert_sound_run(result, dataset):
    record = result.record
    assert record.status in ("completed", "converged_early")
    run_losses = record.stage1_losses + record.stage2_losses
    assert run_losses and all(math.isfinite(v) for v in run_losses)
    test_labels = dataset.labels[result.test_rows]
    assert result.report.mf1 > majority_mf1(dataset.labels[result.train_rows], test_labels)


@pytest.mark.parametrize("center_mode", ["computed", "trainable"])
@pytest.mark.parametrize("family, mining", [("triplet", "random"), ("triplet", "random_hard"),
                                            ("pairwise", "random_hard"),
                                            ("quadruplet", "random_hard")])
def test_two_stage_runs_are_sound(dataset, family, mining, center_mode):
    cfg = config(loss_family=family,
                 stage1=Stage1Config(epochs=2, m_per_class=4, mining=mining),
                 stage2=Stage2Config(epochs=2, center_mode=center_mode))
    result = run_holdout(cfg, dataset)
    assert len(result.record.stage1_losses) == 2
    assert 1 <= len(result.record.stage2_losses) <= 2
    assert result.record.centers.mode == center_mode
    assert_sound_run(result, dataset)


@pytest.mark.parametrize("baseline", ["bce", "wce", "oce", "wfce"])
def test_baseline_runs_are_sound(dataset, baseline):
    result = run_holdout(config(method=f"baseline:{baseline}"), dataset)
    assert len(result.record.stage1_losses) == 4
    assert result.record.centers is None and result.record.head is not None
    assert_sound_run(result, dataset)


@pytest.mark.parametrize("stage1_epochs", [2, 0])
def test_quadruplet_training_needs_three_classes_in_either_stage(stage1_epochs):
    two_classes = Dataset(np.random.default_rng(0).normal(size=(8, 3)), np.repeat([0, 1], 4))
    cfg = config(loss_family="quadruplet",
                 stage1=Stage1Config(epochs=stage1_epochs, m_per_class=2))
    with pytest.raises(ContractError, match="quadruplet training needs at least 3 classes"):
        run_two_stage(cfg, two_classes)


def test_a_pairwise_config_with_one_sample_per_class_still_mines_negative_pairs(dataset):
    cfg = config(loss_family="pairwise", stage1=Stage1Config(epochs=1, m_per_class=1))
    rng = np.random.default_rng(cfg.seed)
    batch = sampling.build_balanced_batch(dataset.index, cfg.stage1.m_per_class, rng)
    units = sampling.form_pairs(batch, rng)
    assert len(units) == len(batch.labels) == dataset.n_classes
    assert not units[:, 2].any()  # every pair is a cross-class pair


@pytest.mark.parametrize("family", ["triplet", "quadruplet"])
def test_triplet_and_quadruplet_configs_need_two_samples_per_class(family):
    with pytest.raises(ContractError, match=f"{family} batches need m_per_class >= 2, got 1"):
        config(loss_family=family, stage1=Stage1Config(m_per_class=1))


def far_apart_classes() -> Dataset:
    """Three tight classes far apart: no center-stage unit qualifies at alpha = 0."""
    return gen_gaussian_imbalanced(SyntheticSpec(sizes=[20, 10, 5], means=simplex_means(3, 4, 50.0),
                                                 sigmas=np.full(3, 0.1)))


@pytest.mark.parametrize("center_mode", ["computed", "trainable"])
def test_a_stage_two_that_mines_nothing_converges_early(center_mode):
    data = far_apart_classes()
    record = run_two_stage(config(stage2=Stage2Config(epochs=3, alpha=0.0,
                                                      center_mode=center_mode)), data)
    assert record.status == "converged_early"
    assert record.stage2_losses == [0.0]
    if center_mode == "trainable":  # no step moved the table off its computed start
        final = compute_centers(record.extractor, data.features, data.index)
        np.testing.assert_array_equal(record.centers.matrix, final.matrix)


def _first_layer_kept(record, cfg, dataset):
    return all(np.array_equal(a, b) for a, b in zip(record.extractor.state()[:2],
                                                    record.stage1_state[:2]))


# 1+2 epochs, so that a second stage-2 epoch can skip its center refresh.
CONFIG_PATHS = {
    "uncentered": (dict(centered=False),
                   lambda r, cfg, ds: not r.center_refreshes and len(r.stage2_losses) == 2),
    "lambda_ce": (dict(stage1=Stage1Config(epochs=1, m_per_class=4, lambda_ce=0.5)),
                  lambda r, cfg, ds: r.head is not None),
    "freeze_layers": (dict(stage2=Stage2Config(epochs=2, freeze_layers=1)), _first_layer_kept),
    "no_refresh": (dict(stage2=Stage2Config(epochs=2, refresh_each_epoch=False)),
                   lambda r, cfg, ds: len(r.center_refreshes) == 1),
    "random_init": (dict(stage2=Stage2Config(epochs=2, center_mode="trainable",
                                             center_init="random")),
                    lambda r, cfg, ds: np.array_equal(run_two_stage(cfg, ds).centers.matrix,
                                                      r.centers.matrix)),
    "recomputed": (dict(stage2=Stage2Config(epochs=2, center_mode="trainable",
                                            final_centers="recomputed")),
                   lambda r, cfg, ds: r.centers.mode == "computed"),
}


@pytest.mark.parametrize("path", sorted(CONFIG_PATHS))
def test_each_config_path_trains(dataset, path):
    overrides, check = CONFIG_PATHS[path]
    cfg = config(**{"stage1": Stage1Config(epochs=1, m_per_class=4),
                    "stage2": Stage2Config(epochs=2), **overrides})
    assert check(run_two_stage(cfg, dataset), cfg, dataset)


# The overflow that makes the loss non-finite warns first.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method, during", [("two_stage", "stage 1"),
                                            ("baseline:wfce", "baseline wfce")])
def test_a_non_finite_loss_aborts_the_run(dataset, method, during):
    cfg = config(method=method, optimizer=OptimizerConfig(lr=1e300))
    with pytest.raises(DivergenceError, match=f"non-finite loss during {during}"):
        run_method(cfg, dataset)


# -- the miner output contract ---------------------------------------------------

def plan(labels):
    labels = np.asarray(labels)
    return sampling.BatchPlan(indices=np.arange(len(labels)), labels=labels)


NEAR = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])  # centers inside every margin
FAR = np.array([[0.0, 0.0], [9.0, 0.0], [0.0, 9.0]])  # centers beyond every margin
MINERS = {
    "triplets_random": (3, lambda b, e, c, r: sampling.form_triplets(b, e, "random", H, r)),
    "triplets_random_hard": (3, lambda b, e, c, r: sampling.form_triplets(b, e, "random_hard", H, r)),
    "pairs": (3, lambda b, e, c, r: sampling.form_pairs(b, r)),
    "quadruplets": (4, lambda b, e, c, r: sampling.form_quadruplets(b, r)),
    "center_triplets": (3, lambda b, e, c, r: sampling.form_center_triplets(b, e, c, H)),
    "center_pairs": (3, lambda b, e, c, r: sampling.form_center_pairs(b, e, c, H)),
    "center_quadruplets": (4, lambda b, e, c, r: sampling.form_center_quadruplets(b, e, c, H, r)),
}


@pytest.mark.parametrize("name", sorted(MINERS))
def test_miners_return_intp_unit_arrays(name):
    k, mine = MINERS[name]
    batch = plan([0, 0, 1, 1, 2, 2])
    units = mine(batch, np.zeros((6, 2)), NEAR, np.random.default_rng(0))
    assert units.dtype == np.intp and units.ndim == 2 and units.shape[1] == k
    assert len(units) > 0


# form_pairs mines a cross-class pair for every slot of a valid batch, so it
# never comes back empty.
@pytest.mark.parametrize("name", sorted(set(MINERS) - {"pairs"}))
def test_miners_return_shape_zero_by_k_when_nothing_is_mined(name):
    k, mine = MINERS[name]
    if name == "center_pairs":  # pairs every anchor with its own center
        batch, emb = plan(np.zeros(0, dtype=np.intp)), np.zeros((0, 2))
    else:  # one slot per class, so no positives; each anchor on its own far center
        batch, emb = plan([0, 1, 2]), FAR.copy()
    units = mine(batch, emb, FAR, np.random.default_rng(0))
    assert units.dtype == np.intp and units.shape == (0, k)


@pytest.mark.parametrize("value", [2.5, 0, -3, float("nan")])
def test_a_sweep_dimension_must_be_a_positive_integer(dataset, value):
    with pytest.raises(ContractError, match="dimension must be a positive integer"):
        run_sweep("dimension", [8, value], config(), dataset, k=2)
