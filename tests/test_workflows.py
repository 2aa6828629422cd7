"""Cross-validation and sweeps share one cell runner: pool and serial runs agree,
and a sweep row is the cross-validation of that point's config."""

from dataclasses import replace

import numpy as np
import pytest

from tricenter import workflows
from tricenter.datasets import gen_gaussian_imbalanced, preset_spec
from tricenter.errors import ContractError
from tricenter.losses import LossHyper
from tricenter.nn import config_fingerprint
from tricenter.training import Stage1Config, Stage2Config, TrainConfig
from tricenter.workflows import run_crossval, run_sweep


@pytest.fixture(scope="module")
def dataset():
    return gen_gaussian_imbalanced(preset_spec("skin7-like", seed=5))


CONFIG = TrainConfig(stage1=Stage1Config(epochs=1, m_per_class=4), stage2=Stage2Config(epochs=1),
                     embedding_dim=8, hidden=(12,), seed=5)


def assert_same_crossval(a, b):
    assert [f.fold for f in a.folds] == [f.fold for f in b.folds]
    for x, y in zip(a.folds, b.folds):
        assert x.record.seed == y.record.seed
        for p, q in zip(x.record.extractor.state(), y.record.extractor.state()):
            np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(x.record.centers.matrix, y.record.centers.matrix)
        np.testing.assert_array_equal(x.report.f1, y.report.f1)
    assert a.summary.mf1_mean == b.summary.mf1_mean and a.summary.mf1_std == b.summary.mf1_std


def test_crossval_in_two_worker_processes_equals_the_serial_run(dataset):
    serial = run_crossval(CONFIG, dataset, k=3)
    pooled = run_crossval(CONFIG, dataset, k=3, jobs=2)
    assert [f.record.seed for f in serial.folds] == [5, 6, 7]
    assert_same_crossval(serial, pooled)


def test_sweep_rows_are_the_crossval_of_each_point_in_serial_and_pooled_runs(dataset):
    values = [0.3, 0.1]
    serial = run_sweep("margin", values, CONFIG, dataset, k=2)
    assert run_sweep("margin", values, CONFIG, dataset, k=2, jobs=2) == serial
    assert [row["value"] for row in serial] == [0.1, 0.3]
    for row in serial:
        point = replace(CONFIG, stage2=replace(CONFIG.stage2, alpha=row["value"]))
        summary = run_crossval(point, dataset, k=2).summary
        assert row == {"value": row["value"], "mf1": summary.mf1_mean,
                       "mcp": summary.mcp_mean, "mcr": summary.mcr_mean}


@pytest.mark.parametrize("jobs", [0, -3])
def test_the_cell_runner_rejects_jobs_below_one(dataset, jobs):
    with pytest.raises(ContractError, match=f"jobs must be >= 1, got {jobs}"):
        run_crossval(CONFIG, dataset, k=3, jobs=jobs)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
def test_a_sweep_margin_must_be_finite_and_nonnegative(dataset, value):
    with pytest.raises(ContractError, match="stage2 alpha must be finite and nonnegative"):
        run_sweep("margin", [0.1, value], CONFIG, dataset, k=2, jobs=2)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_quadruplet_margin_sweep_below_beta_fails_before_any_cell(dataset, monkeypatch, jobs):
    calls = []
    monkeypatch.setattr(workflows, "_run_fold", lambda cell: calls.append(cell))
    quadruplet = replace(CONFIG, loss_family="quadruplet")
    with pytest.raises(ContractError, match="quadruplet losses need beta < alpha, got beta=0.25 alpha=0.1"):
        run_sweep("margin", [0.4, 0.1], quadruplet, dataset, k=2, jobs=jobs)
    assert calls == []


def test_a_dimension_sweep_point_has_the_fingerprint_of_its_integer_config():
    point = replace(CONFIG, embedding_dim=16.0)
    assert type(point.embedding_dim) is int
    assert config_fingerprint(point.to_dict()) == config_fingerprint(
        replace(CONFIG, embedding_dim=16).to_dict())


@pytest.mark.parametrize("change, message", [
    (dict(hyper=LossHyper(beta=-0.1)), "beta must be >= 0, got -0.1"),
    (dict(stage1=Stage1Config(m_per_class=1)), "triplet batches need m_per_class >= 2, got 1"),
], ids=["negative_beta", "triplet_one_per_class"])
def test_a_train_config_rejects_what_the_ini_rejects(change, message):
    """LossHyper alone accepts a negative beta and Stage1Config one row per
    class; a TrainConfig holding either does not."""
    with pytest.raises(ContractError, match=message):
        replace(CONFIG, **change)
