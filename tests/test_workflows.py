"""Every cross-validation goes through one cell runner: pool and serial runs
agree, and each run of a call over several is the cross-validation of that run
alone, so a sweep (a crossval of configs that differ in one key) needs no code
of its own.  A holdout of zero scores the rows it trained on.  ``predict``
scores block by block and equals the whole-matrix predict it replaced."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tricenter import cli, workflows
from tricenter.autodiff import Tensor, no_grad
from tricenter.centers import FORWARD_CHUNK, CenterTable, embed_all, nearest_center_predict_batch
from tricenter.datasets import gen_gaussian_imbalanced, preset_spec
from tricenter.errors import ContractError
from tricenter.losses import LossHyper
from tricenter.nn import FeatureExtractor, LinearHead
from tricenter.reports import render_crossval, render_run_record
from tricenter.training import Stage1Config, Stage2Config, TrainConfig, run_method
from tricenter.workflows import evaluate_record, predict, run_crossval, run_holdout


@pytest.fixture(scope="module")
def dataset():
    return gen_gaussian_imbalanced(preset_spec("skin7-like", seed=5))


CONFIG = TrainConfig(stage1=Stage1Config(epochs=1, m_per_class=4), stage2=Stage2Config(epochs=1),
                     embedding_dim=8, hidden=(12,), seed=5)


def assert_same_crossval(a, b):
    assert len(a.folds) == len(b.folds)
    for (record_a, report_a), (record_b, report_b) in zip(a.folds, b.folds):
        assert record_a.seed == record_b.seed
        for p, q in zip(record_a.extractor.parameters(), record_b.extractor.parameters()):
            np.testing.assert_array_equal(p.data, q.data)
        np.testing.assert_array_equal(record_a.centers.matrix, record_b.centers.matrix)
        np.testing.assert_array_equal(report_a.f1, report_b.f1)
    assert a.summary.mf1_mean == b.summary.mf1_mean and a.summary.mf1_std == b.summary.mf1_std


def test_crossval_in_two_worker_processes_equals_the_serial_run(dataset):
    serial = run_crossval(CONFIG, dataset, k=3)
    pooled = run_crossval(CONFIG, dataset, k=3, jobs=2)
    assert [record.seed for record, _ in serial.folds] == [5, 6, 7]  # fold f trains at seed + f
    assert_same_crossval(serial, pooled)


def assert_same_report(got, want):
    """Equal arrays and scores, in the report and in its small-class sub-report."""
    for g, w in ((got, want), (got.small_class, want.small_class)):
        for name in ("precision", "recall", "f1", "present"):
            np.testing.assert_array_equal(getattr(g, name), getattr(w, name))
        assert (g.flagged, g.mf1, g.mcp, g.mcr, g.status) == (w.flagged, w.mf1, w.mcp, w.mcr, w.status)


@pytest.mark.parametrize("cfg", [
    CONFIG,
    replace(CONFIG, loss_family="quadruplet", stage2=Stage2Config(epochs=1, center_mode="trainable")),
    replace(CONFIG, method="baseline:wfce", baseline_epochs=2),
], ids=["triplet", "quadruplet_trainable", "baseline_wfce"])
def test_a_holdout_of_zero_trains_on_every_row_and_scores_them(dataset, cfg):
    """The oracle is the training-set path ``train`` took before it ran through
    ``run_holdout``: train on the whole dataset, then score it."""
    want_record = run_method(cfg, dataset)
    want_report = evaluate_record(want_record, dataset)
    record, report = run_holdout(cfg, dataset, test_fraction=0)
    for got, want in zip(record.extractor.parameters(), want_record.extractor.parameters(), strict=True):
        np.testing.assert_array_equal(got.data, want.data)
    assert render_run_record(record) == render_run_record(want_record)
    assert_same_report(report, want_report)


def test_sweep_rows_are_the_crossval_of_each_point_in_serial_and_pooled_runs(dataset):
    """Runs of one call that differ in [stage2] alpha, data, k and small-class
    threshold each equal their cross-validation alone."""
    runs = [(replace(CONFIG, stage2=replace(CONFIG.stage2, alpha=0.3)), dataset, 3, 20),
            (replace(CONFIG, stage2=replace(CONFIG.stage2, alpha=0.1)),
             gen_gaussian_imbalanced(preset_spec("skin7-like", seed=6)), 2, 50)]
    plans = [workflows._cells(*run) for run in runs]
    serial = workflows._run_cells(plans, jobs=1)
    pooled = workflows._run_cells(plans, jobs=2)
    for (config, data, k, small), got, again in zip(runs, serial, pooled, strict=True):
        want = run_crossval(config, data, k=k, small_threshold=small)
        for result in (got, again):
            assert_same_crossval(result, want)
            assert (render_crossval(result.summary, result.small_summary)
                    == render_crossval(want.summary, want.small_summary))


@pytest.mark.parametrize("jobs", [0, -3])
def test_the_cell_runner_rejects_jobs_below_one(dataset, jobs):
    with pytest.raises(ContractError, match=f"jobs must be >= 1, got {jobs}"):
        run_crossval(CONFIG, dataset, k=3, jobs=jobs)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
def test_a_sweep_margin_must_be_finite_and_nonnegative(value):
    """A margin sweep sets [stage2] alpha, and the config refuses a bad one when built."""
    with pytest.raises(ContractError, match="stage2 alpha must be finite and nonnegative"):
        replace(CONFIG, stage2=replace(CONFIG.stage2, alpha=value))


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_quadruplet_margin_sweep_below_beta_fails_before_any_cell(tmp_path, monkeypatch, capsys,
                                                                   jobs):
    calls = []
    monkeypatch.setattr(workflows, "_run_fold", lambda *cell: calls.append(cell))
    configs = []
    for alpha in ("0.4", "0.1"):
        config = tmp_path / f"alpha{alpha}.ini"
        config.write_text("[run]\nloss_family = quadruplet\n[data]\npreset = skin7-like\n"
                          f"[stage2]\nalpha = {alpha}\n")
        configs += ["--config", str(config)]
    assert cli.main(["crossval", *configs, "--jobs", str(jobs), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: {configs[-1]}: quadruplet losses need beta < alpha, "
                                       "got beta=0.25 alpha=0.1\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    (dict(hyper=LossHyper(beta=-0.1)), "beta must be >= 0, got -0.1"),
    (dict(stage1=Stage1Config(m_per_class=1)), "triplet batches need m_per_class >= 2, got 1"),
], ids=["negative_beta", "triplet_one_per_class"])
def test_a_train_config_rejects_what_the_ini_rejects(change, message):
    """LossHyper alone accepts a negative beta and Stage1Config one row per
    class; a TrainConfig holding either does not."""
    with pytest.raises(ContractError, match=message):
        replace(CONFIG, **change)


def whole_matrix_predict(extractor, features, centers=None, head=None):
    """The predict that embedded every row first and scored the ``[N, D]`` matrix at once."""
    emb = embed_all(extractor, features)
    if centers is not None:
        return nearest_center_predict_batch(emb, centers)[0]
    with no_grad():
        return head(Tensor(emb)).data.argmax(axis=1)


@pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1100])
@pytest.mark.parametrize("scorer", ["centers", "head"])
def test_block_by_block_predict_equals_the_whole_matrix_predict(rows, scorer):
    assert FORWARD_CHUNK == 512  # the row counts straddle its block edges
    rng = np.random.default_rng(rows)
    extractor = FeatureExtractor([5, 9, 6], rng=rng)
    features = rng.normal(size=(rows, 5))
    if scorer == "head":
        model = dict(head=LinearHead(6, 4, rng=rng))
    else:  # centers among the embeddings, so that the rows split among the classes
        table = embed_all(extractor, rng.normal(size=(4, 5)))
        model = dict(centers=CenterTable(Tensor(table), mode="computed"))
    got = predict(extractor, features, **model)
    want = whole_matrix_predict(extractor, features, **model)
    assert got.dtype == np.intp and got.shape == (rows,)
    np.testing.assert_array_equal(got, want)
    assert rows < 2 or len(np.unique(want)) > 1


def parsed_view(features):
    """``features`` as ``load_csv`` hands them over: the field of structured
    records, so rows sit one label and ``in_dim`` floats apart."""
    dtype = np.dtype([("label", np.intp), ("features", np.float64, (features.shape[1],))])
    records = np.zeros(features.shape[0], dtype=dtype)
    records["features"] = features
    return records["features"]


@pytest.mark.parametrize("scorer", ["centers", "head"])
def test_a_strided_feature_view_embeds_and_predicts_as_its_contiguous_copy(scorer):
    rng = np.random.default_rng(7)
    extractor = FeatureExtractor([16, 24, 8], rng=rng)
    features = rng.normal(size=(1100, 16))  # three FORWARD_CHUNK blocks
    view = parsed_view(features)
    assert not view.flags.c_contiguous and view.strides == (17 * 8, 8)
    assert view.tobytes() == features.tobytes()
    assert embed_all(extractor, view).tobytes() == embed_all(extractor, features).tobytes()
    if scorer == "head":
        model = dict(head=LinearHead(8, 7, rng=rng))
    else:
        table = embed_all(extractor, rng.normal(size=(7, 16)))
        model = dict(centers=CenterTable(Tensor(table), mode="computed"))
    want = predict(extractor, features, **model)
    assert predict(extractor, view, **model).tobytes() == want.tobytes()
    assert len(np.unique(want)) > 1


def test_predict_of_20400_rows_peaks_well_below_their_embedding_matrix():
    """The [20400, 128] embedding matrix alone is 20.9 MB, and the whole-matrix
    predict peaked at 23.2 MB.  Block by block, predict peaks at 2.6 MB."""
    rng = np.random.default_rng(0)
    extractor = FeatureExtractor([16, 64, 128], rng=rng)
    features = rng.normal(size=(20400, 16))
    centers = CenterTable(Tensor(rng.normal(size=(7, 128))), mode="computed")
    tracemalloc.start()
    try:
        labels = predict(extractor, features, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(labels, whole_matrix_predict(extractor, features, centers))
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"
