"""Tests of the benchmark itself, on few-epoch smoke versions of the workloads.

Run from the repository root:

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tricenter import centers, cli, training  # noqa: E402

SMOKE_EPOCHS = 2


def smoke(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    config = {section: dict(keys) for section, keys in workload.config.items()}
    for section in ("stage1", "stage2", "baseline"):
        if section in config:
            config[section]["epochs"] = SMOKE_EPOCHS
    return dataclasses.replace(workload, config=config, variants=1,
                               eval_scale=min(workload.eval_scale, 2))


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Per workload: the runner, and an untraced then a traced run of one input."""
    pairs = {}
    for name in workloads.WORKLOADS:
        workload = smoke(name)
        work = tmp_path_factory.mktemp(name)
        (variant,) = workloads.prepare(workload, seed=5, directory=work / "inputs")
        runner = run.Runner(workload, work)
        tracer = tracing.Tracer()
        plain = runner.run(variant)
        traced = runner.run(variant, tracer)
        pairs[name] = (runner, plain, traced, list(tracer.spans))
    return pairs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_runs_pass_the_correctness_gate(traced_pairs, name):
    runner, plain, traced, _ = traced_pairs[name]
    assert runner.problems == []
    assert runner.failed == 0
    assert runner.attempted == 2 * plain["outcome"].attempted
    assert np.isfinite(plain["outcome"].mf1) and plain["outcome"].rows > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_is_transparent(traced_pairs, name):
    runner, plain, traced, spans = traced_pairs[name]
    assert spans, "the traced run recorded no spans"
    # The traced run's artifacts were checked byte for byte against the untraced ones.
    assert traced["outcome"].failed == 0
    assert traced["outcome"].mf1 == plain["outcome"].mf1
    assert traced["outcome"].rows == plain["outcome"].rows


def test_exercise_and_bypass_pattern(traced_pairs):
    layers = {name: pair[2]["layers"] for name, pair in traced_pairs.items()}
    triplet, quad = layers["triplet_holdout"], layers["quadruplet_crossval"]
    oce, bulk = layers["oce_holdout"], layers["eval_bulk"]

    assert triplet["sampling.mine_s"] > 0 and triplet["sampling.units"] > 0
    assert triplet["sampling.center_mine_s"] > 0
    assert 0 <= triplet["sampling.center_hit_frac"] <= 1
    assert triplet["sampling.empty_frac"] == triplet["training.skipped_frac"]
    # computed centers: one refresh per stage-2 epoch plus the final table
    assert triplet["centers.refreshes"] == SMOKE_EPOCHS + 1
    # trainable centers: one warm start per fold and never recomputed
    assert quad["centers.refreshes"] == 5
    assert quad["sampling.mine_s"] > 0 and quad["evaluation.split_s"] > 0

    for bypass in (oce, bulk):
        assert bypass["sampling.mine_s"] == 0
        assert bypass["sampling.center_mine_s"] == 0
        assert bypass["sampling.units"] == 0
        assert bypass["centers.refreshes"] == 0
    assert oce["sampling.batch_s"] > 0 and oce["autodiff.backward_calls"] > 0
    assert oce["nn.adam_steps"] == oce["autodiff.backward_calls"]
    for name in ("autodiff.backward_calls", "nn.adam_steps", "losses.loss_calls"):
        assert bulk[name] == 0
    assert bulk["datasets.rows_parsed"] == traced_pairs["eval_bulk"][2]["outcome"].rows
    assert bulk["centers.predict_s"] > 0 and bulk["nn.ckpt_load_s"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_time_never_exceeds_span_time(traced_pairs, name):
    spans = traced_pairs[name][3]
    for span, own in zip(spans, tracing.self_times(spans)):
        duration = span[tracing.END] - span[tracing.START]
        assert -1e-9 <= own <= duration


def _children(spans, parent):
    """Names of the direct children of every span named ``parent``, one set per span."""
    kids = {i: set() for i, s in enumerate(spans) if s[tracing.NAME] == parent}
    for span in spans:
        if span[tracing.PARENT] in kids:
            kids[span[tracing.PARENT]].add(span[tracing.NAME])
    return list(kids.values())


def test_nested_calls_are_child_spans(traced_pairs):
    triplet = traced_pairs["triplet_holdout"][3]
    refreshes = _children(triplet, "centers.compute_centers")
    assert refreshes and all("centers.embed_all" in kids for kids in refreshes)
    quad = traced_pairs["quadruplet_crossval"][3]
    mining = _children(quad, "sampling.form_center_quadruplets")
    assert mining and all(kids == {"sampling.form_center_triplets"} for kids in mining)


def test_functions_are_wrapped_at_every_import_site_and_restored():
    import tricenter

    originals = (centers.compute_centers, training.compute_centers, tricenter.compute_centers,
                 cli.load_csv, training.Tensor.backward)
    with tracing.Tracer().installed():
        wrapped = training.compute_centers
        assert wrapped is not originals[0]
        assert centers.compute_centers is wrapped and tricenter.compute_centers is wrapped
        assert cli.load_csv is not originals[3]
        assert training.Tensor.backward is not originals[4]
    assert (centers.compute_centers, training.compute_centers, tricenter.compute_centers,
            cli.load_csv, training.Tensor.backward) == originals


def test_layer_metrics_count_outermost_units_and_ratios():
    spans = [
        ["training._center_stage_batch_loss", 0.0, 4.0, -1, {"skipped": False}],
        ["sampling.form_center_quadruplets", 1.0, 3.0, 0, {"units": 3, "hits": 3, "slots": 12}],
        ["sampling.form_center_triplets", 1.5, 2.0, 1, {"units": 3, "hits": 3, "slots": 12}],
        ["training._metric_batch_loss", 5.0, 6.0, -1, {"skipped": True}],
        ["sampling.form_triplets", 5.0, 5.5, 3, {"units": 0}],
    ]
    layers = tracing.layer_metrics(spans)
    assert layers["sampling.units"] == 3
    assert layers["sampling.center_hit_frac"] == 3 / 12
    assert layers["sampling.empty_frac"] == 0.5 and layers["training.skipped_frac"] == 0.5
    assert layers["sampling.center_mine_s"] == pytest.approx(2.0)
    assert layers["sampling.mine_s"] == pytest.approx(0.5)
    assert layers["training.self_s"] == pytest.approx(2.0 + 0.5)


def test_majority_mf1():
    # always 0 on [0, 0, 1, 2]: F1 of class 0 is 2*2/(4+2); three classes present
    assert workloads.majority_mf1(0, [0, 0, 1, 2]) == pytest.approx(100 * (4 / 6) / 3)
    assert workloads.majority_mf1(0, [1, 2]) == 0.0


def test_same_seed_comparison_finds_a_changed_artifact(traced_pairs, tmp_path):
    runner, _, _, _ = traced_pairs["quadruplet_crossval"]
    (reference,) = runner.references.values()
    changed = tmp_path / "changed"
    shutil.copytree(reference, changed)
    (changed / "fold0_metrics.txt").write_text("tampered\n")
    assert workloads.differing_artifacts(changed, reference) == ["fold0_metrics.txt"]


def _result(args):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_reports_the_declared_metrics(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc, result = _result(["--workload", "eval_bulk", "--seed", "3", "--seconds", "0",
                            "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "eval_bulk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
