"""Command-line interface: gen-data, train, eval, sweep, crossval.

Every command takes its settings from an INI config file (see config.py),
with --seed overriding the configured seed.  All artifacts are written under
--out; wall-clock timing goes only to train.log so repeated runs with the
same seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import copy
import sys
from dataclasses import replace
from pathlib import Path

from . import reports
from .config import RunSettings, echo_settings, load_settings
from .datasets import Dataset, gen_gaussian_imbalanced, load_csv, preset_spec, save_csv
from .errors import ContractError, DataFormatError, DivergenceError
# Unused here; the Probe in benchmarks/workloads.py reads ``cli.confusion`` to
# count the rows each confusion matrix scores.
from .evaluation import confusion  # noqa: F401
from .nn import Checkpoint, load_checkpoint, save_checkpoint
from .training import run_method
from .workflows import evaluate_record, run_crossval, run_holdout, run_sweep


def _load_dataset(settings: RunSettings, data_arg: str | None) -> Dataset:
    if data_arg:
        return load_csv(data_arg)
    if settings.data_source:
        return load_csv(settings.data_source)
    return gen_gaussian_imbalanced(preset_spec(settings.data_preset, seed=settings.train.seed))


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _setup(args) -> tuple[RunSettings, Dataset, Path]:
    """Settings with the --seed (and --k) overrides, the dataset, and --out holding the echo."""
    settings = load_settings(args.config)
    if args.seed is not None:
        settings = replace(settings, train=replace(settings.train, seed=args.seed))
    if getattr(args, "k", None) is not None:
        settings = replace(settings, k_folds=args.k)
    dataset = _load_dataset(settings, args.data)
    out = Path(args.out)
    _write(out / "config.echo.ini", echo_settings(settings))
    return settings, dataset, out


def cmd_gen_data(args) -> int:
    spec = preset_spec(args.preset, seed=args.seed)
    dataset = gen_gaussian_imbalanced(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out / "dataset.csv", spec=spec)
    print(f"wrote {out / 'dataset.csv'} ({dataset.features.shape[0]} rows, "
          f"{dataset.n_classes} classes, imbalance {spec.imbalance_ratio:.1f})")
    return 0


def cmd_train(args) -> int:
    settings, dataset, out = _setup(args)
    log_lines = []

    if settings.holdout_fraction > 0:
        result = run_holdout(settings.train, dataset,
                             test_fraction=settings.holdout_fraction,
                             small_threshold=settings.small_class_threshold)
        record, report = result.record, result.report
    else:
        record = run_method(settings.train, dataset)
        report = evaluate_record(record, dataset, small_threshold=settings.small_class_threshold)

    if record.stage1_state is not None:
        # snapshot of the extractor right after stage 1
        s1_extractor = copy.deepcopy(record.extractor)
        s1_extractor.load_state(record.stage1_state)
        save_checkpoint(out / "stage1.ckpt", Checkpoint(
            extractor=s1_extractor, epoch=len(record.stage1_losses),
            config_fingerprint=record.config_fingerprint))
    save_checkpoint(out / "final.ckpt", Checkpoint(
        extractor=record.extractor, epoch=len(record.stage1_losses) + len(record.stage2_losses),
        config_fingerprint=record.config_fingerprint, head=record.head,
        centers=record.centers))

    _write(out / "run_record.txt", reports.render_run_record(record))
    _write(out / "metrics.txt", reports.render_metrics(report, title=f"{record.method} holdout metrics"))
    _write(out / "per_class.csv", reports.render_per_class_csv(report))

    for stage, losses, times in (("stage1", record.stage1_losses, record.stage1_epoch_times),
                                 ("stage2", record.stage2_losses, record.stage2_epoch_times)):
        for i, (lv, tv) in enumerate(zip(losses, times)):
            log_lines.append(f"{stage} epoch {i}  loss {lv:.6f}  time {tv:.3f}s")
    _write(out / "train.log", "\n".join(log_lines) + ("\n" if log_lines else ""))

    print(f"{record.method}: MF1 {report.mf1:.2f}  MCP {report.mcp:.2f}  MCR {report.mcr:.2f}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    if dataset.in_dim != ckpt.extractor.in_dim:
        raise ContractError(f"dataset width {dataset.in_dim} does not match "
                            f"checkpoint input dim {ckpt.extractor.in_dim}")
    report = evaluate_record(ckpt, dataset, small_threshold=args.small_class_threshold)
    out = Path(args.out)
    _write(out / "metrics.txt", reports.render_metrics(report, title="evaluation"))
    _write(out / "per_class.csv", reports.render_per_class_csv(report))
    print(f"MF1 {report.mf1:.2f}  MCP {report.mcp:.2f}  MCR {report.mcr:.2f}")
    return 0


def cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ContractError(f"--values: {exc}") from None
    settings, dataset, out = _setup(args)
    rows = run_sweep(args.axis, values, settings.train, dataset,
                     k=settings.k_folds, small_threshold=settings.small_class_threshold,
                     jobs=args.jobs)
    _write(out / "sweep.csv", reports.render_sweep_csv(rows))
    for r in rows:
        print(f"{args.axis} {r['value']:g}: MF1 {r['mf1']:.2f}")
    return 0


def cmd_crossval(args) -> int:
    settings, dataset, out = _setup(args)
    result = run_crossval(settings.train, dataset, k=settings.k_folds,
                          small_threshold=settings.small_class_threshold, jobs=args.jobs)
    _write(out / "crossval.txt", reports.render_crossval(result.summary, result.small_summary))
    for i, fold in enumerate(result.folds):
        _write(out / f"fold{i}_metrics.txt",
               reports.render_metrics(fold.report, title=f"fold {i}"))
        _write(out / f"fold{i}_per_class.csv", reports.render_per_class_csv(fold.report))
    print(f"MF1 {result.summary.mf1_mean:.2f} ({result.summary.mf1_std:.2f}) over {settings.k_folds} folds")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricenter",
        description="Two-stage class-center triplet training on tabular/synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic imbalanced dataset")
    p.add_argument("--preset", required=True, help="preset name (skin7-like)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one model and report holdout metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--data", help="dataset csv (overrides [data] source)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--small-class-threshold", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="cross-validated sweep over margin or dimension")
    p.add_argument("--axis", choices=("margin", "dimension"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--config", required=True)
    p.add_argument("--data")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("crossval", help="stratified k-fold cross-validation")
    p.add_argument("--config", required=True)
    p.add_argument("--data")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_crossval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, DataFormatError, DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
