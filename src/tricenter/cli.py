"""Command-line interface: gen-data, train, eval, crossval.

train and crossval take their settings from an INI config file (see
config.py), with --data and --seed overriding the configured source and seed;
the config echo records the overrides, so a rerun from it repeats the run.
gen-data and eval read no config: their flags are all they take.  crossval
takes --config more than once and cross-validates each config as it would
alone, all of their folds in one pool: config i writes its artifacts under
--out/i, and --out/crossval.csv holds one row per config.  All artifacts are
written under --out, and only once the run has succeeded; wall-clock timing
goes only to train.log so repeated runs with the same seed produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import re
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
from .workflows import _cells, _run_cells, evaluate_record, model_classes, run_holdout


def _load_dataset(settings: RunSettings) -> Dataset:
    if settings.data_source:
        return load_csv(settings.data_source)
    return gen_gaussian_imbalanced(preset_spec(settings.data_preset, seed=settings.train.seed))


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_report(out: Path, report, title: str, prefix: str = ""):
    """``{prefix}metrics.txt`` and ``{prefix}per_class.csv`` of one report under ``out``."""
    _write(out / f"{prefix}metrics.txt", reports.render_metrics(report, title=title))
    _write(out / f"{prefix}per_class.csv", reports.render_per_class_csv(report))


def _setup(args, config) -> tuple[RunSettings, Dataset]:
    """The settings of the ``config`` file with the --data, --seed (and --k)
    overrides, and the dataset.  The data source is recorded as an absolute
    path, so the config echo reruns from any directory; a path that an INI
    value cannot hold is refused."""
    settings = load_settings(config)
    source = args.data or settings.data_source
    if source:
        source = os.path.abspath(source)
        if source != source.strip() or re.search(r"[\r\n]|\s[#;]", source):
            raise ContractError(f"data path {source!r} cannot be echoed: an INI value ends at a "
                                "line break or a '#' or ';' after whitespace, and is stripped")
        settings = replace(settings, data_source=source)
    if args.seed is not None:
        settings = replace(settings, train=replace(settings.train, seed=args.seed))
    if getattr(args, "k", None) is not None:
        settings = replace(settings, k_folds=args.k)
    return settings, _load_dataset(settings)


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
    settings, dataset = _setup(args, args.config)
    out = Path(args.out)
    # with no holdout, run_holdout scores the rows it trained on
    record, report = run_holdout(settings.train, dataset, test_fraction=settings.holdout_fraction,
                                 small_threshold=settings.small_class_threshold)
    scored = "holdout" if settings.holdout_fraction > 0 else "training-set"

    _write(out / "config.echo.ini", echo_settings(settings))
    save_checkpoint(out / "final.ckpt", Checkpoint(
        extractor=record.extractor, epoch=len(record.stage1_losses) + len(record.stage2_losses),
        config_fingerprint=record.config_fingerprint, head=record.head,
        centers=record.centers))

    _write(out / "run_record.txt", reports.render_run_record(record))
    _write_report(out, report, f"{record.method} {scored} metrics")

    log_lines = []
    for stage, losses, times in (("stage1", record.stage1_losses, record.stage1_epoch_times),
                                 ("stage2", record.stage2_losses, record.stage2_epoch_times)):
        for i, (lv, tv) in enumerate(zip(losses, times)):
            log_lines.append(f"{stage} epoch {i}  loss {lv:.6f}  time {tv:.3f}s")
    _write(out / "train.log", "\n".join(log_lines) + ("\n" if log_lines else ""))

    print(f"{record.method}: MF1 {report.mf1:.2f}  MCP {report.mcp:.2f}  MCR {report.mcr:.2f}")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    # the model's classes bound the labels; a rare-class file has fewer rows than that
    dataset = load_csv(args.data, n_classes=model_classes(ckpt))
    if dataset.in_dim != ckpt.extractor.in_dim:
        raise ContractError(f"dataset width {dataset.in_dim} does not match "
                            f"checkpoint input dim {ckpt.extractor.in_dim}")
    report = evaluate_record(ckpt, dataset, small_threshold=args.small_class_threshold)
    _write_report(Path(args.out), report, "evaluation")
    print(f"MF1 {report.mf1:.2f}  MCP {report.mcp:.2f}  MCR {report.mcr:.2f}")
    return 0


def cmd_crossval(args) -> int:
    runs, plans = [], []
    for config in args.config:  # every config is checked, its data read and split before any cell trains
        settings, dataset = _setup(args, config)
        try:
            plans.append(_cells(settings.train, dataset, settings.k_folds, settings.small_class_threshold))
        except ContractError as exc:  # a k that leaves a fold without rows
            raise ContractError(f"{config}: {exc}") from None
        runs.append(settings)
    results = _run_cells(plans, args.jobs)
    out, several = Path(args.out), len(runs) > 1
    for i, (settings, result) in enumerate(zip(runs, results)):
        run_out = out / str(i) if several else out
        _write(run_out / "config.echo.ini", echo_settings(settings))
        _write(run_out / "crossval.txt", reports.render_crossval(result.summary, result.small_summary))
        for f, (_, report) in enumerate(result.folds):
            _write_report(run_out, report, f"fold {f}", prefix=f"fold{f}_")
    if several:
        _write(out / "crossval.csv", reports.render_crossval_csv(
            [(config, result.summary) for config, result in zip(args.config, results)]))
    for config, settings, result in zip(args.config, runs, results):
        prefix = f"{config}: " if several else ""
        print(f"{prefix}MF1 {result.summary.mf1_mean:.2f} ({result.summary.mf1_std:.2f}) "
              f"over {settings.k_folds} folds")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad argument fails as a bad value does: exit 1, no --out
        raise ContractError(message)


def positive_int(text: str, low: int = 1) -> int:
    if int(text) < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
    return int(text)


def fold_count(text: str) -> int:
    return positive_int(text, 2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tricenter",
        description="Two-stage class-center triplet training on tabular/synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic imbalanced dataset")
    p.add_argument("--preset", required=True, help="preset name (skin7-like)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    run = argparse.ArgumentParser(add_help=False)  # the options of every configured run
    run.add_argument("--data", help="dataset csv (overrides [data] source)")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", required=True)

    p = sub.add_parser("train", parents=[run], help="train one model and report its metrics")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--small-class-threshold", type=positive_int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crossval", parents=[run],
                       help="stratified k-fold cross-validation of one or more configs")
    p.add_argument("--config", required=True, action="append", help="repeat to cross-validate several")
    p.add_argument("--k", type=fold_count)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.set_defaults(func=cmd_crossval)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ContractError, DataFormatError, DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
