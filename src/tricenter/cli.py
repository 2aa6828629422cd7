"""Command-line interface: gen-data, train, eval, sweep, crossval.

Every command takes its settings from an INI config file (see config.py),
with --seed overriding the configured seed.  All artifacts are written under
--out; wall-clock timing goes only to train.log so repeated runs with the
same seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import reports
from .autodiff import Tensor
from .centers import CenterTable
from .config import RunSettings, echo_settings, load_settings
from .datasets import Dataset, gen_gaussian_imbalanced, load_csv, preset_spec, save_csv
from .errors import ContractError, DataFormatError, DivergenceError
from .evaluation import confusion, macro_metrics, small_class_report
from .nn import Checkpoint, load_checkpoint, save_checkpoint
from .training import RunRecord, run_method
from .workflows import evaluate_record, predict, run_crossval, run_holdout, run_sweep


def _load_dataset(settings: RunSettings, data_arg: str | None) -> Dataset:
    if data_arg:
        return load_csv(data_arg)
    if settings.data_source:
        return load_csv(settings.data_source)
    return gen_gaussian_imbalanced(preset_spec(settings.data_preset, seed=settings.train.seed))


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _echo_config(settings: RunSettings, out: Path):
    _write(out / "config.echo.ini", echo_settings(settings))


def _record_checkpoint(record: RunRecord, path: Path, epoch: int, p_norm: int):
    centers = record.centers
    ckpt = Checkpoint(
        extractor=record.extractor,
        epoch=epoch,
        config_fingerprint=record.config_fingerprint,
        head=record.head,
        center_matrix=None if centers is None else centers.matrix,
        center_mode=None if centers is None else centers.mode,
        center_source_epoch=None if centers is None else centers.source_epoch,
        center_p_norm=p_norm,
    )
    save_checkpoint(path, ckpt)


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
    settings = load_settings(args.config)
    if args.seed is not None:
        settings.train.seed = args.seed
    settings.validate()
    dataset = _load_dataset(settings, args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(settings, out)

    log_lines = []

    if settings.holdout_fraction > 0:
        result = run_holdout(settings.train, dataset,
                             test_fraction=settings.holdout_fraction,
                             small_threshold=settings.small_class_threshold)
        record, report = result.record, result.report
    else:
        record = run_method(settings.train, dataset)
        report = evaluate_record(record, dataset, p_norm=settings.train.hyper.p_norm,
                                 small_threshold=settings.small_class_threshold,
                                 small_index=dataset.index)

    t = settings.train
    if t.method == "two_stage" and record.stage1_state is not None:
        # snapshot of the extractor right after stage 1
        from .training import build_extractor
        s1_extractor = build_extractor(t, dataset.in_dim, np.random.default_rng(0))
        s1_extractor.load_state(record.stage1_state)
        save_checkpoint(out / "stage1.ckpt", Checkpoint(
            extractor=s1_extractor, epoch=t.stage1.epochs,
            config_fingerprint=record.config_fingerprint))
    _record_checkpoint(record, out / "final.ckpt",
                       epoch=t.stage1.epochs + t.stage2.epochs, p_norm=t.hyper.p_norm)

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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    table = None
    if ckpt.center_matrix is not None:
        table = CenterTable(Tensor(ckpt.center_matrix), mode=ckpt.center_mode or "computed",
                            source_epoch=ckpt.center_source_epoch)
    predicted = predict(ckpt.extractor, dataset.features, table, ckpt.head, ckpt.center_p_norm)
    n_classes = table.n_classes if table is not None else ckpt.head.bias.data.size
    n_classes = max(n_classes, int(dataset.labels.max()) + 1)
    cm = confusion(dataset.labels, predicted, n_classes)
    report = macro_metrics(cm)
    report.small_class = small_class_report(report, dataset.index, args.small_class_threshold)
    _write(out / "metrics.txt", reports.render_metrics(report, title="evaluation"))
    _write(out / "per_class.csv", reports.render_per_class_csv(report))
    print(f"MF1 {report.mf1:.2f}  MCP {report.mcp:.2f}  MCR {report.mcr:.2f}")
    return 0


def cmd_sweep(args) -> int:
    settings = load_settings(args.config)
    if args.seed is not None:
        settings.train.seed = args.seed
    settings.validate()
    dataset = _load_dataset(settings, args.data)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(settings, out)
    rows = run_sweep(args.axis, values, settings.train, dataset,
                     k=settings.k_folds, small_threshold=settings.small_class_threshold,
                     jobs=args.jobs)
    _write(out / "sweep.csv", reports.render_sweep_csv(rows))
    for r in rows:
        print(f"{args.axis} {r['value']:g}: MF1 {r['mf1']:.2f}")
    return 0


def cmd_crossval(args) -> int:
    settings = load_settings(args.config)
    if args.seed is not None:
        settings.train.seed = args.seed
    if args.k is not None:
        settings.k_folds = args.k
    settings.validate()
    dataset = _load_dataset(settings, args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(settings, out)
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
