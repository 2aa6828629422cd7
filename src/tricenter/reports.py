"""Deterministic writers for metrics reports, per-class CSVs, and run records.

No timestamps appear in any of these files; wall-clock information is
confined to the run log so that reruns with the same seed are byte-identical.
Percentages are printed with two decimals.
"""

from __future__ import annotations

import csv
import io

from .evaluation import CrossvalSummary, MetricsReport
from .training import RunRecord


def render_metrics(report: MetricsReport, title: str = "metrics") -> str:
    lines = [f"# {title}", ""]
    lines.append(f"macro: MF1 {report.mf1:.2f}  MCP {report.mcp:.2f}  MCR {report.mcr:.2f}")
    lines.append("")
    lines.append("class  precision  recall  f1      notes")
    for c in range(report.n_classes):
        if not report.present[c]:
            lines.append(f"{c:<5d}  {'-':>9}  {'-':>6}  {'-':>6}  absent")
            continue
        note = "zero-division coerced to 0" if c in report.flagged else ""
        lines.append(f"{c:<5d}  {report.precision[c]:9.2f}  {report.recall[c]:6.2f}  "
                     f"{report.f1[c]:6.2f}  {note}".rstrip())
    if report.small_class is not None:
        sc = report.small_class
        lines.append("")
        if sc.status == "empty":
            lines.append("small classes: none under the threshold")
        else:
            small_ids = [str(c) for c in range(sc.n_classes) if sc.present[c]]
            lines.append(f"small classes ({', '.join(small_ids)}): "
                         f"MF1 {sc.mf1:.2f}  MCP {sc.mcp:.2f}  MCR {sc.mcr:.2f}")
    lines.append("")
    return "\n".join(lines)


def render_per_class_csv(report: MetricsReport) -> str:
    rows = ["class,precision,recall,f1,present,flagged"]
    for c in range(report.n_classes):
        rows.append(f"{c},{report.precision[c]:.2f},{report.recall[c]:.2f},"
                    f"{report.f1[c]:.2f},{int(report.present[c])},{int(c in report.flagged)}")
    rows.append(f"macro,{report.mcp:.2f},{report.mcr:.2f},{report.mf1:.2f},,")
    return "\n".join(rows) + "\n"


def render_crossval(summary: CrossvalSummary, small: CrossvalSummary | None = None) -> str:
    lines = ["# cross-validation summary", ""]
    lines.append(f"folds: {summary.k}")
    lines.append(f"MF1: {summary.mf1_mean:.2f} ({summary.mf1_std:.2f})")
    lines.append(f"MCP: {summary.mcp_mean:.2f} ({summary.mcp_std:.2f})")
    lines.append(f"MCR: {summary.mcr_mean:.2f} ({summary.mcr_std:.2f})")
    if small is not None:
        lines.append("")
        lines.append(f"small-class MF1: {small.mf1_mean:.2f} ({small.mf1_std:.2f})")
        lines.append(f"small-class MCP: {small.mcp_mean:.2f} ({small.mcp_std:.2f})")
        lines.append(f"small-class MCR: {small.mcr_mean:.2f} ({small.mcr_std:.2f})")
    lines.append("")
    lines.append("fold  MF1     MCP     MCR")
    for i, rep in enumerate(summary.fold_reports):
        lines.append(f"{i:<4d}  {rep.mf1:6.2f}  {rep.mcp:6.2f}  {rep.mcr:6.2f}")
    lines.append("")
    return "\n".join(lines)


def render_run_record(record: RunRecord) -> str:
    lines = ["# run record", ""]
    lines.append(f"method: {record.method}")
    lines.append(f"seed: {record.seed}")
    lines.append(f"config_fingerprint: {record.config_fingerprint}")
    lines.append(f"status: {record.status}")
    if record.stage1_losses:
        lines.append("")
        lines.append("stage1 mean loss per epoch:")
        for i, v in enumerate(record.stage1_losses):
            lines.append(f"  {i:<4d} {v:.6f}")
    if record.stage2_losses:
        lines.append("")
        lines.append("stage2 mean loss per epoch:")
        for i, v in enumerate(record.stage2_losses):
            lines.append(f"  {i:<4d} {v:.6f}")
    if record.center_refreshes:
        lines.append("")
        lines.append("center refreshes (epoch, source parameter fingerprint):")
        for epoch, fp in record.center_refreshes:
            lines.append(f"  {epoch:<4d} {fp}")
    lines.append("")
    return "\n".join(lines)


def render_crossval_csv(rows) -> str:
    """One ``config,mf1,mcp,mcr`` row per ``(config path, CrossvalSummary)``: the fold means."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["config", "mf1", "mcp", "mcr"])
    for config, s in rows:
        writer.writerow([config, f"{s.mf1_mean:.2f}", f"{s.mcp_mean:.2f}", f"{s.mcr_mean:.2f}"])
    return out.getvalue()
