"""Golden renders of the report writers on hand-made reports."""

import numpy as np
import pytest

from tricenter.evaluation import CrossvalSummary, MetricsReport
from tricenter.reports import (render_crossval, render_crossval_csv, render_metrics,
                               render_per_class_csv)


def report(small_status=None, mf1=46.46):
    """Four classes: 1 flagged (it was never predicted), 2 absent, 3 small."""
    rep = MetricsReport(precision=np.array([80.0, 0.0, 0.0, 50.0]),
                        recall=np.array([200 / 3, 0.0, 0.0, 100.0]),
                        f1=np.array([800 / 11, 0.0, 0.0, 200 / 3]),
                        present=np.array([True, True, False, True]), flagged=[1],
                        mcp=130 / 3, mcr=500 / 9, mf1=mf1)
    if small_status == "ok":
        rep.small_class = MetricsReport(precision=np.array([0.0, 0.0, 0.0, 50.0]),
                                        recall=np.array([0.0, 0.0, 0.0, 100.0]),
                                        f1=np.array([0.0, 0.0, 0.0, 200 / 3]),
                                        present=np.array([False, True, False, True]),
                                        flagged=[1], mcp=25.0, mcr=50.0, mf1=100 / 3)
    elif small_status == "empty":
        rep.small_class = MetricsReport(precision=np.zeros(4), recall=np.zeros(4),
                                        f1=np.zeros(4), present=np.zeros(4, dtype=bool),
                                        flagged=[], mcp=0.0, mcr=0.0, mf1=0.0, status="empty")
    return rep


TABLE = """\
# fold 0

macro: MF1 46.46  MCP 43.33  MCR 55.56

class  precision  recall  f1      notes
0          80.00   66.67   72.73
1           0.00    0.00    0.00  zero-division coerced to 0
2              -       -       -  absent
3          50.00  100.00   66.67
"""


@pytest.mark.parametrize("small_status, tail", [
    (None, ""),
    ("ok", "\nsmall classes (1, 3): MF1 33.33  MCP 25.00  MCR 50.00\n"),
    ("empty", "\nsmall classes: none under the threshold\n"),
], ids=["no_small_report", "small_ok", "small_empty"])
def test_render_metrics_golden(small_status, tail):
    assert render_metrics(report(small_status), title="fold 0") == TABLE + tail


def test_render_per_class_csv_golden():
    assert render_per_class_csv(report("ok")) == (
        "class,precision,recall,f1,present,flagged\n"
        "0,80.00,66.67,72.73,1,0\n"
        "1,0.00,0.00,0.00,1,1\n"
        "2,0.00,0.00,0.00,0,0\n"
        "3,50.00,100.00,66.67,1,0\n"
        "macro,43.33,55.56,46.46,,\n")


def test_render_crossval_golden():
    folds = [report(mf1=40.0), report(mf1=50.0), report(mf1=60.0)]
    small = CrossvalSummary([report("ok").small_class, report("ok").small_class])
    body = ("# cross-validation summary\n"
            "\n"
            "folds: 3\n"
            "MF1: 50.00 (10.00)\n"
            "MCP: 43.33 (0.00)\n"
            "MCR: 55.56 (0.00)\n")
    table = ("\n"
             "fold  MF1     MCP     MCR\n"
             "0      40.00   43.33   55.56\n"
             "1      50.00   43.33   55.56\n"
             "2      60.00   43.33   55.56\n")
    assert render_crossval(CrossvalSummary(folds)) == body + table
    assert render_crossval(CrossvalSummary(folds), small) == body + (
        "\n"
        "small-class MF1: 33.33 (0.00)\n"
        "small-class MCP: 25.00 (0.00)\n"
        "small-class MCR: 50.00 (0.00)\n") + table


def test_render_crossval_csv_golden():
    """The fold means of each config, under the config path as given; a path
    holding a comma or a quote is quoted, so every row keeps four fields."""
    first = CrossvalSummary([report(mf1=50.0), report(mf1=40.0)])
    second = CrossvalSummary([report(mf1=2 / 3)])
    assert render_crossval_csv([("a.ini", first), ('runs/b,"2".ini', second)]) == (
        "config,mf1,mcp,mcr\n"
        "a.ini,45.00,43.33,55.56\n"
        '"runs/b,""2"".ini",0.67,43.33,55.56\n')
    assert render_crossval_csv([]) == "config,mf1,mcp,mcr\n"
