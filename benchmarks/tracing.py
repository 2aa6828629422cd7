"""In-memory span tracing of the tricenter modules, installed from outside.

The tracer wraps the public functions of each traced module, the private
helpers whose results the per-layer counters need, and the methods that do
the per-step work (forward passes, backward, Adam).  A wrapper replaces the
function everywhere it is bound: in its own module, in every module that
imported it by name (``training.compute_centers``, ``cli.load_csv``, ...) and
in the package namespace.  Nothing in ``src/`` changes; removing the
wrappers restores the original objects.

Each call records a span ``[name, start, end, parent, info]``; ``parent`` is
the index of the span that was open when the call began, so nested calls
such as ``compute_centers`` -> ``embed_all`` become child spans.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

TRACED_MODULES = ("autodiff", "centers", "cli", "datasets", "evaluation", "losses",
                  "nn", "sampling", "training", "workflows")
# Private helpers traced for their results: skipped batches and fold spans.
PRIVATE_FUNCTIONS = {
    "training": ("_metric_batch_loss", "_center_stage_batch_loss"),
    "workflows": ("_run_fold",),
}
METHODS = {
    "autodiff": {"Tensor": ("backward",)},
    "nn": {"FeatureExtractor": ("forward", "__call__"),
           "LinearHead": ("forward", "__call__"),
           "Adam": ("step",)},
}

NAME, START, END, PARENT, INFO = range(5)


def _tricenter_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "tricenter" or name.startswith("tricenter.")]


class Rebinding:
    """Replaces objects on modules and classes and puts the originals back."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def everywhere(self, old, new):
        """Bind ``new`` wherever a tricenter module binds ``old``."""
        for module in _tricenter_modules():
            for attr, obj in list(vars(module).items()):
                if obj is old:
                    self.set(module, attr, new)

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _center_rows(centers) -> int:
    matrix = centers.matrix if hasattr(centers, "matrix") else np.asarray(centers)
    return matrix.shape[0]


def _center_units(args, kwargs, result, hits):
    anchors = len(_arg(args, kwargs, 0, "batch").labels)
    k = _center_rows(_arg(args, kwargs, 2, "centers"))
    return {"units": len(result), "hits": hits, "slots": anchors * (k - 1)}


def _units(args, kwargs, result):
    return {"units": len(result)}


# Per-call counters, recorded where the work happens: span name -> info.
COUNTERS = {
    "sampling.form_triplets": _units,
    "sampling.form_pairs": _units,
    "sampling.form_quadruplets": _units,
    "sampling.form_center_triplets":
        lambda a, k, r: _center_units(a, k, r, len(r)),
    "sampling.form_center_quadruplets":
        lambda a, k, r: _center_units(a, k, r, len(r)),
    "sampling.form_center_pairs":
        lambda a, k, r: _center_units(a, k, r, sum(1 for u in r if not u[2])),
    "training._metric_batch_loss": lambda a, k, r: {"skipped": r is None},
    "training._center_stage_batch_loss": lambda a, k, r: {"skipped": r is None},
    "datasets.load_csv": lambda a, k, r: {"rows": r.features.shape[0]},
}


class Tracer:
    """Collects spans in memory while installed; ``reset`` starts a new record."""

    def __init__(self):
        self.spans = []
        self._open = []

    def reset(self):
        self.spans.clear()
        self._open.clear()

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                open_.pop()
            if count is not None:
                span[INFO] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        binding = Rebinding()
        try:
            for short in TRACED_MODULES:
                module = importlib.import_module(f"tricenter.{short}")
                private = PRIVATE_FUNCTIONS.get(short, ())
                for attr, obj in list(vars(module).items()):
                    if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                            and (not attr.startswith("_") or attr in private)):
                        binding.everywhere(obj, self.wrap(f"{short}.{obj.__qualname__}", obj))
                for cls_name, methods in METHODS.get(short, {}).items():
                    cls = getattr(module, cls_name)
                    wrappers = {}
                    for attr in methods:
                        fn = cls.__dict__[attr]
                        if id(fn) not in wrappers:
                            wrappers[id(fn)] = self.wrap(f"{short}.{fn.__qualname__}", fn)
                        binding.set(cls, attr, wrappers[id(fn)])
            yield self
        finally:
            binding.undo()


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


# Per-layer time metrics: the summed self time of the spans they select.  A
# selector ending in "." takes every span of that module.
TIME_METRICS = {
    "sampling.mine_s": ("sampling.form_triplets", "sampling.form_pairs",
                        "sampling.form_quadruplets"),
    "sampling.center_mine_s": ("sampling.form_center_triplets", "sampling.form_center_pairs",
                               "sampling.form_center_quadruplets"),
    "sampling.batch_s": ("sampling.build_balanced_batch", "sampling.flat_batch_plans",
                         "sampling.oversample_indices"),
    "autodiff.backward_s": ("autodiff.Tensor.backward",),
    "nn.forward_s": ("nn.FeatureExtractor.forward", "nn.LinearHead.forward"),
    "nn.adam_s": ("nn.Adam.step",),
    "nn.ckpt_save_s": ("nn.save_checkpoint",),
    "nn.ckpt_load_s": ("nn.load_checkpoint",),
    "losses.loss_s": ("losses.",),
    "centers.refresh_s": ("centers.compute_centers",),
    "centers.embed_s": ("centers.embed_all",),
    "centers.predict_s": ("centers.nearest_center_predict_batch",
                          "centers.nearest_center_predict"),
    "workflows.predict_s": ("workflows.predict",),
    "workflows.fold_s": ("workflows.run_crossval", "workflows._run_fold",
                         "workflows.run_holdout", "workflows.evaluate_record"),
    "datasets.load_csv_s": ("datasets.load_csv",),
    "evaluation.metrics_s": ("evaluation.confusion", "evaluation.macro_metrics",
                             "evaluation.small_class_report"),
    "evaluation.split_s": ("evaluation.stratified_kfold", "evaluation.stratified_holdout"),
    "training.self_s": ("training.",),
    "cli.self_s": ("cli.",),
}


def _selects(selector, name) -> bool:
    return any(name.startswith(s) if s.endswith(".") else name == s for s in selector)


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer times, counts and ratios of one traced CLI command."""
    own = self_times(spans)
    metrics = {m: 0.0 for m in TIME_METRICS}
    for span, t in zip(spans, own):
        for metric, selector in TIME_METRICS.items():
            if _selects(selector, span[NAME]):
                metrics[metric] += t

    def outermost(span, prefix):
        return span[PARENT] < 0 or not spans[span[PARENT]][NAME].startswith(prefix)

    names = [s[NAME] for s in spans]
    counted = [s for s in spans if s[INFO] is not None]  # calls that returned
    mining = [s for s in counted if s[NAME].startswith("sampling.form_")
              and outermost(s, "sampling.form_")]
    center = [s[INFO] for s in mining if "slots" in s[INFO]]
    batches = [s[INFO] for s in counted if s[NAME] in ("training._metric_batch_loss",
                                                       "training._center_stage_batch_loss")]
    metrics.update({
        "sampling.units": sum(s[INFO]["units"] for s in mining),
        "sampling.center_hit_frac": _ratio(sum(c["hits"] for c in center),
                                           sum(c["slots"] for c in center)),
        "sampling.empty_frac": _ratio(sum(s[INFO]["units"] == 0 for s in mining), len(mining)),
        "training.skipped_frac": _ratio(sum(b["skipped"] for b in batches), len(batches)),
        "autodiff.backward_calls": names.count("autodiff.Tensor.backward"),
        "nn.adam_steps": names.count("nn.Adam.step"),
        "losses.loss_calls": sum(1 for s in spans if s[NAME].startswith("losses.")
                                 and outermost(s, "losses.")),
        "centers.refreshes": names.count("centers.compute_centers"),
        "datasets.rows_parsed": sum(s[INFO]["rows"] for s in counted
                                    if s[NAME] == "datasets.load_csv"),
    })
    return metrics


def span_table(spans) -> dict:
    """Calls, total and self seconds per span name, for the detailed report."""
    table = {}
    for span, t in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[END] - span[START]
        row[2] += t
    return {name: {"calls": c, "total_s": tot, "self_s": s}
            for name, (c, tot, s) in sorted(table.items())}
