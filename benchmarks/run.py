"""Benchmark of the tricenter command line: one workload, one seed, one process.

Run from the repository root:

    python3 benchmarks/run.py --workload triplet_holdout --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed, then its CLI command is
called in-process through ``tricenter.cli.main`` again and again for
--seconds, each call checked for correctness.  ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` alternates untraced and
traced calls and reports the per-layer metrics of the traced ones, with the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment, the inputs and every sample behind the
metrics.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# One BLAS thread: the matrices are small (at most 512 x 128), and a single
# thread keeps timings steady when the machine is shared.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count the BLAS library reports, else the count requested of it."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(seed, variants) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "inputs": [{"variant": v.index, "seed": v.seed, "config_fingerprint": v.fingerprint,
                    **v.sizes} for v in variants],
    }


def summary(values) -> dict:
    """Median, quartiles, extremes and count of a sample."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


class Runner:
    """Runs and checks measured commands; each variant's first output is the
    reference that every later same-seed output must match byte for byte."""

    def __init__(self, workload, work: Path):
        import tracing
        import workloads

        self.workload, self.work = workload, work
        self.tracing, self.workloads = tracing, workloads
        self.references = {}
        self.count = 0
        self.attempted = self.failed = 0
        self.problems = []

    def run(self, variant, tracer=None) -> dict:
        out = self.work / f"rep{self.count}"
        self.count += 1
        probe = self.workloads.Probe()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                tracer.reset()
                stack.enter_context(tracer.installed())
            stack.enter_context(probe.installed())
            start = perf_counter()
            rc = self.workloads.run_cli([*variant.argv, "--out", out])
            wall = perf_counter() - start
        reference = self.references.setdefault(variant.index, out)
        outcome = self.workloads.check(self.workload, variant, rc, probe, out,
                                       None if reference is out else reference)
        if reference is not out:
            shutil.rmtree(out)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        rep = {"variant": variant.index, "wall_s": wall, "outcome": outcome}
        if tracer is not None:
            rep["layers"] = self.tracing.layer_metrics(tracer.spans)
            rep["spans"] = self.tracing.span_table(tracer.spans)
        return rep


def measure(runner, variants, seconds, repeat_setup) -> dict:
    """Untraced calls, cycling over the variants, for ``seconds`` and at least one cycle.

    ``repeat_setup()`` times the set-up once more.  The repeats are spread
    evenly over the window, so that the set-up median samples the same
    stretch of a shared machine's fast and slow periods as the calls do."""
    runner.run(variants[0])  # warm-up; also the first same-seed reference
    reps, setup_times = [], []
    start = perf_counter()
    while len(reps) < len(variants) or perf_counter() < start + seconds:
        reps.append(runner.run(variants[len(reps) % len(variants)]))
        due = start + seconds * (len(setup_times) + 1) / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS - 1 and perf_counter() >= due:
            setup_times.append(repeat_setup())
    while len(setup_times) < SETUP_REPEATS - 1:
        setup_times.append(repeat_setup())
    first = {}
    for rep in reps:
        first.setdefault(rep["variant"], rep["outcome"].mf1)
    # Totals over the window, not per-call medians: the shared machine's speed
    # drifts over tens of seconds, and the median of a run's calls jumps
    # between its fast and slow stretches, where the total averages them.
    walls = [r["wall_s"] for r in reps]
    rates = [r["outcome"].rows / r["wall_s"] for r in reps]
    busy_s = sum(walls)
    metrics = {
        "wall_s": (busy_s / len(reps), "s"),
        "rows_per_s": (sum(r["outcome"].rows for r in reps) / busy_s, "rows/s"),
        "mf1": (statistics.fmean(first.values()), "%"),
    }
    return {"metrics": metrics, "setup_times": setup_times, "samples": {
        "wall_s": summary(walls), "rows_per_s": summary(rates), "mf1_by_variant": first,
        "calls": [[r["variant"], r["wall_s"], r["outcome"].rows] for r in reps]}}


def measure_traced(runner, variants, seconds) -> dict:
    """Pairs of an untraced and a traced call on the same input, in alternating order."""
    tracer = runner.tracing.Tracer()
    runner.run(variants[0])  # warm-up; also the first same-seed reference
    pairs = []
    deadline = perf_counter() + seconds
    while not pairs or perf_counter() < deadline:
        variant = variants[len(pairs) % len(variants)]
        if len(pairs) % 2 == 0:
            plain, traced = runner.run(variant), runner.run(variant, tracer)
        else:
            traced, plain = runner.run(variant, tracer), runner.run(variant)
        pairs.append((plain, traced))
    layers = {name: statistics.median(t["layers"][name] for _, t in pairs)
              for name in pairs[0][1]["layers"]}
    overheads = [t["wall_s"] - p["wall_s"] for p, t in pairs]
    epoch_times = [[], []]
    for plain, _ in pairs:
        for stage, times in zip(epoch_times, plain["outcome"].epoch_times):
            stage.extend(times)
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    metrics["training.stage1_epoch_s"] = (statistics.median(epoch_times[0] or [0.0]), "s")
    metrics["training.stage2_epoch_s"] = (statistics.median(epoch_times[1] or [0.0]), "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    spans = {}
    for _, traced in pairs:
        for name, row in traced["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += row[key]
    return {"metrics": metrics, "samples": {
        "pairs": len(pairs),
        "untraced_wall_s": summary([p["wall_s"] for p, _ in pairs]),
        "traced_wall_s": summary([t["wall_s"] for _, t in pairs]),
        "spans_summed_over_traced_calls": spans}}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "tricenter" / "cli.py").is_file():
        print(f"error: no tricenter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import tricenter.cli  # noqa: F401  (imports every module the CLI uses)
    import_s = perf_counter() - start

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"

    def timed_setup(directory):
        start = perf_counter()
        variants = workloads.prepare(workload, args.seed, directory)
        return perf_counter() - start, variants

    def repeat_setup():
        seconds, _ = timed_setup(work / "setup-repeat")
        shutil.rmtree(work / "setup-repeat")
        return seconds

    try:
        first_setup, variants = timed_setup(work / "inputs")
        runner = Runner(workload, work / "runs")
        runner.work.mkdir()
        if args.trace:
            result = measure_traced(runner, variants, args.seconds)
            result["metrics"]["failed_frac"] = (runner.failed / runner.attempted, "ratio")
        else:
            result = measure(runner, variants, args.seconds, repeat_setup)
            setup_times = [first_setup, *result["setup_times"]]
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["metrics"]["peak_rss_mb"] = (peak_mb, "MB")
            result["metrics"]["setup_s"] = (import_s + statistics.median(setup_times), "s")
            result["samples"]["setup_s"] = {"import_s": import_s, "repeats": setup_times}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    report = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed, variants),
              "problems": runner.problems[:20], "samples": result["samples"]}
    print(json.dumps(report))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
