"""Wall-clock benchmark of the Unifying Database and its federation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload etl_refresh --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
every time rescaled to a reference host speed (``perfbench/pace.py``);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of
this checkout and from nowhere else; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.pace import REFERENCE_SECONDS, Pace  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")

#: ``setup_s`` is the median of at least this many set-ups, repeated
#: until this much time has passed, before the first pass (a workload
#: whose pass consumes its state also sets up before every pass).
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
#: The seed later claims must also hold on; never used while tuning.
HELD_OUT_SEED = 7919


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and check that
    ``repro`` really comes from there."""
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {source}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, "
              f"not from {source}", file=sys.stderr)
        raise SystemExit(2)


class Recorder:
    """The ``operation`` context manager a workload pass times calls with."""

    def __init__(self, pace: Pace, tracer=None) -> None:
        self.pace = pace
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        #: Names recorded with :meth:`add`: times inside an operation,
        #: which the pass total must not count twice.
        self.inner_names: set[str] = set()

    @contextmanager
    def _timed(self, name: str):
        start = perf_counter()
        yield
        self.samples.setdefault(name, []).append(perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Record a time measured inside the pass's operations; the pass
        total does not count it twice."""
        self.inner_names.add(name)
        self.samples.setdefault(name, []).append(seconds)

    @contextmanager
    def __call__(self, name: str):
        if self.tracer is None:
            with self._timed(name):
                yield
        else:
            with self.tracer.operation(name), self._timed(name):
                yield
        self.pace.tick()

    @property
    def total(self) -> float:
        """Wall seconds of the pass's operations."""
        return sum(sum(values) for name, values in self.samples.items()
                   if name not in self.inner_names)


class Run:
    """Counts, samples and signatures accumulated over one run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.signature = None
        #: Wall seconds of each set-up.
        self.setups: list[float] = []
        self.passes: list[tuple[Recorder, object]] = []
        self.state = None
        self.pace = Pace()

    def setup(self) -> None:
        self.state = None
        gc.collect()
        self.pace.tick()
        start = perf_counter()
        self.state = self.workload.setup()
        self.setups.append(perf_counter() - start)
        self.pace.sample()

    def one_pass(self, recorder: Recorder, keep: bool = True):
        """Run one pass (setting up first when the workload needs it);
        oracle failures and exceptions count against ``failed``."""
        if self.workload.setup_per_pass:
            self.setup()
        gc.collect()
        self.pace.tick()
        try:
            outcome = self.workload.run(self.state, recorder)
        except Exception as exc:   # a crashed pass fails, the run goes on
            print(f"pass failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        finally:
            self.pace.sample()
        if self.signature is None:
            self.signature = outcome.signature
        mismatch = outcome.signature != self.signature
        self.attempted += outcome.attempted
        self.failed += outcome.failed + int(mismatch)
        if keep:
            self.passes.append((recorder, outcome))
        return outcome


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """The BENCHMARK.json metrics, and the workload's own named metrics.
    Every time is rescaled to the reference host speed; the raw wall
    medians of the gated times are printed next to them."""
    recorders = [recorder for recorder, __ in run.passes]
    outcomes = [outcome for __, outcome in run.passes]
    scale = run.pace.scale()

    def samples(*names):
        return [value * scale for recorder in recorders for key in names
                for value in recorder.samples.get(key, [])]

    named = run.workload.summarize(samples, outcomes)
    ops = samples(*run.workload.ops)
    wall = {
        "setup_s": _median(run.setups),
        "batch_s": _median([recorder.total for recorder in recorders]),
        "op_p50_ms": 1000 * _median(ops) / scale,
    }
    metrics = {
        "setup_s": (wall["setup_s"] * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "batch_s": (wall["batch_s"] * scale, "s"),
        "op_p50_ms": (wall["op_p50_ms"] * scale, "ms"),
    }
    lines = [f"  {metric:<22}{value:>14.6g} {unit:<10}{note}"
             for metric, value, unit, note in named]
    header = [
        f"  {'setup_s':<22}{metrics['setup_s'][0]:>14.6g} {'s':<10}"
        f"median of {len(run.setups)} set-ups; wall "
        f"{wall['setup_s']:.6g} s",
        f"  {'batch_s':<22}{metrics['batch_s'][0]:>14.6g} {'s':<10}"
        f"median of {len(recorders)} passes; wall "
        f"{wall['batch_s']:.6g} s",
        f"  {'op_p50_ms':<22}{metrics['op_p50_ms'][0]:>14.6g} {'ms':<10}"
        f"median of {len(ops)} {run.workload.op_label}; wall "
        f"{wall['op_p50_ms']:.6g} ms",
        f"  {'peak_rss_mb':<22}{metrics['peak_rss_mb'][0]:>14.6g} MB",
        f"  {'host_speed':<22}{run.pace.mean() / REFERENCE_SECONDS:>14.6g}"
        f" {'ratio':<10}reference job time / {REFERENCE_SECONDS} s, "
        f"mean of {len(run.pace.samples)} samples",
        f"  {'error_ratio':<22}"
        f"{run.failed / max(1, run.attempted):>14.6g} {'ratio':<10}"
        f"{run.failed} failed of {run.attempted} attempted",
    ]
    return metrics, header + lines


def measure(workload, seconds: float) -> tuple[Run, dict]:
    """Untraced: set up, warm up, then passes until *seconds* elapse."""
    run = Run(workload)
    while (len(run.setups) < SETUP_REPEATS
           or sum(run.setups) < SETUP_SECONDS):
        run.setup()
    run.one_pass(Recorder(run.pace), keep=False)   # warm-up
    started = perf_counter()
    while not run.passes or perf_counter() - started < seconds:
        if run.one_pass(Recorder(run.pace)) is None and not run.passes:
            break
    metrics = {}
    if run.passes:
        metrics, lines = end_to_end(run)
        for line in lines:
            print(line)
    return run, {name: {"value": value, "unit": unit}
                 for name, (value, unit) in metrics.items()}


def traced(workload, seconds: float, trace_path: str) -> tuple[Run, dict]:
    """Alternate untraced and traced passes until *seconds* elapse."""
    from repro.obs.metrics import MetricsRegistry, set_registry

    from perfbench import layers
    from perfbench.tracer import Tracer

    run = Run(workload)
    if not workload.setup_per_pass:
        run.setup()
    run.one_pass(Recorder(run.pace), keep=False)   # warm-up
    tracer = Tracer()
    plain, walls, per_pass, dirty = [], [], [], []
    started = perf_counter()
    while not per_pass or perf_counter() - started < seconds:
        recorder = Recorder(run.pace)
        if run.one_pass(recorder, keep=False) is None:
            break
        plain.append(recorder.total)
        first_span = len(tracer.spans)
        counts_before = tracer.counts()
        layers.install(tracer)
        registry = MetricsRegistry()
        set_registry(registry)
        recorder = Recorder(run.pace, tracer)
        try:
            outcome = run.one_pass(recorder, keep=False)
        finally:
            set_registry(None)
            dirty += tracer.unpatch()
        if outcome is None:
            break
        walls.append(recorder.total)
        counts = {name: value - counts_before.get(name, 0)
                  for name, value in tracer.counts().items()}
        per_pass.append(layers.pass_metrics(
            tracer.spans[first_span:], counts, registry.snapshot(),
            outcome.extra))
    if dirty:
        print(f"shims left behind: {dirty}", file=sys.stderr)
        run.failed += len(dirty)
    metrics = {}
    if per_pass:
        metrics = {name: statistics.fmean(values[name] for values in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead_ratio"] = _median(walls) / _median(plain) - 1
        print(f"per-layer time over {len(per_pass)} traced pass(es), "
              f"{len(tracer.spans)} spans; trace.overhead_ratio "
              f"{metrics['trace.overhead_ratio']:.3f}")
        for line in layers.render_table(tracer.spans):
            print(line)
        for name, (unit, __) in layers.METRICS.items():
            print(f"  {name:<44}{metrics[name]:>14.6g} {unit}")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                # Text values (SQL, record texts) only feed distinct
                # counts; the file keeps numbers.
                value = span.value if isinstance(span.value, (int, float)) \
                    else None
                handle.write(json.dumps(span._replace(value=value)._asdict())
                             + "\n")
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    return run, {name: {"value": metrics[name], "unit": unit}
                 for name, (unit, __) in layers.METRICS.items() if metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (tests only)")
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "tmp"))
    # Spill files and any other temporary file stay inside the checkout.
    tempfile.tempdir = os.path.join(workdir, "tmp")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.scale)
        print(f"workload {workload.name} seed {args.seed} "
              f"(held-out seed {HELD_OUT_SEED})")
        if args.trace:
            trace_path = os.path.join(
                WORK, "traces", f"{workload.name}-seed{args.seed}.jsonl")
            run, metrics = traced(workload, args.seconds, trace_path)
        else:
            run, metrics = measure(workload, args.seconds)
        print("sizes " + json.dumps(workload.sizes(), sort_keys=True))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": run.failed == 0 and bool(metrics),
              "attempted": max(1, run.attempted), "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
