"""Benchmark of the ualgebra pipeline.

    python3 perfbench/run.py --workload cli-fixtures --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (it imports ``src/ualgebra``).  Set-up
imports the program afresh, writes the workload's seeded inputs under
``.bench_work/`` and loads them; it is repeated SETUP_RUNS times and
``setup_s`` is the median.  The run then repeats whole passes of the
workload's operations, one at a time in a closed loop (a single client),
until the operations have taken ``--seconds``.  Each result is checked
against its oracle outside the timed window.

The shared host this was built on changes speed by up to 1.8x over minutes,
so every reported time is scaled to a reference host speed: a fixed
calibration that shares no code with the program is timed between
operations (and before each set-up), and times are divided by its mean over
its reference time (see HostSpeed).  The unscaled figures and the host's
slowness are printed in the summary.  Latency quantiles are band means (see
``quantile``).

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
each pass runs twice, untraced then traced (see spans.py), and the per-layer
self times and counters of the traced passes are reported per pass, with the
tracing overhead.  A summary goes to stdout first; the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
              ("pass_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_TIMES = (
    "cli.self", "bench.self", "core.load",
    "representation.frame_load", "representation.endos", "representation.build",
    "representation.verify", "elementary.generator", "elementary.closure",
    "combinator.compose", "commutativity.medial", "commutativity.closure_pairs",
    "commutativity.conjugate", "dilatation.analyze", "dilatation.monoid",
    "dilatation.distributivity", "dilatation.fullness",
    "gallery.pert", "gallery.integers", "gallery.gaussian",
)


def import_program():
    """Import every layer of the program from scratch."""
    for name in [m for m in sys.modules if m == "ualgebra" or m.startswith("ualgebra.")]:
        del sys.modules[name]
    importlib.import_module("ualgebra.cli")


# The host's speed is measured with the benchmark's own semi-naive closure of
# one fixed 4-element algebra (inputs.closure_levels, which shares no code with
# the program), timed between operations.
CALIBRATION_DOC = inputs.random_algebra(random.Random(30))[0]
CALIBRATION_REFERENCE_S = 0.017  # its typical time in runs on a shared 2-vCPU Xeon host
CALIBRATION_INTERVAL_S = 0.2  # operation time between two calibrations


class HostSpeed:
    """How much slower than the reference host this host ran.

    A shared host's speed drifts by up to 1.8x over minutes, so runs of the
    same code disagree by more than any useful bound.  The calibration is
    timed before an operation whenever ``interval`` seconds of operation time
    have passed since the last one; ``slowness`` is its mean time over
    CALIBRATION_REFERENCE_S, and reported times are divided by it."""

    def __init__(self, interval: float):
        self.interval, self.due = interval, 0.0
        self.samples: list[float] = []

    def before(self):
        if self.due <= 0:
            start = time.perf_counter()
            inputs.closure_levels(CALIBRATION_DOC)
            self.samples.append(time.perf_counter() - start)
            self.due = self.interval

    def after(self, seconds: float):
        self.due -= seconds

    def slowness(self) -> float:
        return statistics.fmean(self.samples) / CALIBRATION_REFERENCE_S


def set_up(name: str, seed: int, workdir: Path):
    """Set up SETUP_RUNS times, each with a calibration before it; returns
    the last workload, the set-up times and the host's slowness."""
    times, workload, host = [], None, HostSpeed(0.0)
    for i in range(SETUP_RUNS):
        host.before()
        start = time.perf_counter()
        import_program()
        workload = workloads.setup(name, seed, workdir / f"setup{i}", ROOT)
        times.append(time.perf_counter() - start)
        host.after(times[-1])
    return workload, times, host.slowness()


class Outcome:
    """Latencies and oracle verdicts of a run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[tuple[str, str, bool]] = []  # label, reason, known
        self.host = HostSpeed(CALIBRATION_INTERVAL_S)

    def run_pass(self, ops, api, tracer=None, root="") -> float:
        busy = 0.0
        for op in ops:
            context = tracer.operation(root) if tracer else contextlib.nullcontext()
            gc.collect()  # start every operation from the same collector state
            if tracer is None:
                self.host.before()
            start = time.perf_counter()
            try:
                with context:
                    result = op.call(api)
                problem = None
            except Exception as exc:  # an operation that raises counts as failed
                result, problem = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            busy += elapsed
            if tracer is None:
                self.latencies.append(elapsed)
                self.host.after(elapsed)
            if problem is None:
                problem = op.check(result)
            self.attempted += 1
            if problem is not None:
                self.failures.append((op.label, problem, op.known_failure is not None))
        return busy

    @property
    def correct(self) -> bool:
        return all(known for _label, _problem, known in self.failures)


def measure(workload, seconds: float, trace: bool):
    outcome = Outcome()
    api = spans.client_api()
    tracer = traced_api = None
    if trace:
        tracer = spans.Tracer()
        traced_api = spans.client_api(tracer)
    plain_s, traced_s = [], []
    gc.freeze()  # set-up's objects need no more collecting
    busy, k = 0.0, 0
    while k == 0 or busy < seconds:
        ops = workload.passes[k % len(workload.passes)]
        plain_s.append(outcome.run_pass(ops, api))
        busy += plain_s[-1]
        if trace:
            with tracer.installed():
                traced_s.append(outcome.run_pass(ops, traced_api, tracer, workload.root))
            busy += traced_s[-1]
        k += 1
    return outcome, plain_s, traced_s, tracer


def quantile(values: list[float], q: float, half_width: float = 0.05) -> float:
    """The q-quantile, estimated as the mean of the sorted values between
    quantiles q - half_width and q + half_width.  A run holds whole passes,
    so the band holds the same operations in every run; its mean moves in
    proportion with the share of the run spent in a shared host's slow
    phases, where a single order statistic jumps between the fast and the
    slow latency of the operation it falls on."""
    ranked = sorted(values)
    lo = min(math.floor((q - half_width) * len(ranked) + 1e-9), len(ranked) - 1)
    hi = max(math.ceil((q + half_width) * len(ranked) - 1e-9), lo + 1)
    return statistics.fmean(ranked[lo:hi])


def end_to_end(outcome, setup_s: float, slowness: float) -> dict:
    """The end-to-end metrics, with operation times divided by ``slowness``."""
    lat = [t / slowness for t in outcome.latencies]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": quantile(lat, 0.5),
        "op_p90_s": quantile(lat, 0.9),
        "pass_ratio": 1 - len(outcome.failures) / outcome.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, plain_s, traced_s) -> dict:
    """Self seconds and counters per traced pass, and the tracing overhead."""
    passes = len(traced_s)
    self_s = tracer.self_times()
    out = {f"{name}_s": self_s.get(name, 0.0) / passes for name in PER_LAYER_TIMES}
    out.update({name: count / passes for name, count in tracer.counters().items()})
    per_op = tracer.per_operation().values()
    out["trace.pass_s"] = statistics.median(traced_s)
    out["trace.untraced_pass_s"] = statistics.median(plain_s)
    out["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced_s, plain_s))
    # op time outside the op's spans: the root span's own open and close
    out["trace.unattributed_s"] = (sum(traced_s) - sum(total for _root, total in per_op)) / passes
    return out


def unit(name: str) -> str:
    return dict(END_TO_END).get(name) or ("s" if name.endswith("_s") else "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ualgebra" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload, setup_times, setup_slowness = set_up(args.workload, args.seed, workdir)
        outcome, plain_s, traced_s, tracer = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    setup_s = statistics.median(setup_times)
    if args.trace:
        metrics = per_layer(tracer, plain_s, traced_s)
    else:
        metrics = end_to_end(outcome, setup_s / setup_slowness, outcome.host.slowness())
    failed = len(outcome.failures)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain_s)} "
          f"({len(workload.passes[0])} operations each)  "
          f"latency samples {len(outcome.latencies)}  trace {args.trace}")
    print("  pass seconds " + " ".join(f"{s:.4g}" for s in plain_s))
    print(f"  host slowness {outcome.host.slowness():.4g} in the run ({len(outcome.host.samples)} "
          f"calibrations), {setup_slowness:.4g} in set-up; unscaled: " + " ".join(
              f"{name} {value:.6g}" for name, value in end_to_end(outcome, setup_s, 1.0).items()
              if name.endswith("_s")))
    print(f"  failed_ratio {failed / outcome.attempted:.6g} ({failed} of {outcome.attempted})")
    for label, problem, known in sorted(set(outcome.failures)):
        print(f"  {'known failure' if known else 'FAILED'}: {label}: {problem}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
