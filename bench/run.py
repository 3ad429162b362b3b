"""Benchmark of tvdp: seeded workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload sgd --seed 1 --seconds 26 --trace 0

One process, one caller, closed loop: each pass runs the workload's
operations one after another on inputs drawn afresh for that pass, and
passes repeat until about ``--seconds`` are measured (at least three).
Every time is scaled to a reference host speed, which a fixed numpy kernel
run from a timer signal samples all through the timed code (see
``SpeedMeter``).
Outputs are checked after each pass, outside the timed region; for
``queries`` pass 0 is run once more, untimed, and must print the same
bytes.  With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
tracing.py), which runs half the time untraced and half traced so that the
tracing overhead can be read off.  The last line of stdout is the result
as one JSON object; the lines before it are the same numbers for a reader,
with sample counts, machine facts and any failures.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln, logsumexp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("sgd", "ledger", "queries")
SETUP_PROBES = 9
IMPORT_PROBES = 3
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

# The host's speed drifts by up to 1.7x, in spells from under a second to
# a minute, long enough to cover a whole run.  So while anything is timed, a
# timer signal runs a fixed kernel, which calls no tvdp code, every
# SAMPLE_EVERY_S: SAMPLE_REPS log-sum-exps of log-gamma terms over
# SAMPLE_SIZE points, the kind of numpy work tvdp's composition does.  Its
# time tracks the slow spells one to one (a log-log slope of 0.93-1.04
# against compose_exact, clt_gap and sgd_compare, where a pure-Python loop
# gave 1.5-1.7).  A time t over which the kernel took p seconds on average
# is reported, net of the kernel's own runs, as t * REFERENCE_SAMPLE_S / p:
# the time at the speed at which the kernel takes REFERENCE_SAMPLE_S, about
# its time when sampled inside the workloads at full speed on the 2-core
# Xeon host of NOTES.md.  The average is over the samples within
# SAMPLE_WINDOW_S of the timed span, which gives a short span several
# samples.
SAMPLE_SIZE = 5000
SAMPLE_REPS = 8
SAMPLE_EVERY_S = 0.05
SAMPLE_WINDOW_S = 0.25
REFERENCE_SAMPLE_S = 0.0018

# Per-layer self times: single spans, then whole modules.
SPANS = (
    "composition.compose_types_approx",
    "composition.compose_kairouz",
    "composition.compose_exact",
    "composition.ledger_to_curve",
    "curves.intersect",
    "curves.curve_from_budget",
    "curves.query",
    "cli.dispatch",
    "dpsgd.sgd_compare",
    "asymptotics.clt_gap",
)
MODULES = ("composition", "curves", "mechanisms", "localdp", "amplification", "divergences")
COUNTS = (
    "curves.lines_in",
    "curves.vertices_out",
    "cli.bytes_out",
    "composition.ledger_entries",
    "composition.clamped_entries",
    "composition.capped_entries",
    "dpsgd.eta_clamped",
    "dpsgd.strict",
)
COUNT_UNITS = {"cli.bytes_out": "B"}


@dataclass
class Pass:
    wall_s: float  # as measured, net of the speed samples, not scaled
    latencies: list[float]  # per operation, in the order built, likewise
    scales: list[float]  # per operation: REFERENCE_SAMPLE_S over the kernel's mean time
    wrong: int  # outputs that missed their check
    failures: collections.Counter  # failed operations by reason
    ops: list | None = None  # kept for pass 0 only, for the repeat
    outputs: list | None = None
    trace: tuple | None = None  # Tracer.take() at the end of the pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class SpeedMeter:
    """Samples the host's speed with a fixed kernel run from a timer signal.

    Python runs the handler between bytecodes of the main thread, so the
    samples land inside the timed calls; ``scaled`` takes their time back
    out.  Use as a context manager around the timed code.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._points = np.arange(float(SAMPLE_SIZE))

    def sample(self, *_):
        start = time.perf_counter()
        for _ in range(SAMPLE_REPS):
            logsumexp(gammaln(self._points + 1.0) - 0.01 * self._points)
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()
        return False

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """Time from ``start`` to ``end`` net of the samples in it, and its
        scale to the reference speed."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples
                if start - SAMPLE_WINDOW_S <= t < end + SAMPLE_WINDOW_S]
        if not near:  # no bytecode boundary for a while: take the closest sample
            near = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return end - start - inside, REFERENCE_SAMPLE_S / statistics.fmean(near)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Time for a fresh interpreter to import tvdp and build the inputs: as
    measured, and at the reference speed (see setup_child.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=PROBE_TIMEOUT_S,
    )
    scaled, wall = map(float, proc.stdout.split())
    return wall, scaled


def measure_imports() -> dict[str, float]:
    """Median cumulative import time of tvdp and scipy.optimize (-X importtime)."""
    samples = {"tvdp": [], "scipy.optimize": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tvdp"], env=_child_env(),
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
        )
        found = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                found[fields[2].strip()] = int(fields[1]) / 1e6
        for name, values in samples.items():
            values.append(found.get(name, 0.0))
    return {name: statistics.median(values) for name, values in samples.items()}


def time_ops(ops) -> tuple[list[float], list[float], list]:
    """Run each operation once: its latency, its scale to the reference
    speed, and its output or the exception it raised."""
    spans, outputs = [], []
    with SpeedMeter() as meter:
        for op in ops:
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as err:  # a crash is a failed operation; the run goes on
                # dropped traceback: its frames would keep the call's objects
                # (an argparse parser, say) alive for the rest of the run
                out = err.with_traceback(None)
            spans.append((start, time.perf_counter()))
            outputs.append(out)
    latencies, scales = zip(*(meter.scaled(*span) for span in spans)) if spans else ((), ())
    return list(latencies), list(scales), outputs


def check_outputs(ops, outputs, reference=None) -> tuple[int, collections.Counter]:
    """Check each output against its oracle, and against ``reference`` if given.

    Returns the number of wrong outputs and the failed operations by reason;
    an operation that raised has no output, so it fails without being wrong.
    """
    wrong, failures = 0, collections.Counter()
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            failures[f"{op.label}: raised {type(out).__name__}: {out}"] += 1
            continue
        problem = op.check(out)
        if problem is None and reference is not None and out != reference[i]:
            problem = "output differs from the same call in pass 0"
        if problem:
            wrong += 1
            failures[f"{op.label}: {problem}"] += 1
    return wrong, failures


def run_passes(workload, seed, seconds, tiny=False, first=0, tracer=None, between=None):
    """Timed passes, each on fresh inputs, until about ``seconds`` are measured.

    Pass i runs the operations built for pass index ``first + i``.  A pass
    starts only while a typical pass still fits in ``seconds``, and there
    are at least MIN_PASSES.  Outputs are checked after each pass, and
    ``between()`` runs there too, both outside the measured time.
    """
    import workloads

    passes = []
    walls = []  # per pass, speed samples included
    while len(passes) < MIN_PASSES or sum(walls) + statistics.median(walls) <= seconds:
        ops = workloads.build(workload, seed, first + len(passes), tiny)
        # what earlier passes left (pass 0's outputs, say) would otherwise
        # slow every later full collection; a fresh CLI process has no such heap
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.take()  # drop the calls made while building and checking
        start = time.perf_counter()
        latencies, scales, outputs = time_ops(ops)
        walls.append(time.perf_counter() - start)
        trace = tracer.take() if tracer is not None else None
        wrong, failures = check_outputs(ops, outputs)
        keep = not passes
        passes.append(Pass(sum(latencies), latencies, scales, wrong, failures,
                           ops if keep else None, outputs if keep else None, trace))
        if between is not None:
            between()
    return passes


def repeat_first(passes) -> Pass:
    """Run pass 0's operations again, untimed; each output must equal pass 0's."""
    first = passes[0]
    latencies, scales, outputs = time_ops(first.ops)
    wrong, failures = check_outputs(first.ops, outputs, first.outputs)
    return Pass(sum(latencies), latencies, scales, wrong, failures)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def op_latencies(passes) -> list[float]:
    """Each operation's median latency over the passes, at the reference speed."""
    return [
        statistics.median(col)
        for col in zip(*([t * s for t, s in zip(p.latencies, p.scales)] for p in passes))
    ]


def end_to_end(passes, setup_times, peak_rss_mb) -> dict:
    typical = op_latencies(passes)
    samples = len(typical) * len(passes)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(typical), "s", samples),
        "latency_p50_ms": (statistics.median(typical) * 1e3, "ms", samples),
        "latency_p99_ms": (percentile(typical, 0.99) * 1e3, "ms", samples),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def per_layer(untraced, traced, imports, mismatch) -> dict:
    traces = [p.trace for p in traced]
    n = len(traces)

    def self_time(select):
        return statistics.median(
            sum(v for span, v in self_s.items() if select(span)) for self_s, *_ in traces
        )

    metrics = {}
    for span in SPANS:
        metrics[f"{span}.self_s"] = (self_time(lambda s, span=span: s == span), "s", n)
    for module in MODULES:
        metrics[f"{module}.self_s"] = (self_time(lambda s, m=module: s.startswith(m + ".")), "s", n)
    # counts are per pass, and each pass has the same sizes: report the first traced pass
    _, calls, counts, _ = traces[0]
    metrics["composition.calls"] = (
        sum(v for span, v in calls.items() if span.startswith("composition.")), "count", 1
    )
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), COUNT_UNITS.get(name, "count"), 1)
    lines_in = counts.get("curves.lines_in", 0)
    yield_ = counts.get("curves.vertices_out", 0) / lines_in if lines_in else 0.0
    metrics["curves.vertex_yield"] = (yield_, "ratio", 1)
    metrics["composition.oracle_mismatch"] = (mismatch, "count", 1)
    metrics["setup.import_tvdp_s"] = (imports["tvdp"], "s", IMPORT_PROBES)
    metrics["setup.import_scipy_optimize_s"] = (imports["scipy.optimize"], "s", IMPORT_PROBES)
    traced_wall = sum(op_latencies(traced))
    untraced_wall = sum(op_latencies(untraced))
    metrics["trace.wall_s"] = (traced_wall, "s", n)
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio", n)
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result plus what the report prints."""
    import workloads

    if trace:
        from tracing import Tracer

        imports = measure_imports()
        untraced = run_passes(workload, seed, seconds / 2, tiny)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, seed, seconds / 2, tiny, len(untraced), tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        first_ledgers = traced[0].trace[3]
        metrics = per_layer(untraced, traced, imports, workloads.oracle_mismatch(first_ledgers))
    else:
        setups = []  # (as measured, scaled)

        def probe(count):
            # interleaved with the passes, so that set-up sees the host
            # speed the passes see
            while count > 0 and len(setups) < SETUP_PROBES:
                setups.append(measure_setup(workload, seed))
                count -= 1

        passes = run_passes(workload, seed, seconds, tiny, between=lambda: probe(2))
        probe(SETUP_PROBES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(passes, [scaled for _, scaled in setups], peak_rss_mb)
    checked = passes + ([repeat_first(passes)] if workload in workloads.REPEATED else [])
    failures = sum((p.failures for p in checked), collections.Counter())
    return {
        "correct": sum(p.wrong for p in checked) == 0,
        "attempted": sum(len(p.latencies) for p in checked),
        "failed": sum(failures.values()),
        "metrics": metrics,
        "failures": failures,
        "passes": passes,
        "checked": checked,
        "setup_walls": [] if trace else [wall for wall, _ in setups],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tvdp" / "__init__.py").is_file():
        print(f"error: no tvdp sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(provenance(args)))
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"{name:36s} {value:>14.6g} {unit:6s} n={samples}")
    print("pass wall_s as measured " + " ".join(f"{p.wall_s:.4g}" for p in result["passes"]))
    if result["setup_walls"]:
        print("setup_s as measured " + " ".join(f"{w:.4g}" for w in result["setup_walls"]))
    print("pass speed scale " + " ".join(
        f"{statistics.median(p.scales):.3g}" for p in result["passes"]))
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for reason, count in sorted(result["failures"].items()):
        print(f"failure x{count}: {reason}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
