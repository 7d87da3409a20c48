"""Benchmark of the `quad` command line, run in-process.

    python3 perfbench/run.py --workload table-asin6 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One client sends requests through ``quadrules.cli.main(argv)`` in a closed
loop on one thread, with stdout and stderr captured, and checks every
output.  Each request builds its integrand from scratch, as a ``quad``
process does.  With ``--trace 0`` the run reports end-to-end metrics,
operation times scaled to a nominal host speed measured by a fixed
probe that runs every 50 ms (see ``HostSpeed``);
with ``--trace 1`` it alternates plain and traced runs of the same
requests and reports per-layer metrics (see tracing.py) together with
the tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Workloads, metrics
and the reasons for them are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from mpmath.libmp import (from_int, mpf_add, mpf_div, mpf_mul, mpf_sin,
                          mpf_sqrt, round_nearest)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_FIRST = 5       # import timings taken before the loop
SETUP_EVERY_S = 2.0   # then one after the first operation ending this late
SETUP_CODE = ("import time; t = time.perf_counter(); import quadrules.cli; "
              "print(time.perf_counter() - t)")
MAX_REPORTED_FAILURES = 5


# The host's speed drifts by up to 1.8x within seconds (see README.md), so
# operation times are scaled by a probe: a fixed piece of mpmath arithmetic
# that does not touch quadrules, run every PROBE_EVERY_S of wall time from
# a SIGALRM handler, so that probes also fall inside long operations.
# PROBE_NOMINAL_S is the probe kernel's time in a fast phase of a 2-CPU
# host (Python 3.11.7, mpmath 1.3.0, pure-Python backend); a scaled time
# reads as the wall time on a host where the kernel takes that long.
PROBE_NOMINAL_S = 1.25e-3
PROBE_REPS = 3        # a probe is the median of this many kernel runs
PROBE_EVERY_S = 0.05


def probe_kernel():
    """Seconds one run of the probe kernel takes: sin, sqrt, products and
    sums at 53 and 256 bits through mpmath's low-level functions, bound
    when this module loads."""
    start = time.perf_counter()
    one, n = from_int(1), from_int(40)
    for prec in (53, 256):
        s = from_int(0)
        for k in range(1, 40):
            x = mpf_div(from_int(k), n, prec, round_nearest)
            s = mpf_add(s, mpf_mul(mpf_sin(x, prec, round_nearest), x, prec,
                                   round_nearest), prec, round_nearest)
            s = mpf_add(s, mpf_sqrt(mpf_add(x, one, prec, round_nearest),
                                    prec, round_nearest), prec, round_nearest)
    return time.perf_counter() - start


class HostSpeed:
    """Probes the host every ``PROBE_EVERY_S`` while entered, and scales
    wall-time intervals taken meanwhile to the nominal host speed.

    A probe runs whole between two bytecodes of the main thread, so an
    interval read there with ``time.perf_counter`` either contains a probe
    or does not overlap it.  ``scale`` drops the probes inside an interval
    and weights each stretch between two probes by the nominal kernel
    time over the mean of those two probes.
    """

    def __init__(self):
        self.probes = []      # (start, end, kernel seconds), in time order
        self.active = False

    def probe(self, *_):
        if not self.active:
            return
        self.active = False   # a late signal must not nest a probe
        start = time.perf_counter()
        value = statistics.median(probe_kernel() for _ in range(PROBE_REPS))
        self.probes.append((start, time.perf_counter(), value))
        self.active = True

    def __enter__(self):
        self.active = True
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()
        self.active = False

    @contextmanager
    def paused(self):
        """No probes inside the block; one right after it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False
        try:
            yield
        finally:
            self.active = True
            self.probe()
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S,
                             PROBE_EVERY_S)

    def scale(self, start, end):
        """(seconds, scaled seconds) of [start, end] less its probes."""
        i = bisect.bisect_right(self.probes, (start,)) - 1
        prev, cursor = self.probes[i][2], start
        seconds = scaled = 0.0
        for p_start, p_end, value in itertools.islice(self.probes, i + 1,
                                                      None):
            piece = min(p_start, end) - cursor
            seconds += piece
            scaled += piece * PROBE_NOMINAL_S / ((prev + value) / 2)
            if p_start >= end:
                break
            prev, cursor = value, p_end
        return seconds, scaled


def measure_setup(n):
    """Seconds for fresh interpreters, started one at a time, to import
    ``quadrules.cli``.  These are wall times: unlike operation times they
    did not track the probe (see README.md)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(n):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def run_op(argv):
    """(exit code, stdout, stderr) of one in-process ``quad`` call."""
    from quadrules import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def timed_op(op):
    """(start, end, result, exception) of one request, with ``start`` and
    ``end`` from ``time.perf_counter``; a request that raises has no
    result."""
    start = time.perf_counter()
    try:
        result, exc = run_op(op.argv), None
    except Exception as err:  # a traceback is a failed operation
        result, exc = None, err
    return start, time.perf_counter(), result, exc


class Outcomes:
    """Attempted and failed operations; prints the first few failures."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, op, result=None, exc=None):
        """Count one operation and return its result, or None on failure."""
        self.attempted += 1
        reason = None
        if exc is not None:
            reason = "raised " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        else:
            reason = op.check(*result)
        if reason is None:
            return result
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED: quad {op.label}: {reason}", file=sys.stderr)
        return None


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=1000, method="inclusive")[
        round(q * 10) - 1]


def tail_percentile(values):
    """Highest of p90, p99, p99.9 with at least ten samples beyond it."""
    best = None
    for q in (90, 99, 99.9):
        if len(values) * (100 - q) / 100 >= 10:
            best = q
    return best


def environment(args):
    import mpmath
    import mpmath.libmp
    return (f"env python {platform.python_version()}  mpmath "
            f"{mpmath.__version__}  backend {mpmath.libmp.BACKEND}  nproc "
            f"{len(os.sched_getaffinity(0))}  workload {args.workload}  "
            f"seed {args.seed}  seconds {args.seconds}  trace {args.trace}")


def warm_up(workloads):
    for argv in workloads.WARMUP:
        run_op(argv)


def end_to_end(workload, args):
    """Closed loop for ``args.seconds``; returns (outcomes, metrics).

    Import timings for ``setup_s`` are spread over the run, with probing
    paused, so that they sample the host's phases as the operations do.
    """
    setup = measure_setup(SETUP_FIRST)
    outcomes = Outcomes()
    digest, digested, digest_bytes = hashlib.sha256(), 0, 0
    intervals = []
    ops = workload.ops(args.seed)
    clock = time.perf_counter
    with HostSpeed() as speed:
        start = clock()
        deadline = start + args.seconds
        next_setup = start + SETUP_EVERY_S
        while clock() < deadline:
            op = next(ops)
            op_start, op_end, result, exc = timed_op(op)
            intervals.append((op_start, op_end))
            outcomes.record(op, result, exc)
            if result is not None and digested < workload.digest_ops:
                data = result[1].encode()
                digest.update(data)
                digested += 1
                digest_bytes += len(data)
            if clock() >= next_setup:
                with speed.paused():
                    setup += measure_setup(1)
                next_setup = clock() + SETUP_EVERY_S
        elapsed = clock() - start

    wall, scaled = zip(*(speed.scale(*iv) for iv in intervals))
    ms = [t * 1e3 for t in wall]
    scaled_ms = [t * 1e3 for t in scaled]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "norm_ops_per_s": (len(scaled_ms) * 1e3 / sum(scaled_ms), "1/s"),
        "norm_latency_p50_ms": (statistics.median(scaled_ms), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<20} {value:12.4f} {unit}")
    probes_ms = [p[2] * 1e3 for p in speed.probes]
    print(f"{'samples':<20} {len(ms):12d} ops in {elapsed:.1f} s; setup "
          f"from {len(setup)} child interpreters")
    print(f"{'probe':<20} {statistics.median(probes_ms):12.4f} ms median, "
          f"{min(probes_ms):.4f}..{max(probes_ms):.4f} over "
          f"{len(probes_ms)} probes; nominal {PROBE_NOMINAL_S * 1e3:g} ms")
    print("unscaled wall times:")
    print(f"{'  ops_per_s':<20} {len(ms) * 1e3 / sum(ms):12.4f} 1/s "
          f"(probe time excluded)")
    print(f"{'  latency_p50_ms':<20} {statistics.median(ms):12.4f} ms")
    q = tail_percentile(ms)
    if q is None:
        print(f"{'  latency tail':<20} {'n/a':>12} (needs >= 100 samples)")
    else:
        print(f"{f'  latency_p{q:g}_ms':<20} {percentile(ms, q):12.4f} ms")
    print(f"{'fail_ratio':<20} {outcomes.failed / outcomes.attempted:12.4f} "
          f"({outcomes.failed}/{outcomes.attempted})")
    print(f"stdout_sha256 {digest.hexdigest()} over the first {digested} "
          f"ops ({digest_bytes} bytes)")
    return outcomes, metrics


def traced(workload, args):
    """Plain and traced runs of the same requests, alternating which goes
    first; per-layer totals are taken over the first ``trace_ops``."""
    import tracing

    tracer = tracing.Tracer()
    outcomes = Outcomes()
    plain_s, traced_s = [], []
    per_op = None
    ops = workload.ops(args.seed)
    clock = time.perf_counter
    deadline = clock() + args.seconds
    i = 0
    while i < workload.trace_ops or clock() < deadline:
        op = next(ops)
        outputs = []
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            start, end, result, exc = timed_op(op)
            elapsed = end - start
            if with_trace:
                tracer.uninstall()
                tracer.end_op()
            (traced_s if with_trace else plain_s).append(elapsed)
            outputs.append(outcomes.record(op, result, exc))
        if None not in outputs and outputs[0] != outputs[1]:
            outcomes.failed += 1
            print(f"FAILED: quad {op.label}: tracing changed the output",
                  file=sys.stderr)
        i += 1
        if i == workload.trace_ops:
            per_op = tracer.per_op(i)
            op_ms = sum(traced_s) / i * 1e3

    ratio = statistics.median(traced_s) / statistics.median(plain_s)
    metrics = {name: (per_op[name], unit)
               for name, unit in tracing.METRICS.items()}
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    for name, (value, unit) in metrics.items():
        share = f"{value / op_ms:8.1%} of op" if unit == "ms" else ""
        print(f"{name:<31} {value:14.4f} {unit:<6} {share}")
    print(f"per-layer values are per operation over the first "
          f"{workload.trace_ops} ops (traced op {op_ms:.2f} ms); overhead "
          f"from {len(traced_s)} traced and {len(plain_s)} plain runs")
    return outcomes, metrics


def run_all(args):
    """Every workload in its own process; prints a summary table."""
    from workloads import WORKLOADS
    rows, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}")
            ok = False
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
        print()
    print("summary")
    for name, result in rows:
        print(f"  {name}: correct {result['correct']}, fail_ratio "
              f"{result['failed'] / result['attempted']:.4f} "
              f"({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"    {metric:<31} {m['value']:14.4f} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadrules" / "cli.py").is_file():
        print(f"run.py: no quadrules package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all)")
    workload = workloads.WORKLOADS[args.workload]

    import quadrules
    if Path(quadrules.__file__).resolve().parent != SRC / "quadrules":
        print(f"run.py: imported quadrules from {quadrules.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    print(environment(args))
    warm_up(workloads)
    outcomes, metrics = (traced if args.trace else end_to_end)(workload, args)
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
