"""One benchmark round in a fresh interpreter: ``python3 bench/worker.py``.

The parent puts its ``time.monotonic()`` at spawn in ``BENCH_SPAWN_T``; on
Linux that clock is shared by all processes, so the worker measures set-up
from interpreter start until ``statikit.cli`` and ``jsonschema`` are
imported. It then reads JSON lines from stdin: first ``{"spans": ...}``,
the span names to trace or null for an untraced round, then one
``[subcommand, argument]`` pair per job. It reads each job only when the one
before it has ended and calls ``statikit.cli.main`` on it with the CLI's
stdout and stderr captured. Each job's result is one JSON line on stdout,
written as the job ends, so the worker holds one job at a time, as a CLI
process would. One JSON report follows the results, with the set-up time,
the peak resident memory before the first job (``base_rss_mb``) and after
the last (``peak_rss_mb``), the probe samples and the trace. A job that
raises is recorded with its traceback and the round goes on. Every 0.25 s,
between jobs or inside one, it times a fixed probe computation, which tracks
the machine's speed.
"""

import time

import jsonschema  # noqa: F401  (part of set-up, as for a CLI user)
import statikit.cli as cli

READY_T = time.monotonic()

# Harness-only modules, imported after READY_T so that set-up is statikit's.
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_EVERY_S = 0.25


def probe():
    """Seconds for a fixed computation in the style of statikit's inner loops
    (Fraction sums on tuple-keyed dicts); the median of three tries, with the
    cyclic GC off so that the program's live objects cannot change it."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            terms = {}
            for i in range(300):
                key = (i % 37, i % 11)
                terms[key] = terms.get(key, Fraction(0)) + Fraction(i, 7)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Probes:
    """Runs ``probe`` every ``PROBE_EVERY_S`` seconds from a SIGALRM handler,
    so that it samples the machine's speed inside long jobs too."""

    def __init__(self):
        self.samples = []  # [perf_counter() at the probe's start, probe seconds]
        self.total_s = 0.0  # time spent in probes, handler included

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append([start, probe()])
        self.total_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def max_rss_mb():
    """This process's peak resident memory, ``VmHWM``. Not ``ru_maxrss``:
    Linux carries that over exec from the parent, whose memory would show."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_jobs(jobs, probes):
    """Run the jobs, writing each job's result as one JSON line on stdout as
    soon as it ends. A job's ``s`` is its elapsed time minus the probes that ran inside it, and
    ``t0``/``t1`` place it among the probe samples."""
    for cmd, arg in jobs:
        out, err = io.StringIO(), io.StringIO()
        error = None
        probed = probes.total_s
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([cmd, arg])
        except Exception:
            code = None
            error = traceback.format_exc(limit=-4)
        t1 = time.perf_counter()
        seconds = t1 - t0 - (probes.total_s - probed)
        result = {"code": code, "s": seconds, "t0": t0, "t1": t1, "out": out.getvalue(), "err": err.getvalue(), "error": error}
        sys.stdout.write(json.dumps(result) + "\n")


def main():
    setup_s = READY_T - float(os.environ["BENCH_SPAWN_T"])
    spans = json.loads(sys.stdin.readline())["spans"]
    tracer = None
    if spans is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, set(spans))
        tracer.active = True
    base_rss_mb = max_rss_mb()
    with Probes() as probes:
        run_jobs((json.loads(line) for line in sys.stdin), probes)
    if tracer is not None:
        tracer.active = False
    report = {
        "setup_s": setup_s,
        "base_rss_mb": base_rss_mb,
        "peak_rss_mb": max_rss_mb(),
        "probes": probes.samples,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
