"""statikit benchmark: ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run it from the repository root. Each round starts a fresh single-threaded
interpreter (``bench/worker.py``) that imports ``statikit.cli`` from
``src/`` and calls ``statikit.cli.main`` in-process on every job of the
workload, so no in-process cache survives from one round to the next.
Rounds repeat while they fit in ``--seconds``; a round that takes longer
than ``ROUND_TIMEOUT_FACTOR`` times ``--seconds`` is taken for hung.
``SETUP_SAMPLES`` interpreters that run no job, each just after a bare
interpreter, give the set-up samples. Times are reported in reference
seconds, corrected for the machine's speed: job times by the worker's probe,
set-up by the bare interpreter's start (see README.md).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced rounds, at least two of each,
checks that the traced rounds give exactly equal counts, and reports the
per-layer metrics. Every output is checked (``bench/checks.py``) outside
the timed region. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import bisect
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import corpus
from checks import Checker, digest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 16
PROBE_REF_S = 0.001
BARE_REF_S = 0.05
MIN_TRACED_ROUNDS = 2
ROUND_TIMEOUT_FACTOR = 4

SPAN_FIELDS = (".calls", ".total_s", ".self_s")


class BenchError(Exception):
    pass


def run_round(jobs, spans, timeout):
    """Run the jobs in a fresh worker, tracing ``spans`` unless it is None;
    returns the worker's report, with the job results under ``jobs``."""
    argv = [sys.executable, str(BENCH / "worker.py")]
    lines = [json.dumps({"spans": spans})] + [json.dumps([job["cmd"], job["arg"]]) for job in jobs]
    payload = "\n".join(lines) + "\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["BENCH_SPAWN_T"] = repr(time.monotonic())
    with subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(payload, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"a round did not finish within {timeout:g} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-3000:]}")
    *results, last = out.splitlines()
    report = json.loads(last)
    report["jobs"] = [json.loads(line) for line in results]
    return report


def bare_start(timeout):
    """Seconds from spawn until an interpreter with the worker's environment
    and no imports of its own runs its first line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import time; print(repr(time.monotonic()))"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"a bare interpreter exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return float(proc.stdout) - t0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def run_rounds(jobs, cycle, seconds, minimum, timeout):
    """Repeats ``cycle``, a list of span lists (None for an untraced round),
    one round for each, while the next cycle is expected to end within half
    a cycle of ``seconds``, and at least ``minimum`` times; returns the
    reports of each position in the cycle."""
    reports = [[] for _ in cycle]
    durations = []
    start = time.monotonic()
    while len(durations) < minimum or time.monotonic() - start + statistics.median(durations) / 2 <= seconds:
        t0 = time.monotonic()
        for spans, out in zip(cycle, reports):
            out.append(run_round(jobs, spans, timeout))
        durations.append(time.monotonic() - t0)
    return reports


def latencies(report):
    """Job latencies in reference seconds: each job's seconds times
    ``PROBE_REF_S`` over the mean probe time from the probe just before the
    job to the probe just after it."""
    probes = report["probes"]
    starts = [t for t, _ in probes]
    out = []
    for job in report["jobs"]:
        lo = bisect.bisect_right(starts, job["t0"]) - 1
        hi = bisect.bisect_left(starts, job["t1"])
        out.append(job["s"] * PROBE_REF_S / statistics.mean(p for _, p in probes[lo : hi + 1]))
    return out


def wall(report):
    return sum(latencies(report))


def end_to_end(untraced, setup_ratios):
    """End-to-end metrics from the untraced rounds and the set-up samples,
    each the worker's set-up over the bare start just before it."""
    per_round_p = {q: [percentile(latencies(r), q) for r in untraced] for q in (50, 90)}
    return {
        "wall_s": statistics.median(wall(r) for r in untraced),
        "job_p50_ms": 1000 * statistics.median(per_round_p[50]),
        "job_p90_ms": 1000 * statistics.median(per_round_p[90]),
        "setup_s": BARE_REF_S * statistics.median(setup_ratios),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def trace_counts(report):
    trace = report["trace"]
    return {name: stat[0] for name, stat in trace["spans"].items()}, trace["counts"]


def per_layer(names, traced, untraced):
    spans = [r["trace"]["spans"] for r in traced]
    calls, counts = trace_counts(traced[0])
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name == "jobs_rss_mb":
            value = statistics.median(r["peak_rss_mb"] - r["base_rss_mb"] for r in untraced)
        elif name == "trace.overhead_s":
            value = statistics.median(wall(r) for r in traced) - statistics.median(wall(r) for r in untraced)
        elif field == "calls":
            value = calls.get(base, 0)
        elif field in ("total_s", "self_s"):
            k = 1 if field == "total_s" else 2
            value = statistics.median(s[base][k] if base in s else 0.0 for s in spans)
        elif field == "useful_ratio":
            n = calls.get(base, 0)
            value = (n - counts.get(base + ".zero", 0)) / n if n else 0.0
        else:
            value = counts.get(name, 0)
        out[name] = value
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "statikit" / "cli.py").is_file() or not (ROOT / corpus.EXAMPLE2).is_file():
        print("error: run from a statikit checkout (src/statikit and tests/fixtures are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    jobs = corpus.WORKLOADS[args.workload](args.seed)
    timeout = ROUND_TIMEOUT_FACTOR * args.seconds

    spans = sorted({m["name"].rpartition(".")[0] for m in spec["per_layer"] if m["name"].endswith(SPAN_FIELDS)})
    try:
        if args.trace:
            untraced, traced = run_rounds(jobs, [None, spans], args.seconds, MIN_TRACED_ROUNDS, timeout)
        else:
            setups = []
            for _ in range(SETUP_SAMPLES):
                bare = bare_start(timeout)
                setups.append((run_round([], None, timeout)["setup_s"], bare))
            (untraced,) = run_rounds(jobs, [None], args.seconds, 1, timeout)
            traced = []
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checker = Checker(args.workload, args.seed)
    reference = [digest(j["out"]) for j in untraced[0]["jobs"]]
    attempted = failed = 0
    problems = []
    for rnd, report in enumerate(untraced + traced):
        reasons = checker.failures(jobs, report["jobs"])
        for i, res in enumerate(report["jobs"]):
            if reasons[i] is None and digest(res["out"]) != reference[i]:
                reasons[i] = "output bytes differ between rounds"
        attempted += len(jobs)
        for i, reason in enumerate(reasons):
            if reason is not None:
                failed += 1
                problems.append(f"round {rnd} job {i} ({jobs[i]['cmd']}): {reason}")
    for line in problems[:20]:
        print("FAIL", line)
    print(f"fail_frac = {failed / attempted:.6f} ratio ({failed} of {attempted} jobs)")
    print(f"check outputs: {'PASS' if failed == 0 else 'FAIL'}")
    correct = failed == 0

    if args.trace:
        first = trace_counts(traced[0])
        repeat = all(trace_counts(r) == first for r in traced[1:])
        correct = correct and repeat
        print(f"check trace counts repeat over {len(traced)} traced rounds: {'PASS' if repeat else 'FAIL'}")
        for label, reports in (("untraced", untraced), ("traced", traced)):
            walls = ", ".join(f"{wall(r):.4f}" for r in reports)
            print(f"wall_s of the {label} rounds, in the order run: {walls} s")
        for name, (calls, total, self_s) in sorted(traced[0]["trace"]["spans"].items()):
            print(f"span {name}: calls={calls} total_s={total:.4f} self_s={self_s:.4f}")
        listed = spec["per_layer"]
        values = per_layer([m["name"] for m in listed], traced, untraced)
    else:
        samples = len(jobs) * len(untraced)
        print(f"rounds={len(untraced)} jobs_per_round={len(jobs)} job_samples={samples} setup_samples={len(setups)}")
        setup_med, bare_med = (statistics.median(x) for x in zip(*setups))
        print(f"set-up: measured median {setup_med:.4f} s, bare interpreter start median {bare_med:.4f} s")
        for r in untraced:
            raw = sum(j["s"] for j in r["jobs"])
            probe = statistics.median(p[1] for p in r["probes"])
            print(
                f"round: measured {raw:.4f} s, probe median {probe * 1000:.4f} ms, {len(r['probes'])} probes, "
                f"resident memory {r['base_rss_mb']:.2f} MiB before the first job, {r['peak_rss_mb']:.2f} MiB at peak"
            )
        listed = spec["end_to_end"]
        values = end_to_end(untraced, [raw / bare for raw, bare in setups])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']} {metric['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
