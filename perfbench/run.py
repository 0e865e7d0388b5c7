"""ncgen benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ncgen is imported from ./src.
The plan (workloads.py) is built from the seed with its references
(reference.py) before the clock starts. Then, for about S seconds, fresh
worker processes run one pass of the plan each, one at a time, so every
pass of a cold workload starts with empty caches and the warm workload
pays its cache fill in set-up. Every result is checked.

--trace 0 prints the end-to-end metrics:

  setup_s       worker spawn to ready: interpreter, ncgen/numpy/scipy
                imports, and on `session` the cache warm-up, less the
                worker's time reading the plan; median of passes
  run_s         wall time of a pass after set-up, up to the last checked result
  peak_rss_mb   largest max RSS of the workers (getrusage RUSAGE_CHILDREN)
  fail_ratio    (failed + 1/2) / (attempted + 1) per pass: the Jeffreys
                estimate of the failure probability, never 0, so the first
                new failure on a clean workload shows as a relative change
  max_abs_err   worst |value - reference| over the float results checked
                against a reference, known failures left out (fail_ratio
                counts them), floored at 2^-52; median of passes
  query_p50_ms, query_p99_ms
                percentiles of the latency of one operation (one CLI call or
                one public function call) in a pass; on `session` about 3000
                small queries a pass, on the cold workloads their jobs

run_s and the query percentiles are the 90th percentile over the passes
of the per-pass values. On a shared 2-vCPU host the machine runs about a
third faster for stretches of tens of seconds; the slower passes track
its steady speed. Over ten seeds per workload, run_s spread (IQR/median)
0.08-0.16 this way against 0.15-0.24 for the median of the passes.

--trace 1 alternates untraced and traced passes and prints, per layer L
(the ncgen modules), L.calls, L.self_s, L.busy_s, L.failed and
L.terms_out from the traced passes (see tracer.py; times are medians),
plus trace.overhead_s, the traced minus the untraced run_s. The counts
must repeat exactly in every traced pass.

An operation fails when it raises, exits with an unexpected code, gives a
verdict other than pass, or a value outside its tolerance. The known
defects (workloads.KNOWN_FAILURES) are counted as failures; any other
failure makes the run incorrect. The last stdout line is the JSON
result; exit code 0 unless the run could not be made.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads  # noqa: E402  (after HERE, which sys.path[0] already is)
from worker import LAYERS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("fail_ratio", "1"), ("max_abs_err", "1"),
              ("query_p50_ms", "ms"), ("query_p99_ms", "ms"))
PER_LAYER = (("calls", "count"), ("self_s", "s"), ("busy_s", "s"),
             ("failed", "count"), ("terms_out", "count"))
COUNTS = ("calls", "failed", "terms_out")
ERR_FLOOR = 2.0 ** -52
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 165


class PassError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(plan, traced, env):
    """Spawn a worker, time it to ready, and collect its pass record."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), ROOT,
         "1" if traced else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(plan)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        ready_line = proc.stdout.readline()
        ready = time.perf_counter()
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready_line.strip() != b"ready" or proc.returncode != 0:
        raise PassError("worker exited with %s before finishing its pass"
                        % proc.returncode)
    record = json.loads(out.splitlines()[-1])
    record["setup_s"] = ready - start - record["plan_s"]
    return record


def is_traced(i, trace):
    """Pass i of a traced run: untraced, traced, traced, then alternating."""
    return bool(trace) and (i in (1, 2) or (i > 2 and i % 2 == 1))


def quantile(values, q):
    """The q-th percentile (1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes):
    """Set-up is the median over the passes; the other times are the 90th
    percentile over the passes of each pass's value, see the module doc."""
    known = workloads.KNOWN_FAILURES
    ratios = [(sum(job[2] for job in p["jobs"]) + 0.5) / (len(p["jobs"]) + 1)
              for p in passes]
    errs = [max([ERR_FLOOR] + [job[3] for job in p["jobs"]
                               if job[3] is not None and job[0] not in known])
            for p in passes]
    latencies_ms = [[job[1] * 1e3 for job in p["jobs"]] for p in passes]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "run_s": quantile([p["run_s"] for p in passes], 90),
        "peak_rss_mb": peak_kb / 1024.0,
        "fail_ratio": statistics.median(ratios),
        "max_abs_err": statistics.median(errs),
        "query_p50_ms": quantile([quantile(v, 50) for v in latencies_ms], 90),
        "query_p99_ms": quantile([quantile(v, 99) for v in latencies_ms], 90),
    }


def per_layer(traced, untraced):
    """Layer metrics from the traced passes; None if the counts do not repeat."""
    first = traced[0]["layers"]
    for p in traced[1:]:
        for name in first:
            if name.rsplit(".", 1)[1] in COUNTS and p["layers"][name] != first[name]:
                return None
    out = {}
    for name, value in first.items():
        if name.rsplit(".", 1)[1] not in COUNTS:
            value = statistics.median(p["layers"][name] for p in traced)
        out[name] = value
    out["trace.overhead_s"] = (quantile([p["run_s"] for p in traced], 90)
                               - quantile([p["run_s"] for p in untraced], 90))
    return out


def describe_layers(metrics, workload):
    total = sum(metrics[l + ".self_s"] for l in LAYERS) or 1.0
    share = {l: metrics[l + ".self_s"] / total for l in LAYERS}
    for l in sorted(LAYERS, key=share.get, reverse=True):
        print("# %-12s self %5.1f%%  calls %9d  busy %8.3f s  failed %d"
              % (l, 100 * share[l], metrics[l + ".calls"],
                 metrics[l + ".busy_s"], metrics[l + ".failed"]))
    design = {
        "tables": ("hopf has the largest self-time share",
                   max(share, key=share.get) == "hopf"),
        "analytic": ("polylog + renorm hold the majority of self time",
                     share["polylog"] + share["renorm"] > 0.5),
    }.get(workload)
    if design:
        print("# design (%s): %s -> %s" % (workload, design[0],
                                            "met" if design[1] else "MISSED"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ncgen", "__init__.py")):
        sys.exit("error: no ncgen sources under %s" % os.path.join(ROOT, "src"))

    env = worker_env()
    print("# env python %s numpy %s scipy %s mpmath %s nproc %d threads %s"
          % (platform.python_version(), metadata.version("numpy"),
             metadata.version("scipy"), metadata.version("mpmath"),
             os.cpu_count(), env["OMP_NUM_THREADS"]))
    began = time.perf_counter()
    plan = json.dumps(workloads.build(args.workload, args.seed)).encode()
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES:
            last = passes[-1]["setup_s"] + passes[-1]["run_s"]
            if elapsed + last > args.seconds or \
                    time.perf_counter() - began + 2 * last > RUN_LIMIT_S:
                break
        traced = is_traced(len(passes), args.trace)
        try:
            record = run_pass(plan, traced, env)
        except PassError as exc:
            sys.exit("error: %s" % exc)
        record["traced"] = traced
        passes.append(record)

    known = workloads.KNOWN_FAILURES
    failures = {}
    for p in passes:
        for job in p["jobs"]:
            if job[2]:
                failures.setdefault(job[0], job[4])
    for job_id, reason in failures.items():
        print("# failed%s: %s -- %s" % ("" if job_id in known else " (UNEXPECTED)",
                                        job_id, reason))
    ids = [job[0] for job in passes[0]["jobs"]]
    correct = (all([job[0] for job in p["jobs"]] == ids for p in passes)
               and all(job_id in known for job_id in failures))

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = per_layer(traced, untraced)
        if metrics is None:
            print("# layer counts differ between traced passes")
            correct = False
            metrics = per_layer(traced[:1], untraced)
        describe_layers(metrics, args.workload)
        units = {l + "." + m: u for l in LAYERS for m, u in PER_LAYER}
        units["trace.overhead_s"] = "s"
    else:
        metrics = end_to_end(untraced)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print("# %-22s %.6g %s" % (name, value, units[name]))
    print("# passes %d (%d traced), %.1f s; run_s %s; setup_s %s" % (
        len(passes), len(traced), time.perf_counter() - began,
        " ".join("%.3f" % p["run_s"] for p in passes),
        " ".join("%.3f" % p["setup_s"] for p in passes)))
    result = {
        "correct": correct,
        "attempted": sum(len(p["jobs"]) for p in passes),
        "failed": sum(job[2] for p in passes for job in p["jobs"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
