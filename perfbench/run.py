#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, every metric.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve-hot|serve-churn|sim-batch \\
        --seed N --seconds S --trace 0|1

Builds uhm_perfbench from the checkout's sources into .bench_build/
(the first run takes a minute or two), runs the workload, checks every
output, and prints one line per metric, a provenance line, and as the
last line a JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics; --trace 1 makes the
traced run, checks its span log (check_trace.py) and reports the
per-layer metrics. README.md in this directory describes the workloads
and what each metric should move.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import check_trace  # noqa: E402  (after the flag above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve-hot", "serve-churn", "sim-batch")
# Never used while this benchmark was written: keep it for confirming a
# claimed gain on a seed the change was not tuned on.
HELD_OUT_SEED = 7477
# The measurement window is cut into this many equal slices; a serve
# rate is the median over the slices (sim-batch's: see pass_rates).
SLICES = 5
# A percentile needs this many samples beyond it to be reported.
MIN_BEYOND = 10
BINARY_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hh")):
        fail("no UHM sources at %s; run from the root of a full checkout"
             % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "uhm_perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, "uhm_perfbench")


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return {"n": len(values), "median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def percentile(sorted_values, p):
    """Nearest-rank percentile, with its sample count and the number of
    samples beyond it. Refuses when fewer than MIN_BEYOND lie beyond."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        fail("p%g of %d samples has only %d beyond it (need %d); "
             "run longer" % (p, n, beyond, MIN_BEYOND))
    return sorted_values[rank - 1], {"n": n, "beyond": beyond}


def pass_rates(result):
    """sim-batch's rates, one per complete pass over its points.

    Its ops range from 0.1 to 90 ms, so a time slice's rate depends on
    how many long ops it happened to hold; every complete pass holds the
    same ones. A pass's rate is its ops (or DIR instructions) over its
    busy time, the sum of its ops' latencies, shared by the threads.
    """
    ops = result["ops"]
    size = result["pass_ops"]
    passes = {}
    for op, latency_us, dir_instrs in zip(ops["op"], ops["latency_us"],
                                          ops["dir_instrs"]):
        p = passes.setdefault(op // size, [0, 0.0, 0])
        p[0] += 1
        p[1] += latency_us * 1e-6
        p[2] += dir_instrs
    full = [p for p in passes.values() if p[0] == size]
    if len(full) < 2:
        fail("only %d complete passes over the points; run longer"
             % len(full))
    threads = result["threads"]
    return ([n * threads / busy for n, busy, _ in full],
            [d * threads / busy for _, busy, d in full])


def end_to_end(result):
    """The end-to-end metrics, with their provenance."""
    ops = result["ops"]
    window = result["window_s"]
    seconds = float(result["seconds"])
    edges = [seconds * i / SLICES for i in range(SLICES)] + [math.inf]
    if result["pass_ops"]:
        rates, dir_rates = pass_rates(result)
    else:
        # Ops that end after the deadline (the last in flight) belong to
        # the last slice, which therefore lasts until the window closed.
        counts = [0] * SLICES
        dirs = [0] * SLICES
        for end, dir_instrs in zip(ops["end_s"], ops["dir_instrs"]):
            j = next(i for i in range(SLICES) if end < edges[i + 1])
            counts[j] += 1
            dirs[j] += dir_instrs
        lengths = [seconds / SLICES] * SLICES
        lengths[-1] = window - edges[SLICES - 1]
        rates = [c / t for c, t in zip(counts, lengths)]
        dir_rates = [d / t for d, t in zip(dirs, lengths)]

    latency_ms = sorted(v / 1e3 for v in ops["latency_us"])
    p50, p50_samples = percentile(latency_ms, 50)
    # p99 is the median of the slices' p99s: a few seconds of a slow
    # host put most of a window's tail into one or two slices.
    slice_p50 = []
    slice_p99 = []
    p99_samples = None
    for j in range(SLICES):
        part = sorted(v / 1e3 for v, end in
                      zip(ops["latency_us"], ops["end_s"])
                      if edges[j] <= end < edges[j + 1])
        if not part:
            fail("slice %d of the window holds no operation" % j)
        slice_p50.append(part[max(1, math.ceil(0.5 * len(part))) - 1])
        value, samples = percentile(part, 99)
        slice_p99.append(value)
        if p99_samples is None or samples["beyond"] < p99_samples["beyond"]:
            p99_samples = samples

    metrics = {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "req_per_s": (statistics.median(rates), "1/s"),
        "sim_dir_instrs_per_s": (statistics.median(dir_rates), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (statistics.median(slice_p99), "ms"),
        "sim_cycles_per_instr": (result["sim_cycles_per_instr"],
                                 "cycles/instr"),
        "image_bits": (result["image_bits"], "bits"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    provenance = {
        "setup_s": quartiles(result["setup_s"]),
        "req_per_s": quartiles(rates),
        "sim_dir_instrs_per_s": quartiles(dir_rates),
        "latency_p50_ms": dict(quartiles(slice_p50), samples=p50_samples),
        "latency_p99_ms": dict(quartiles(slice_p99),
                               samples=dict(p99_samples, per_slice=True)),
    }
    return metrics, provenance


def machine_provenance(result):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    binary = build()
    # A short relative path: the serve workloads bind a unix socket in it.
    out_rel = os.path.join(".bench_build", "perfbench", "out",
                           "%s-%d-t%d" % (args.workload, args.seed,
                                          args.trace))
    out_dir = os.path.join(ROOT, out_rel)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace), "--out", out_rel]
    try:
        status = subprocess.run(command, cwd=ROOT,
                                timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("uhm_perfbench did not finish in %d s" % BINARY_TIMEOUT_S)
    if status != 0:
        fail("uhm_perfbench exited with status %d" % status)
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)

    problems = []
    if args.trace:
        metrics, provenance, problems = check_trace.analyze(out_dir)
    else:
        metrics, provenance = end_to_end(result)
    attempted = result["attempted"]
    failed = result["failed"]

    for name, (value, unit) in metrics.items():
        extra = provenance.get(name, {})
        samples = extra.get("samples", {})
        note = ""
        if samples.get("per_slice"):
            note = ("  (median of %d slices; fewest in one: %d samples, "
                    "%d beyond)" % (extra["n"], samples["n"],
                                    samples["beyond"]))
        elif samples:
            note = "  (%d samples, %d beyond)" % (samples["n"],
                                                  samples["beyond"])
        elif extra.get("n", 1) > 1:
            note = "  (n=%d, q1 %.6g, q3 %.6g)" % (extra["n"], extra["q1"],
                                                  extra["q3"])
        print("%-30s %16.6f %-12s%s" % (name, value, unit, note))
    print("%-30s %16.6f %-12s  (%d failed of %d attempted)"
          % ("error_rate", failed / attempted, "ratio", failed, attempted))
    for example in result["failures"]:
        print("failure: " + example)
    for problem in problems[:20]:
        print("trace problem: " + problem)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": provenance,
    }
    record.update(machine_provenance(result))
    print(json.dumps({"provenance": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
