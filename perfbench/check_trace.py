#!/usr/bin/env python3
"""Check a traced perfbench run and derive its per-layer metrics.

Usage: python3 perfbench/check_trace.py OUT_DIR

OUT_DIR holds the result.json and spans.jsonl that `uhm_perfbench
--trace 1` wrote. The checker verifies that

  - every span's parent exists and belongs to the same operation,
  - every child lies inside its parent,
  - every self time (duration minus the time its children cover) is
    >= 0,
  - per operation, the self times of its span tree plus
    serve.residual_us add up to the operation's measured duration
    (the client round trip, or the untraced Machine::run call), and
  - every layer the workload passes through wrote spans.

It prints the problems it finds and exits 1 when there are any.
run.py imports analyze() to fill the per-layer metrics.
"""

import json
import os
import statistics
import sys

# Span names each workload must produce (README.md lists the layers).
REQUIRED_SPANS = {
    "serve-hot": {
        "op", "serve.parse", "serve.acquire", "serve.build",
        "uhm.begin_run", "uhm.run_slice", "uhm.finish_run",
        "obs.profile_jsonl", "serve.release", "serve.header", "build",
        "hlr.parse", "hlr.compile", "dir.encode", "uhm.construct",
    },
    "serve-churn": {
        "op", "serve.parse", "serve.build", "uhm.begin_run",
        "uhm.run_slice", "uhm.finish_run", "serve.release",
        "serve.header", "build", "hlr.parse", "hlr.compile",
        "workload.generate", "dir.encode", "uhm.construct",
    },
    "sim-batch": {
        "op", "uhm.begin_run", "uhm.run_slice", "uhm.finish_run",
        "setup", "hlr.parse", "hlr.compile", "dir.encode",
        "uhm.construct",
    },
}

# Per-layer time metrics: mean self time of the spans of one name.
SPAN_TIME_METRICS = {
    "serve.parse_us": "serve.parse",
    "serve.acquire_us": "serve.acquire",
    "serve.build_us": "serve.build",
    "serve.header_us": "serve.header",
    "obs.profile_jsonl_us": "obs.profile_jsonl",
    "hlr.parse_us": "hlr.parse",
    "hlr.compile_us": "hlr.compile",
    "workload.generate_us": "workload.generate",
    "dir.encode_us": "dir.encode",
    "uhm.construct_us": "uhm.construct",
    "uhm.begin_run_us": "uhm.begin_run",
    "uhm.run_slice_us": "uhm.run_slice",
    "uhm.finish_run_us": "uhm.finish_run",
}

CYCLE_BUCKETS = ("fetch", "decode", "stage", "dispatch", "semantic",
                 "translate", "translate2")


def load(out_dir):
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)
    spans = []
    with open(os.path.join(out_dir, "spans.jsonl")) as f:
        for line in f:
            spans.append(json.loads(line))
    return result, spans


def self_times(spans, problems):
    """Self time of every span, in ns; structural problems appended."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append("span %d (%s) ends before it starts"
                            % (s["id"], s["name"]))
        if s["parent"] < 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append("span %d (%s): parent %d does not exist"
                            % (s["id"], s["name"], s["parent"]))
            continue
        if parent["op"] != s["op"]:
            problems.append("span %d (%s): parent belongs to op %d, not %d"
                            % (s["id"], s["name"], parent["op"], s["op"]))
        if s["start_ns"] < parent["start_ns"] or \
                s["end_ns"] > parent["end_ns"]:
            problems.append("span %d (%s) lies outside its parent %d (%s)"
                            % (s["id"], s["name"], parent["id"],
                               parent["name"]))
        children.setdefault(s["parent"], []).append(s)
    selfs = {}
    for s in spans:
        # Subtract the union of the children's intervals.
        covered = 0
        reach = s["start_ns"]
        for c in sorted(children.get(s["id"], ()),
                        key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], reach)
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        selfs[s["id"]] = s["end_ns"] - s["start_ns"] - covered
        if selfs[s["id"]] < 0:
            problems.append("span %d (%s) has negative self time"
                            % (s["id"], s["name"]))
    return selfs, children


def subtree_self_ns(span_id, selfs, children):
    total = selfs[span_id]
    stack = list(children.get(span_id, ()))
    while stack:
        s = stack.pop()
        total += selfs[s["id"]]
        stack.extend(children.get(s["id"], ()))
    return total


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"n": len(values), "median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def ratio(num, den):
    return num / den if den else 0.0


def analyze(out_dir):
    """Return (metrics, provenance, problems) for one traced run.

    metrics maps each per-layer metric name to (value, unit). A layer
    the workload never enters reads 0 (README.md, "Per-layer metrics").
    """
    result, spans = load(out_dir)
    problems = []
    selfs, children = self_times(spans, problems)

    names = {s["name"] for s in spans}
    missing = REQUIRED_SPANS[result["workload"]] - names
    if missing:
        problems.append("no spans for: " + ", ".join(sorted(missing)))

    # Per op: self times + residual = measured duration.
    measured = dict(zip(result["ops"]["op"], result["ops"]["latency_us"]))
    residuals = []
    for s in spans:
        if s["name"] != "op" or s["op"] not in measured:
            continue
        measured_ns = measured[s["op"]] * 1e3
        residual_ns = measured_ns - (s["end_ns"] - s["start_ns"])
        total = subtree_self_ns(s["id"], selfs, children) + residual_ns
        if abs(total - measured_ns) > 1.0:
            problems.append("op %d: self times + residual = %.0f ns, "
                            "measured %.0f ns"
                            % (s["op"], total, measured_ns))
        residuals.append(residual_ns / 1e3)
    if not residuals:
        problems.append("no traced op has a measured duration")

    metrics = {}
    provenance = {}
    for metric, name in SPAN_TIME_METRICS.items():
        samples = [selfs[s["id"]] / 1e3 for s in spans if s["name"] == name]
        metrics[metric] = (statistics.fmean(samples) if samples else 0.0,
                           "us")
        provenance[metric] = quartiles(samples)
    metrics["serve.residual_us"] = (
        statistics.fmean(residuals) if residuals else 0.0, "us")
    provenance["serve.residual_us"] = quartiles(residuals)
    waits = result["ops"]["wait_us"] if result["workload"] != "sim-batch" \
        else []
    metrics["serve.wait_us"] = (statistics.fmean(waits) if waits else 0.0,
                                "us")
    provenance["serve.wait_us"] = quartiles([float(w) for w in waits])

    serve = result["serve_counts"]
    hits = serve.get("serve.cache.hits", 0)
    metrics["serve.cache_hit_ratio"] = (
        ratio(hits, hits + serve.get("serve.cache.misses", 0)), "ratio")
    metrics["serve.cache_evictions"] = (
        serve.get("serve.cache.evictions", 0), "count")
    metrics["serve.busy_bypass"] = (
        serve.get("serve.cache.busy_bypass", 0), "count")

    totals = result["totals"]
    counters = totals["counters"]
    dir_instrs = totals["dir_instrs"]
    slice_ns = sum(selfs[s["id"]] for s in spans
                   if s["name"] == "uhm.run_slice")
    metrics["uhm.slices_per_run"] = (
        ratio(totals["slices"], totals["runs"]), "count")
    metrics["uhm.ns_per_dir_instr"] = (ratio(slice_ns, dir_instrs), "ns")
    metrics["uhm.micro_ops_per_dir_instr"] = (
        ratio(counters.get("machine.micro_ops", 0), dir_instrs), "ratio")
    metrics["dir.decoded_instrs"] = (
        counters.get("machine.decoded_instrs", 0), "count")
    for bucket in CYCLE_BUCKETS:
        metrics["cycles." + bucket] = (
            ratio(totals["breakdown"][bucket], totals["cycles"]), "share")
    dtb_hits = counters.get("dtb.hits", 0)
    dtb_misses = counters.get("dtb.misses", 0)
    metrics["dtb.hit_ratio"] = (ratio(dtb_hits, dtb_hits + dtb_misses),
                                "ratio")
    metrics["dtb.misses"] = (dtb_misses, "count")
    metrics["dtb.evictions"] = (counters.get("dtb.evictions", 0), "count")
    metrics["translate.translated_instrs"] = (
        counters.get("machine.translated_instrs", 0), "count")
    metrics["tier.coverage"] = (
        ratio(counters.get("tier.trace_dir_instrs", 0),
              totals["tiered_dir_instrs"]), "ratio")
    trace_hits = counters.get("tier.cache.hits", 0)
    metrics["tier.trace_hit_ratio"] = (
        ratio(trace_hits, trace_hits + counters.get("tier.cache.misses", 0)),
        "ratio")
    ic_hits = counters.get("icache.hits", 0)
    metrics["icache.hit_ratio"] = (
        ratio(ic_hits, ic_hits + counters.get("icache.misses", 0)), "ratio")

    # The same in-process passes with spans off and on (ABBA order).
    phases = result["phases"]
    untraced = phases["untraced"]
    metrics["trace.overhead_pct"] = (
        (ratio(phases["traced"]["elapsed_s"], untraced["elapsed_s"]) - 1.0)
        * 100.0, "%")
    return metrics, provenance, problems


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    metrics, _, problems = analyze(argv[1])
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%-32s %14.4f %s" % (name, value, unit))
    for p in problems[:20]:
        print("problem: " + p, file=sys.stderr)
    if problems:
        print("trace check FAILED: %d problems" % len(problems),
              file=sys.stderr)
        return 1
    print("trace check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
