#!/usr/bin/env python3
"""The repository benchmark: builds the runner from source, runs one
workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload raise-par|raise-seq|service-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root, and so do the run artifacts (report.json,
trace.json, result.json). With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics from a
traced run. Human-readable lines before it name every metric with its unit.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as m  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("raise-par", "raise-seq", "service-mix")
RUNNER_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"

def load_units(root):
    """Metric names and units, from BENCHMARK.json at the root."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({x["name"]: x["unit"] for x in bench["end_to_end"]},
            {x["name"]: x["unit"] for x in bench["per_layer"]})


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then builds the runner (a no-op when current)."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs,
                    "--target", "perfbench_runner"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "perfbench_runner")


def tail_entry(values):
    value, pct, beyond, n = m.tail(values)
    return {"value": value, "percentile": pct, "beyond": beyond, "n": n}


def end_to_end(workload, report, spec):
    """The gated metrics, plus the per-op figures printed beside them."""
    out = {
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    detail = {}
    if workload in ("raise-par", "raise-seq"):
        calls = [c[0] for c in report["calls"]]
        n = report["values"]["receivers"]
        out["latency_ms_p50"] = statistics.median(calls)
        detail["latency_ms_tail"] = tail_entry(calls)
        detail["calls"] = len(calls)
        detail["callers"] = report["values"]["callers"]
        detail["receivers_per_s"] = (
            n * len(calls) / report["values"]["loop_seconds"])
        return out, detail
    svc = spec["workloads"]["service-mix"]
    requests = m.requests_of(report)
    fixed = [r for r in requests if r["phase"] == 0]
    probe = [r for r in requests if r["phase"] == 1]
    lat = [m.latency_from_due_ms(r) for r in fixed]
    out["latency_ms_p50"] = statistics.median(lat)
    detail["latency_ms_tail"] = tail_entry(lat)
    detail["svc_max_rps"] = (sum(1 for r in probe if r["ok"]) /
                             report["values"]["probe_seconds"])
    detail.update(per_op(fixed, svc["latency_limits_ms"]))
    probe_slo = m.slo_miss_ratio(probe, svc["latency_limits_ms"])
    detail["probe"] = {"requests": len(probe), "slo_miss_ratio": probe_slo}
    return out, detail


def per_op(requests, limits):
    """p50 and tail per op type, timed from due, and the SLO miss ratio."""
    out = {}
    for op_index, op in enumerate(m.OPS):
        lat = [m.latency_from_due_ms(r) for r in requests
               if r["op"] == op_index]
        if lat:
            out[op + "_ms_p50"] = statistics.median(lat)
            out[op + "_ms_tail"] = tail_entry(lat)
    out["svc_slo_miss_ratio"] = m.slo_miss_ratio(requests, limits)
    return out


def per_layer(workload, report, trace_path, spec, names):
    """Per-layer metrics from a traced run; a layer the workload does not
    use reports 0."""
    layer = {name: 0.0 for name in names}
    v = report["values"]
    tree = m.SpanTree(m.load_trace(trace_path))
    layer["harness.error_ratio"] = m.ratio(report["failed"],
                                           report["attempted"])
    if workload in ("raise-par", "raise-seq"):
        calls = report["calls"]
        traced = [c[0] for c in calls if c[2]]
        untraced = [c[0] for c in calls if not c[2]]
        n_traced = v["traced_calls"]
        subtrees = [tree.subtree(r) for r in tree.roots("bench/call")]

        def med_total(name):
            return m.median_or_zero([m.total_ms(s, name) for s in subtrees])

        def med_self(name):
            return m.median_or_zero([
                sum(tree.self_ms(x) for x in s if x["name"] == name)
                for s in subtrees])

        def skew(spans):
            shards = m.durations(spans, "parallel/shard")
            return (max(shards) / statistics.mean(shards)
                    if shards else 0.0)

        layer["algebraic.rewrite_ms"] = med_total("parallel/rewrite")
        layer["algebraic.apply_self_ms"] = med_self("parallel/apply")
        layer["algebraic.merge_ms"] = med_total("parallel/merge")
        layer["algebraic.shard_skew"] = m.median_or_zero(
            [skew(s) for s in subtrees])
        layer["relational.join_build_ms"] = med_total("evaluator/join-build")
        layer["relational.join_probe_ms"] = med_total("evaluator/join-probe")
        layer["relational.product_ms"] = med_total("evaluator/product")
        layer["relational.join_build_rows"] = m.ratio(
            v["evaluator.join_build_rows"], n_traced)
        layer["relational.join_probes"] = m.ratio(
            v["evaluator.join_probes"], n_traced)
        layer["relational.rows"] = m.ratio(v["evaluator.rows"], n_traced)
        layer["relational.useful_row_ratio"] = m.ratio(
            v["receivers"], layer["relational.rows"])
        layer["objrel.encode_ms"] = m.median_or_zero(
            [r["end"] - r["start"] for r in tree.roots("bench/encode")])
        layer["core.sequential_self_ms"] = med_self("sequential/apply")
        layer["loadgen.late_ms_tail"] = m.tail([c[1] for c in calls])[0]
        layer["harness.unattributed_ms"] = m.median_or_zero(
            [tree.self_ms(r) for r in tree.roots("bench/call")])
        layer["trace.overhead_ratio"] = m.ratio(
            statistics.median(traced), statistics.median(untraced))
        return layer

    svc = spec["workloads"]["service-mix"]
    requests = m.requests_of(report)
    untraced = [r for r in requests if not r["traced"]]
    traced = [r for r in requests if r["traced"]]
    # Only spans of the traced phase count, not set-up or final checks.
    phase = tree.roots("bench/phase")[0]
    spans = [s for s in tree.spans
             if s["start"] >= phase["start"] and s["end"] <= phase["end"]]

    def med(name):
        return m.median_or_zero(m.durations(spans, name))

    layer["text.parse_ms"] = med("bench/parse")
    layer["net.request_ms"] = med("net/request")
    admission = m.durations(spans, "net/admission")
    layer["net.admission_wait_ms"] = (statistics.mean(admission)
                                      if admission else 0.0)
    layer["net.shed_ratio"] = m.ratio(v["net.shed"], v["net.requests"])
    layer["net.retries_per_op"] = m.ratio(v["net.client.retries"],
                                          len(traced))
    layer["sql.update_ms"] = med("sql/set-update")
    layer["store.commit_ms"] = med("store/commit")
    layer["store.fsync_ms"] = med("wal/fsync")
    layer["store.fsyncs_per_commit"] = m.ratio(v["wal.fsyncs"],
                                               v["store.commits"])
    user_bytes = sum(r["body_bytes"] for r in traced if r["op"] != 0)
    layer["store.wal_bytes_per_user_byte"] = m.ratio(v["wal.bytes"],
                                                     user_bytes)
    reads = v["incremental.hits"] + v["incremental.refresh_count"]
    layer["incremental.hit_ratio"] = m.ratio(v["incremental.hits"], reads)
    layer["incremental.refresh_ms"] = m.ratio(
        v["incremental.refresh_ns_sum"] / 1e6, v["incremental.refresh_count"])
    layer["incremental.delta_rows_per_refresh"] = m.ratio(
        v["incremental.delta_rows"], v["incremental.refreshes"])
    layer["incremental.fallbacks"] = v["incremental.fallbacks"]
    ops = per_op(untraced, svc["latency_limits_ms"])
    for op in m.OPS:
        layer["svc.%s_ms_p50" % op] = ops.get(op + "_ms_p50", 0.0)
        layer["svc.%s_ms_tail" % op] = ops.get(op + "_ms_tail",
                                               {"value": 0.0})["value"]
    layer["svc.slo_miss_ratio"] = ops["svc_slo_miss_ratio"]
    layer["loadgen.late_ms_tail"] = m.tail(
        [m.lateness_ms(r) for r in untraced])[0]
    layer["harness.unattributed_ms"] = m.median_or_zero(
        [tree.self_ms(r) for r in tree.roots("bench/request")
         if r["start"] >= phase["start"]])
    layer["trace.overhead_ratio"] = m.ratio(
        statistics.median([m.latency_from_due_ms(r) for r in traced]),
        statistics.median([m.latency_from_due_ms(r) for r in untraced]))
    return layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: no setrec sources under", root,
            "(run from the repository root)")
        return 2
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    end_to_end_units, per_layer_units = load_units(root)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        runner = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed:", e)
        return 2

    out_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.workload == "service-mix":
        cmd += ["--rate", str(spec["workloads"]["service-mix"]["offered_rps"])]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return 1
    report_path = os.path.join(out_dir, "report.json")
    if proc.returncode != 0 or not os.path.exists(report_path):
        log("perfbench: runner exited with", proc.returncode)
        return 1
    with open(report_path) as f:
        report = json.load(f)

    for check in report["checks"]:
        print("check ok:   " + check)
    for failure, count in collections.Counter(report["failures"]).items():
        print("check FAIL: %s (x%d)" % (failure, count))
    for error in report["errors"]:
        print("error:      " + error)
    correct = not report["failures"]

    host = {"nproc": os.cpu_count(), "build_type": BUILD_TYPE}
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host,
              "attempted": report["attempted"], "failed": report["failed"]}
    if args.trace:
        units = per_layer_units
        values = per_layer(args.workload, report,
                           os.path.join(out_dir, "trace.json"), spec, units)
        result["per_layer"] = values
    else:
        values, detail = end_to_end(args.workload, report, spec)
        units = end_to_end_units
        result["end_to_end"] = values
        result["detail"] = detail
        t = detail["latency_ms_tail"]
        print("latency_ms_tail %.6g ms (p%g of %d samples, %d beyond; "
              "not gated)" % (t["value"], t["percentile"], t["n"],
                              t["beyond"]))
        print("error_ratio %.6g ratio (failed %d of %d)" % (
            m.ratio(report["failed"], report["attempted"]),
            report["failed"], report["attempted"]))
        if "receivers_per_s" in detail:
            print("apply_ms_p50 %.6g ms (reported as latency_ms_p50)"
                  % values["latency_ms_p50"])
            print("receivers_per_s %.6g 1/s (%d callers, %d calls)" % (
                detail["receivers_per_s"], detail["callers"],
                detail["calls"]))
        if "svc_max_rps" in detail:
            print("svc_max_rps %.6g 1/s (closed-loop saturation probe, "
                  "%d requests)" % (detail["svc_max_rps"],
                                    detail["probe"]["requests"]))
        for op in m.OPS:
            if op + "_ms_p50" in detail:
                tail_op = detail[op + "_ms_tail"]
                print("%s_ms_p50 %.6g ms; %s_ms_tail %.6g ms (p%g of %d)" % (
                    op, detail[op + "_ms_p50"], op, tail_op["value"],
                    tail_op["percentile"], tail_op["n"]))
        if "svc_slo_miss_ratio" in detail:
            print("svc_slo_miss_ratio %.6g ratio (limits %s ms; %.6g in the "
                  "saturation probe's %d requests)" % (
                      detail["svc_slo_miss_ratio"],
                      spec["workloads"]["service-mix"]["latency_limits_ms"],
                      detail["probe"]["slo_miss_ratio"],
                      detail["probe"]["requests"]))
    if set(values) != set(units):
        log("perfbench: computed metrics differ from BENCHMARK.json:",
            sorted(set(values) ^ set(units)))
        return 1
    for name, value in values.items():
        print("%s %.6g %s" % (name, value, units[name]))
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
