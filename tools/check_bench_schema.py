#!/usr/bin/env python3
"""Schema gate for benchmark artifacts.

Every BENCH_<name>.json the bench harness emits must be one valid JSON
object carrying, besides google-benchmark's own "context"/"benchmarks"
members, the observability blocks the shared bench main injects:

  "stages"  — per-span-name {"count": N, "total_ns": M} aggregates
  "metrics" — engine counter name -> value

A sibling TRACE_<name>.json (written by --trace-out) is validated as
chrome://tracing JSON when present: a "traceEvents" list of complete
("ph" == "X") events with explicit parent ids in args.

Usage: check_bench_schema.py BENCH_foo.json [BENCH_bar.json ...]
"""

import json
import os
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return 1


def check_bench(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"not readable as JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level is not a JSON object")
    errors = 0
    if not isinstance(doc.get("benchmarks"), list) or not doc["benchmarks"]:
        errors += fail(path, 'missing or empty "benchmarks" list')
    for key in ("stages", "metrics"):
        if not isinstance(doc.get(key), dict):
            errors += fail(path, f'missing "{key}" object')
    for name, stats in (doc.get("stages") or {}).items():
        if (not isinstance(stats, dict) or "count" not in stats
                or "total_ns" not in stats):
            errors += fail(path, f'stage "{name}" lacks count/total_ns')
    if "service" in os.path.basename(path):
        errors += check_service(path, doc)
    if "incremental" in os.path.basename(path):
        errors += check_incremental(path, doc)
    if "vectorized" in os.path.basename(path):
        errors += check_vectorized(path, doc)
    return errors


def check_service(path, doc):
    """The service bench must report tail latency and backpressure: every
    benchmark row carries client-side p50/p99/p999 plus shed/retry
    counters, the *server-side* per-tenant tails (tenant_p50_us/p99/p999,
    from the tenant's labeled latency histograms) and the follower
    replication lag observed after the run, and the net.* instruments the
    server emits must appear in "metrics"."""
    errors = 0
    required = ("p50_us", "p99_us", "p999_us", "shed", "retries", "failures",
                "tenant_p50_us", "tenant_p99_us", "tenant_p999_us",
                "replication_lag")
    for row in doc.get("benchmarks") or []:
        name = row.get("name", "?")
        for key in required:
            if not isinstance(row.get(key), (int, float)):
                errors += fail(path, f'benchmark "{name}" lacks counter '
                               f'"{key}"')
    metrics = doc.get("metrics") or {}
    for counter in ("net.requests", "net.frames_sent"):
        if counter not in metrics:
            errors += fail(path, f'missing "{counter}" in "metrics"')
    return errors


def check_incremental(path, doc):
    """The incremental bench must carry both sides of the comparison the
    sublinearity claim rests on (from-scratch vs ViewCache rows at the same
    sizes), and the cached rows must prove the cache actually ran: every
    BM_IncrementalViewUpdate row needs refreshes/fallbacks counters."""
    errors = 0
    rows = doc.get("benchmarks") or []
    families = {"BM_FromScratchViewUpdate": 0, "BM_IncrementalViewUpdate": 0,
                "BM_DeltaAbsorption": 0}
    for row in rows:
        name = row.get("name", "?")
        family = name.split("/", 1)[0]
        if family in families:
            families[family] += 1
        if family == "BM_IncrementalViewUpdate":
            for key in ("refreshes", "fallbacks"):
                if not isinstance(row.get(key), (int, float)):
                    errors += fail(path, f'benchmark "{name}" lacks counter '
                                   f'"{key}"')
    for family, count in families.items():
        if count == 0:
            errors += fail(path, f'no "{family}" rows')
    return errors


def check_vectorized(path, doc):
    """The vectorized bench must carry both backends (interpreter /
    vectorized) for every family at every size, and must prove the backend
    acceptance property: on the eval-heavy
    families (SelJoin, ProjectJoin) the vectorized backend's cpu_time beats
    the interpreter's at the two largest sizes. WideJoin is exempt — its
    cost is output tuple materialization, which no backend choice moves."""
    errors = 0
    times = {}  # (family, mode, size) -> cpu_time
    for row in doc.get("benchmarks") or []:
        name = row.get("name", "?")
        if "/" not in name or not name.startswith("BM_"):
            continue
        head, size = name.split("/", 1)
        for mode in ("Interpreter", "Vectorized"):
            if head.endswith(mode):
                family = head[len("BM_"):-len(mode)]
                try:
                    times[(family, mode, int(size))] = row["cpu_time"]
                except (KeyError, ValueError):
                    errors += fail(path, f'row "{name}" lacks cpu_time')
    families = sorted({f for f, _, _ in times})
    for expected in ("SelJoin", "ProjectJoin", "WideJoin"):
        if expected not in families:
            errors += fail(path, f'no "{expected}" rows')
    for family in families:
        sizes = {s for f, m, s in times if f == family}
        for mode in ("Interpreter", "Vectorized"):
            missing = sizes - {s for f, m, s in times
                               if f == family and m == mode}
            if missing:
                errors += fail(path, f"{family}: {mode} missing sizes "
                               f"{sorted(missing)}")
    for family in ("SelJoin", "ProjectJoin"):
        sizes = sorted({s for f, _, s in times if f == family})[-2:]
        for size in sizes:
            interp = times.get((family, "Interpreter", size))
            vec = times.get((family, "Vectorized", size))
            if interp is None or vec is None:
                continue  # already reported as missing above
            if vec >= interp:
                errors += fail(path, f"{family}/{size}: vectorized cpu_time "
                               f"{vec:.0f} does not beat interpreter "
                               f"{interp:.0f}")
    return errors


def check_trace(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"not readable as JSON: {e}")
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        return fail(path, 'no "traceEvents" list')
    errors = 0
    for e in events:
        if e.get("ph") != "X" or "dur" not in e or "ts" not in e:
            errors += fail(path, f"malformed complete event: {e}")
            break
        if "parent" not in e.get("args", {}):
            errors += fail(path, f"event lacks args.parent: {e}")
            break
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = 0
    for path in argv[1:]:
        errors += check_bench(path)
        trace = os.path.join(
            os.path.dirname(path),
            os.path.basename(path).replace("BENCH_", "TRACE_", 1))
        if trace != path and os.path.exists(trace):
            errors += check_trace(trace)
    if errors:
        return 1
    print(f"checked {len(argv) - 1} artifact(s): schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
