"""Pure helpers that turn a runner run's raw measurements into metrics.

No I/O besides load_trace(); test_metrics.py covers the rules here:
the tail-percentile rule, self time under overlapping children, and
open-loop lateness accounting.
"""

import json
import math
import statistics


def percentile(values, pct):
    """Nearest-rank percentile (pct in (0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values, min_beyond=10):
    """The highest percentile, in 0.1 steps, with at least `min_beyond`
    samples beyond it.

    Returns (value, percentile, samples_beyond, n). When no percentile from
    the median up has that support (n < 2 * min_beyond) it returns the
    maximum with percentile 100 and 0 samples beyond, so the caller can see
    the tail is unsupported.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    if n < 2 * min_beyond:
        return ordered[-1], 100.0, 0, n
    # Largest p (in tenths) whose nearest rank leaves >= min_beyond above.
    tenths = math.floor(1000.0 * (n - min_beyond) / n)
    while tenths > 0:
        rank = max(1, math.ceil(tenths / 1000.0 * n))
        if n - rank >= min_beyond:
            return ordered[rank - 1], tenths / 10.0, n - rank, n
        tenths -= 1
    raise AssertionError("n >= 2 * min_beyond supports the median")


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(span, children):
    """A span's duration minus the part of its interval its children cover.

    Children may overlap each other (parallel shards on pool threads), so
    the covered part is the union of their intervals clipped to the span,
    never the sum of their durations.
    """
    start, end = span["start"], span["end"]
    clipped = [(max(c["start"], start), min(c["end"], end)) for c in children]
    return (end - start) - union_length(clipped)


def load_trace(path):
    """Spans of a chrome trace written by the runner, times in ms."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        start = float(e["ts"]) / 1000.0
        spans.append({
            "name": e["name"],
            "id": e["args"]["id"],
            "parent": e["args"]["parent"],
            "start": start,
            "end": start + float(e["dur"]) / 1000.0,
        })
    return spans


class SpanTree:
    """Parent/child index over spans with per-span self time."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    def self_ms(self, span):
        return self_time(span, self.children.get(span["id"], []))

    def subtree(self, root):
        out, stack = [], [root]
        while stack:
            s = stack.pop()
            out.append(s)
            stack.extend(self.children.get(s["id"], []))
        return out

    def roots(self, name):
        return [s for s in self.spans if s["name"] == name]


def total_ms(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def median_or_zero(values):
    """Median, or 0 when the layer did no work in this workload."""
    return statistics.median(values) if values else 0.0


def ratio(numerator, denominator):
    """numerator / denominator, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def lateness_ms(request):
    """How late the generator sent a request: sent - due, never negative."""
    return max(0.0, (request["sent_ns"] - request["due_ns"]) / 1e6)


def latency_from_due_ms(request):
    """Latency as the user sees it: done - due, so a generator stall that
    delays later sends is charged to those requests."""
    return (request["done_ns"] - request["due_ns"]) / 1e6


REQUEST_FIELDS = ("op", "tenant", "due_ns", "sent_ns", "done_ns", "ok",
                  "phase", "traced", "body_bytes")
OPS = ("query", "delta", "update")


def requests_of(report):
    """The runner's compact request rows as dicts with named fields."""
    return [dict(zip(REQUEST_FIELDS, row)) for row in report["requests"]]


def slo_miss_ratio(requests, limits_ms):
    """Share of requests that failed or exceeded their op's latency limit."""
    missed = sum(1 for r in requests
                 if not r["ok"]
                 or latency_from_due_ms(r) > limits_ms[OPS[r["op"]]])
    return ratio(missed, len(requests))
