"""Tests for the benchmark's metric helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


class TailRuleTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        value, pct, beyond, n = metrics.tail(values)
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(beyond, 10)
        self.assertEqual(n, 1000)

    def test_small_samples_fall_to_lower_percentiles(self):
        value, pct, beyond, n = metrics.tail(list(range(25)))
        self.assertEqual(pct, 60.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(value, 14)

    def test_ten_thousand_samples_support_p999(self):
        _, pct, beyond, _ = metrics.tail(list(range(10000)))
        self.assertEqual(pct, 99.9)
        self.assertEqual(beyond, 10)

    def test_unsupported_tail_is_reported_as_such(self):
        value, pct, beyond, n = metrics.tail([5, 1, 3])
        self.assertEqual((value, pct, beyond, n), (5, 100.0, 0, 3))
        # 19 samples support no percentile from the median up.
        value, pct, beyond, n = metrics.tail(list(range(19)))
        self.assertEqual((value, pct, beyond, n), (18, 100.0, 0, 19))

    def test_twenty_samples_support_the_median(self):
        value, pct, beyond, _ = metrics.tail(list(range(20)))
        self.assertEqual((value, pct, beyond), (9, 50.0, 10))

    def test_order_does_not_matter(self):
        values = [7, 3, 9, 1] * 10
        self.assertEqual(metrics.tail(values), metrics.tail(sorted(values)))

    def test_percentile_nearest_rank(self):
        self.assertEqual(metrics.percentile([3, 1, 2, 4], 50), 2)
        self.assertEqual(metrics.percentile([3, 1, 2, 4], 100), 4)


class SelfTimeTest(unittest.TestCase):
    def span(self, sid, parent, start, end):
        return {"name": "s", "id": sid, "parent": parent,
                "start": start, "end": end}

    def test_no_children(self):
        self.assertEqual(metrics.self_time(self.span(1, 0, 0, 10), []), 10)

    def test_overlapping_children_count_once(self):
        root = self.span(1, 0, 0, 10)
        shards = [self.span(2, 1, 1, 6), self.span(3, 1, 2, 7),
                  self.span(4, 1, 3, 5)]
        # Union of [1,7) is 6; the sum of durations (12) would exceed 10.
        self.assertEqual(metrics.self_time(root, shards), 4)

    def test_children_are_clipped_to_the_parent(self):
        root = self.span(1, 0, 0, 10)
        late = [self.span(2, 1, 8, 15)]
        self.assertEqual(metrics.self_time(root, late), 8)

    def test_disjoint_children(self):
        root = self.span(1, 0, 0, 10)
        kids = [self.span(2, 1, 0, 2), self.span(3, 1, 5, 6)]
        self.assertEqual(metrics.self_time(root, kids), 7)

    def test_span_tree_self_uses_direct_children(self):
        spans = [self.span(1, 0, 0, 10), self.span(2, 1, 2, 8),
                 self.span(3, 2, 3, 4)]
        tree = metrics.SpanTree(spans)
        self.assertEqual(tree.self_ms(spans[0]), 4)
        self.assertEqual(tree.self_ms(spans[1]), 5)
        self.assertEqual(len(tree.subtree(spans[0])), 3)


class LatenessTest(unittest.TestCase):
    def request(self, due, sent, done, op=0, ok=1):
        return {"due_ns": due, "sent_ns": sent, "done_ns": done,
                "op": op, "ok": ok}

    def test_latency_counts_from_due_time(self):
        # Due at 1 ms, sent 3 ms late, done 1 ms after sending.
        r = self.request(1_000_000, 4_000_000, 5_000_000)
        self.assertEqual(metrics.lateness_ms(r), 3.0)
        self.assertEqual(metrics.latency_from_due_ms(r), 4.0)

    def test_early_send_is_not_negative_lateness(self):
        r = self.request(2_000_000, 1_999_000, 3_000_000)
        self.assertEqual(metrics.lateness_ms(r), 0.0)

    def test_slo_miss_counts_failures_and_slow_requests(self):
        limits = {"query": 5, "delta": 10, "update": 20}
        requests = [
            self.request(0, 0, 1_000_000),                # fast query
            self.request(0, 0, 6_000_000),                # slow query
            self.request(0, 0, 6_000_000, op=1),          # delta within limit
            self.request(0, 0, 1_000_000, op=2, ok=0),    # failed update
        ]
        self.assertEqual(metrics.slo_miss_ratio(requests, limits), 0.5)


if __name__ == "__main__":
    unittest.main()
