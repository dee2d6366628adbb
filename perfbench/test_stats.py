"""Tests for the benchmark's own math.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "op": 1, "attrs": attrs or {}}


class TailTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        # 100 samples: p90 is the 90th smallest and leaves exactly 10 beyond;
        # p95 would leave only 5.
        pct, value, beyond = stats.tail(list(range(1, 101)))
        self.assertEqual((pct, value, beyond), (90.0, 90, 10))

    def test_one_sample_short_drops_a_rung(self):
        # 99 samples: p90 is rank ceil(89.1) = 90, leaving 9 beyond.
        pct, value, beyond = stats.tail(list(range(1, 100)))
        self.assertEqual((pct, value, beyond), (75.0, 75, 24))

    def test_large_sample_reaches_high_percentiles(self):
        pct, value, beyond = stats.tail(list(range(1, 10001)))
        self.assertEqual((pct, value, beyond), (99.9, 9990, 10))

    def test_order_of_input_does_not_matter(self):
        values = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail(list(range(19))))
        self.assertEqual(stats.tail(list(range(1, 21)))[0], 50.0)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 10.2, 11.8]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_known_values(self):
        # Exclusive quartiles of 1..9 are 2.5 and 7.5; the median is 5.
        self.assertAlmostEqual(stats.spread(list(range(1, 10))), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([4.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span("a", 0, 100)]), [100])

    def test_children_are_subtracted(self):
        spans = [span("root", 0, 100), span("a", 10, 30, 0), span("b", 40, 70, 0)]
        self.assertEqual(stats.self_times(spans), [50, 20, 30])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0, 100), span("a", 10, 50, 0), span("b", 30, 60, 0)]
        self.assertEqual(stats.self_times(spans)[0], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("root", 10, 100), span("a", 0, 20, 0), span("b", 90, 130, 0)]
        self.assertEqual(stats.self_times(spans)[0], 70)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("root", 0, 100), span("a", 0, 60, 0), span("b", 10, 20, 1)]
        self.assertEqual(stats.self_times(spans), [40, 50, 10])


class UpdateSplitTest(unittest.TestCase):
    def test_stages_and_unaccounted_add_up_to_wall_time(self):
        ms = 1000000
        spans = [
            span("core.apply_update.insert", 0, 100 * ms, -1,
                 {"grounding_work": 2, "acceptance": 0.5, "affected_vars": 40,
                  "samples_remaining": 10, "snapshot_generation": 1}),
            span("grounding", 0, 10 * ms, 0),
            span("inference.learn", 10 * ms, 10 * ms, 0),
            span("incremental.infer.sampling", 10 * ms, 70 * ms, 0),
            span("core.apply_update.insert", 200 * ms, 300 * ms, -1,
                 {"grounding_work": 2, "acceptance": -1, "affected_vars": 60,
                  "samples_remaining": 0, "snapshot_generation": 2}),
            span("grounding", 200 * ms, 220 * ms, 4),
            span("inference.learn", 220 * ms, 220 * ms, 4),
            span("incremental.infer.variational", 220 * ms, 260 * ms, 4),
        ]
        m = stats._update_metrics(spans, stats.self_times(spans), [[0], [4]])
        self.assertAlmostEqual(m["grounding.ms"], 15.0)
        self.assertAlmostEqual(m["incremental.infer_ms.sampling"], 30.0)
        self.assertAlmostEqual(m["incremental.infer_ms.variational"], 20.0)
        self.assertAlmostEqual(m["core.unaccounted_ms"], 35.0)
        total = (m["grounding.ms"] + m["inference.learn_ms"]
                 + m["incremental.infer_ms.sampling"]
                 + m["incremental.infer_ms.variational"]
                 + m["incremental.infer_ms.rerun"] + m["core.unaccounted_ms"])
        self.assertAlmostEqual(total, 100.0)
        self.assertAlmostEqual(m["core.unaccounted_share"], 0.35)
        self.assertEqual(m["grounding.work"], 2)
        self.assertEqual(m["incremental.strategy.sampling"], 1)
        self.assertEqual(m["incremental.strategy.variational"], 1)
        self.assertAlmostEqual(m["incremental.mh_acceptance"], 0.5)
        self.assertEqual(m["incremental.remat_count"], 1)
        self.assertEqual(m["incremental.samples_remaining"], 0)


class SummaryTest(unittest.TestCase):
    def raw(self, **overrides):
        raw = {
            "workload": "insert_stream", "attempted": 4, "failed": 0,
            "checks": [{"name": "view.fingerprint", "ok": True, "detail": ""}],
            "samples": {"setup_s": [2.0, 1.0, 3.0], "update_ms": [5.0, 7.0, 6.0],
                        "read_us": [1.0, 1.5, 2.0]},
            "values": {"f1": 0.8, "peak_rss_mb": 100.0},
            "spans": [],
        }
        raw.update(overrides)
        return raw

    def test_end_to_end_metrics_are_medians_with_units(self):
        result = stats.summarize(self.raw(), trace=0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(result["metrics"]["update_ms"]["value"], 6.0)
        self.assertEqual(set(result["metrics"]), {n for n, _ in stats.END_TO_END})

    def test_failed_check_makes_the_run_incorrect(self):
        checks = [{"name": "x", "ok": False, "detail": "boom"}]
        self.assertFalse(stats.summarize(self.raw(checks=checks), trace=0)["correct"])

    def test_traced_run_reports_every_per_layer_metric(self):
        result = stats.summarize(self.raw(), trace=1)
        self.assertEqual(set(result["metrics"]), {n for n, _ in stats.PER_LAYER})


if __name__ == "__main__":
    unittest.main()
