"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pbmetrics  # noqa: E402
import run  # noqa: E402
from pbmetrics import Span  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_short_sample_set_emits_no_p99(self):
        # 40 samples: the nearest-rank p97 is the 39th, so only one sample
        # lies beyond it and it would read as the maximum, the same
        # value as a neighbouring percentile. Neither p97 nor p99 is emitted.
        samples = [1.0] * 39 + [5.0]
        self.assertIsNone(pbmetrics.percentile(samples, 99))
        self.assertIsNone(pbmetrics.percentile(samples, 97))
        self.assertEqual(pbmetrics.percentile(samples, 50), 1.0)

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(pbmetrics.percentile(list(range(999)), 99))
        self.assertEqual(pbmetrics.percentile(list(range(1000)), 99), 989)

    def test_p50_needs_twenty_samples(self):
        self.assertIsNone(pbmetrics.percentile(list(range(19)), 50))
        self.assertEqual(pbmetrics.percentile(list(range(20)), 50), 9)

    def test_nearest_rank_is_exact_for_integer_percent(self):
        self.assertEqual(pbmetrics.nearest_rank(1000, 99), 990)
        self.assertEqual(pbmetrics.nearest_rank(1001, 99), 991)
        self.assertEqual(pbmetrics.nearest_rank(1, 50), 1)

    def test_unsorted_input(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(pbmetrics.percentile(samples, 50), 50)

    def test_empty(self):
        self.assertIsNone(pbmetrics.percentile([], 50))

    def test_windowed_p99_isolates_a_burst(self):
        # Three windows of 1000; a burst of slow samples in one window
        # moves that window's p99, and the fastest window ignores it.
        calm = [1.0] * 980 + [2.0] * 20
        burst = [1.0] * 900 + [9.0] * 100
        values = pbmetrics.window_percentiles(calm + burst + calm, 99, 1000)
        self.assertEqual(values, [2.0, 9.0, 2.0])
        self.assertEqual(pbmetrics.fastest(values), 2.0)
        self.assertEqual(pbmetrics.percentile(calm + burst + calm, 99), 9.0)

    def test_windows_must_be_full(self):
        self.assertEqual(pbmetrics.window_percentiles([1.0] * 999, 99, 1000), [])
        # 1999 samples make one window, not a full one and a short one.
        self.assertEqual(pbmetrics.window_percentiles([1.0] * 1999, 99, 1000), [1.0])


class SelfTime(unittest.TestCase):
    def test_overlapping_parallel_children(self):
        # A refill span [0, 100] whose two frame renders ran in parallel
        # on two threads, [10, 60] and [40, 90]: together they cover
        # [10, 90], so the refill's self time is 20, not 100 - 50 - 50.
        spans = [
            Span(1, 0, 7, "pipeline.next", 0, 100, 1),
            Span(2, 1, 7, "camera.render", 10, 60, 0),
            Span(3, 1, 7, "camera.render", 40, 90, 0),
        ]
        selves = pbmetrics.self_times(spans)
        self.assertEqual(selves[1], 20)
        self.assertEqual(selves[2], 50)
        self.assertEqual(selves[3], 50)

    def test_children_clipped_to_parent(self):
        spans = [Span(1, 0, -1, "trial", 0, 50, 0), Span(2, 1, -1, "x", 40, 70, 0)]
        self.assertEqual(pbmetrics.self_times(spans)[1], 40)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            Span(1, 0, -1, "trial", 0, 100, 0),
            Span(2, 1, -1, "pipeline.next", 0, 30, 1),
            Span(3, 2, -1, "camera.render", 5, 25, 0),
        ]
        selves = pbmetrics.self_times(spans)
        self.assertEqual(selves[1], 70)
        self.assertEqual(selves[2], 10)
        self.assertEqual(selves[3], 20)

    def test_read_spans_round_trip(self):
        with tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False) as handle:
            handle.write("1\t0\t-1\ttrial\t10\t20\t0\n2\t1\t-1\trx.drain\t12\t15\t3\n")
            path = handle.name
        try:
            spans = pbmetrics.read_spans(path)
        finally:
            os.unlink(path)
        self.assertEqual(spans[1], Span(2, 1, -1, "rx.drain", 12, 15, 3))
        self.assertEqual(spans[0].duration, 10)


class Names(unittest.TestCase):
    def test_valid(self):
        for name in ("realtime_x", "rx.drain_ms_p99", "svc.bytes_per_job", "grid_svc",
                     "0-x", "a" * 64):
            self.assertTrue(pbmetrics.valid_name(name), name)

    def test_invalid(self):
        for name in ("", "rx drain", "rx/drain", "_lead", ".lead", "p99%", "a" * 65,
                     "café", None):
            self.assertFalse(pbmetrics.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB", "x", "bps"):
            self.assertTrue(pbmetrics.valid_unit(unit), unit)
        for unit in ("", "m s", "a" * 17):
            self.assertFalse(pbmetrics.valid_unit(unit), unit)


class FingerprintCache(unittest.TestCase):
    def setUp(self):
        directory = tempfile.TemporaryDirectory()
        self.addCleanup(directory.cleanup)
        self.path = os.path.join(directory.name, "fingerprints.json")

    def check(self, digest, workload, fingerprint, store=True):
        return run.check_fingerprint(self.path, digest, workload, 5, fingerprint, store)

    def test_one_fingerprint_per_workload_and_seed(self):
        self.assertIsNone(self.check("src1", "grid_svc", "aa"))
        self.assertEqual(self.check("src1", "grid_svc", "bb"), "aa")
        self.assertIsNone(self.check("src1", "rx_replay", "cc"))

    def test_other_sources_start_afresh(self):
        self.check("src1", "grid_svc", "aa")
        self.assertIsNone(self.check("src2", "grid_svc", "bb"))
        self.assertEqual(self.check("src2", "grid_svc", "bb"), "bb")
        self.assertIsNone(self.check("src1", "grid_svc", "aa"))

    def test_a_run_with_errors_is_not_stored(self):
        self.assertIsNone(self.check("src1", "grid_svc", "bad", store=False))
        self.assertIsNone(self.check("src1", "grid_svc", "aa"))
        self.assertEqual(self.check("src1", "grid_svc", "aa"), "aa")


if __name__ == "__main__":
    unittest.main()
