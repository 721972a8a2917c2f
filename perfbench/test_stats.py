"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import stats


class TailRule(unittest.TestCase):
    def test_highest_percentile_leaves_ten_samples_beyond(self):
        # 400 samples: p99 would leave only 4 beyond it, so the rule falls
        # back to p97.5, which leaves exactly 10.
        values = list(range(1, 401))
        q, v = stats.tail(values)
        self.assertAlmostEqual(q, 0.975)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_p99_is_kept_when_enough_samples(self):
        values = list(range(1, 2001))
        q, v = stats.tail(values)
        self.assertEqual(q, 0.99)
        self.assertEqual(sum(1 for x in values if x > v), 20)

    def test_too_few_samples_give_no_tail(self):
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertIsNotNone(stats.tail(list(range(11))))


class Slowdown(unittest.TestCase):
    def test_failed_job_counts_as_infinitely_slow(self):
        sd = stats.slowdowns([(1.0, 2.0, True), (1.0, 0.5, False), (2.0, 3.0, True)])
        self.assertEqual(sd, [2.0, math.inf, 1.5])

    def test_failures_raise_percentiles_instead_of_dropping_out(self):
        ok = [(1.0, 1.1, True)] * 8
        failed = [(1.0, 0.1, False)] * 2
        self.assertEqual(stats.quantile(stats.slowdowns(ok), 0.9), 1.1)
        self.assertEqual(stats.quantile(stats.slowdowns(ok + failed), 0.9), math.inf)
        # A failure that returned quickly must not make the median faster.
        self.assertGreaterEqual(stats.median(stats.slowdowns(ok + failed)), 1.1)


class QuartileSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / q2)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([3.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = {
            0: {"start": 0.0, "end": 10.0, "parent": None},
            1: {"start": 1.0, "end": 4.0, "parent": 0},
            2: {"start": 3.0, "end": 6.0, "parent": 0},   # overlaps span 1
            3: {"start": 8.0, "end": 12.0, "parent": 0},  # runs past its parent
            4: {"start": 1.5, "end": 2.0, "parent": 1},
        }
        own = stats.self_times(spans)
        # Children cover [1, 6) and [8, 10) of the parent: 7 of 10.
        self.assertAlmostEqual(own[0], 3.0)
        self.assertAlmostEqual(own[1], 2.5)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[4], 0.5)


class OpenLoop(unittest.TestCase):
    def test_stall_delays_every_later_request(self):
        # Requests due every 10 ms; the generator stalls until t=35, then
        # sends the four overdue requests, each served in 1 ms.
        recs = [{"due": d, "start": 35.0, "end": 36.0 + i}
                for i, d in enumerate([0.0, 10.0, 20.0, 30.0])]
        lat = stats.open_loop_latencies(recs)
        self.assertEqual(lat, [36.0, 27.0, 18.0, 9.0])
        for r, l in zip(recs, lat):
            # Each request's latency includes the whole wait the stall
            # imposed on it, not only its 1 ms of service.
            self.assertGreaterEqual(l, r["start"] - r["due"])
        self.assertEqual(stats.generator_lag(recs), [35.0, 25.0, 15.0, 5.0])

    def test_on_time_requests_measure_service_only(self):
        recs = [{"due": 0.0, "start": 0.0, "end": 2.0}]
        self.assertEqual(stats.open_loop_latencies(recs), [2.0])


if __name__ == "__main__":
    unittest.main()
