"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They need no build: they exercise bench.py and the BENCHMARK.json contract.
"""

import json
import random
import unittest
from collections import Counter
from pathlib import Path

import bench

ROOT = Path(__file__).resolve().parent.parent


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(bench.tail_percentile(10000, 99.9), 99.9)
        self.assertEqual(bench.tail_percentile(9999, 99.9), 99.0)
        self.assertEqual(bench.tail_percentile(1000, 99.9), 99.0)
        self.assertEqual(bench.tail_percentile(200, 99.9), 95.0)
        self.assertEqual(bench.tail_percentile(100, 99.9), 90.0)
        self.assertEqual(bench.tail_percentile(99, 99.9), 75.0)
        self.assertEqual(bench.tail_percentile(19, 99.9), 50.0)

    def test_cap_limits_the_choice(self):
        self.assertEqual(bench.tail_percentile(100000, 90.0), 90.0)
        self.assertEqual(bench.tail_percentile(100000, 99.0), 99.0)

    def test_samples_beyond_is_exact_for_fractional_percentiles(self):
        self.assertEqual(bench.samples_beyond(10000, 99.9), 10)
        self.assertEqual(bench.samples_beyond(1000, 99.0), 10)
        self.assertEqual(bench.samples_beyond(100, 90.0), 10)


class Windows(unittest.TestCase):
    def test_quantile_interpolates_between_order_statistics(self):
        self.assertEqual(bench.quantile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(bench.quantile(range(11), 90), 9.0)
        self.assertEqual(bench.quantile([7], 90), 7)
        self.assertAlmostEqual(bench.quantile([0.1] * 9 + [0.2], 90), 0.11)

    def test_rate_and_median_that_nine_windows_in_ten_meet(self):
        ops, p50 = bench.window_metrics(10, [0.1] * 9 + [0.2], [1000.0] * 9 + [3000.0])
        self.assertAlmostEqual(ops, 10 / 0.11)
        self.assertAlmostEqual(p50, 1.2)

    def test_share_of_slow_windows_does_not_move_the_figures(self):
        # Windows of a fast (1.0 s) and a slow (1.5 s) host state: the mean
        # rate follows the slow share, the figures nine windows meet do not.
        def run(slow):
            secs = [1.0] * (20 - slow) + [1.5] * slow
            return secs, bench.window_metrics(10, secs, [s * 100 for s in secs])

        (secs_a, a), (secs_b, b) = run(6), run(12)
        self.assertEqual(a, b)
        self.assertAlmostEqual(a[0], 10 / 1.5)
        self.assertGreater(len(secs_a) * 10 / sum(secs_a) / (len(secs_b) * 10 / sum(secs_b)), 1.1)


class SelfTime(unittest.TestCase):
    # (name, start, end, parent, rid, replay)
    def test_overlapping_children_count_once(self):
        spans = [("a.op", 0, 100, -1, 0, 0),
                 ("b.x", 10, 40, 0, 0, 0),
                 ("b.y", 30, 60, 0, 0, 0)]
        self.assertEqual(bench.self_times(spans), [50, 30, 30])

    def test_child_outside_parent_is_clipped(self):
        spans = [("a.op", 0, 100, -1, 0, 0), ("b.x", 90, 130, 0, 0, 0)]
        self.assertEqual(bench.self_times(spans)[0], 90)

    def test_replayed_child_is_subtracted_whole(self):
        spans = [("svc.request", 0, 100, -1, 0, 0),
                 ("io.parse", 100, 120, 0, 0, 1),
                 ("svc.submit", 120, 170, 0, 0, 1),
                 ("svc.cache_key", 170, 180, 2, 0, 1)]
        self.assertEqual(bench.self_times(spans), [30, 20, 40, 10])
        totals, layers = bench.span_summary(spans)
        self.assertEqual(totals["svc.submit"], 50)
        self.assertEqual(layers, {"svc": 80, "io": 20})

    def test_layer_self_time_never_negative(self):
        spans = [("svc.request", 0, 10, -1, 0, 0), ("io.parse", 10, 30, 0, 0, 1)]
        self.assertEqual(bench.span_summary(spans)[1]["svc"], 0)


class AnswerChecks(unittest.TestCase):
    recorded = [{"h": 0.0152, "k": 403.39, "tau": 3.14e-10,
                 "method": "newton", "newton_iterations": 5}]

    def responses(self, **changes):
        result = dict(self.recorded[0], from_cache=False, wall_seconds=1e-3)
        result.update(changes)
        return [json.dumps({"status": "ok", "result": result})]

    def test_identical_answer_passes(self):
        self.assertEqual(bench.count_answer_failures(self.responses(), self.recorded,
                                                     1e-12)[0], 0)

    def test_perturbed_answer_is_counted_as_failed(self):
        failures, notes = bench.count_answer_failures(
            self.responses(tau=3.14e-10 * (1 + 1e-9)), self.recorded, 1e-12)
        self.assertEqual(failures, 1)
        self.assertIn("tau", notes[0])

    def test_perturbation_within_tolerance_passes(self):
        self.assertEqual(bench.count_answer_failures(
            self.responses(tau=3.14e-10 * (1 + 1e-14)), self.recorded, 1e-12)[0], 0)

    def test_delivery_fields_are_ignored_but_others_are_not(self):
        self.assertEqual(bench.count_answer_failures(
            self.responses(from_cache=True, wall_seconds=5.0), self.recorded, 1e-12)[0], 0)
        self.assertEqual(bench.count_answer_failures(
            self.responses(method="nelder_mead"), self.recorded, 1e-12)[0], 1)

    def test_missing_answers_fail(self):
        self.assertEqual(bench.count_answer_failures([], self.recorded, 1e-12)[0], 1)

    def test_ring_period_off_the_record_fails(self):
        lines = [json.dumps({"kind": "ring", "tech": "100nm", "l": 1e-6})]
        recorded = {"100nm@1e-06": 2e-9}
        ok = [[0, 0, 2e-9 * (1 + 1e-7)]]
        off = [[0, 0, 2e-9 * (1 + 1e-3)], [1, 0, 0.0]]
        self.assertEqual(bench.count_period_failures(ok, lines, recorded, 1e-5)[0], 0)
        self.assertEqual(bench.count_period_failures(off, lines, recorded, 1e-5)[0], 2)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in ("query_cold", "query_hot", "mna_linear", "mna_ring"):
            self.assertEqual(bench.generate_input(w, 7, 1), bench.generate_input(w, 7, 1))
            self.assertNotEqual(bench.generate_input(w, 7, 1), bench.generate_input(w, 8, 1))

    def test_cold_keys_distinct_in_range_and_mixed_per_block(self):
        text = bench.generate_input("query_cold", 3, 1)
        timed = [json.loads(x) for x in bench.section(text, "timed")]
        keys = {json.dumps({k: v for k, v in q.items() if k != "id"}, sort_keys=True)
                for q in timed + [json.loads(x) for x in bench.section(text, "warmup")]}
        self.assertEqual(len(keys), len(timed) + len(bench.QUERY_KINDS))
        self.assertTrue(all(0 <= q["l"] < bench.L_MAX for q in timed))
        block = len(bench.QUERY_BLOCK)
        first = timed[:block]
        kinds = Counter("noise3" if "noise_vmax" in q else
                        "coupled2" if "n_conductors" in q else
                        "power" if "objective" in q else
                        "exact" if "with_exact_delay" in q else "plain" for q in first)
        self.assertEqual(dict(kinds), bench.QUERY_MIX)
        self.assertEqual(Counter(q["technology"] for q in timed[:2 * block]),
                         {t: block for t in bench.TECHS})

    def test_l_values_spread_over_the_range(self):
        lines = bench.query_lines(5, 1000, "cold")
        ls = sorted(json.loads(x)["l"] for x in lines)
        deciles = [sum(1 for v in ls if d * bench.L_MAX / 10 <= v < (d + 1) * bench.L_MAX / 10)
                   for d in range(10)]
        self.assertTrue(all(90 <= n <= 110 for n in deciles), deciles)

    def test_hot_orders_are_permutations_of_the_key_set(self):
        text = bench.generate_input("query_hot", 3, 1)
        self.assertEqual(len(bench.section(text, "timed")), bench.HOT_KEYS)
        for line in bench.section(text, "order"):
            self.assertEqual(sorted(map(int, line.split())), list(range(bench.HOT_KEYS)))

    def test_warmups_do_not_depend_on_the_seed(self):
        for w in ("query_cold", "mna_linear", "mna_ring"):
            self.assertEqual(bench.section(bench.generate_input(w, 1, 1), "warmup"),
                             bench.section(bench.generate_input(w, 2, 1), "warmup"))

    def test_ring_lines_cover_every_recorded_configuration(self):
        lines = bench.section(bench.generate_input("mna_ring", random.randrange(100), 1), "timed")
        recorded = json.loads((Path(bench.__file__).parent / "reference" /
                               "ring_periods.json").read_text())
        self.assertEqual(sorted(map(bench.ring_config_key, lines)), sorted(recorded))


class Contract(unittest.TestCase):
    def test_benchmark_json_names_match_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(bench.PER_LAYER))
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s",
                          "peak_rss_mb"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["query_cold", "query_hot", "mna_linear", "mna_ring"])

    def test_count_metrics_cover_every_deterministic_name(self):
        self.assertLessEqual(set(bench.DETERMINISTIC), set(bench.count_metrics({})))


if __name__ == "__main__":
    unittest.main()
