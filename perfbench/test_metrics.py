"""Self-tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TailPercentile(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        xs = list(range(1, 101))
        value, pct, beyond = metrics.tail(xs)
        self.assertEqual((value, pct, beyond), (90, 90.0, 10))

    def test_is_the_highest_rank_with_ten_beyond(self):
        for n in range(11, 200):
            xs = [float(i) for i in range(n)]
            value, pct, beyond = metrics.tail(xs)
            self.assertEqual(beyond, 10)
            self.assertEqual(sum(1 for x in xs if x > value), 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_order_of_samples_does_not_matter(self):
        xs = [5, 3, 9, 1, 7, 2, 8, 6, 4, 10, 0, 11, 12]
        self.assertEqual(metrics.tail(xs), metrics.tail(sorted(xs)))
        self.assertEqual(metrics.tail(xs)[0], 2)

    def test_fewer_than_eleven_samples_report_the_maximum(self):
        self.assertEqual(metrics.tail([3, 1, 2]), (3, 100.0, 0))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.tail([])


def span(i, parent, start, end, name="s"):
    return {"id": i, "parent": parent, "trace": 0, "name": name, "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(0, -1, 10, 25)]), {0: 15})

    def test_overlapping_children_are_subtracted_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 60)]
        self.assertEqual(metrics.self_times(spans)[0], 100 - 50)

    def test_child_reaching_past_its_parent_is_clipped(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 130), span(2, 0, -5, 5)]
        self.assertEqual(metrics.self_times(spans)[0], 100 - 15)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 20, 80), span(2, 1, 30, 50)]
        own = metrics.self_times(spans)
        self.assertEqual(own, {0: 40, 1: 40, 2: 20})

    def test_summary_adds_up_by_name(self):
        spans = [span(0, -1, 0, 10_000_000, "query"), span(1, 0, 0, 4_000_000, "engine"),
                 span(2, -1, 20_000_000, 30_000_000, "query")]
        s = metrics.span_summary(spans)
        self.assertEqual(s["query"], (2, 20.0, 16.0))
        self.assertEqual(s["engine"], (1, 4.0, 4.0))


class Pooling(unittest.TestCase):
    def test_fml_pools_loads_over_targets(self):
        # Two queries: 0 of 100 masks loaded, 10 of 10 loaded. Pooled FML is
        # 10/110, not the mean of the per-query ratios (0.5).
        self.assertAlmostEqual(metrics.pooled_ratio([0, 10], [100, 10]), 10 / 110)

    def test_empty_denominator_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.pooled_ratio([1], [0])


class Names(unittest.TestCase):
    def test_valid_names(self):
        for n in ("setup_s", "chi.bounds_ns", "table2.wilds.q1_loads", "9lives", "a-b", "x" * 64):
            self.assertTrue(metrics.valid_name(n), n)

    def test_invalid_names(self):
        for n in ("", "_x", ".x", "a b", "a/b", "é", "x" * 65, "a\n"):
            self.assertFalse(metrics.valid_name(n), n)

    def test_units(self):
        for u in ("ms", "s", "1/s", "count", "ratio", "MB", "%"):
            self.assertTrue(metrics.valid_unit(u), u)
        for u in ("", "per second", "x" * 17):
            self.assertFalse(metrics.valid_unit(u), u)


def raw_run(traced):
    """A small raw result as the Scala driver writes it."""
    def q(kind, ms, loads, targeted, **kw):
        d = dict(kind=kind, ms=ms, loads=loads, targeted=targeted, unindexed=0, answer_size=3, ok=True,
                 error=None, pruned=targeted - 5, direct=1, uncertain=4, jobs=1, stages=1, tasks=4)
        d.update(kw)
        return d
    untraced = [q("filter", 100.0 + i, i, 1000) for i in range(20)] + [q("sql", 90.0, 7, 1000)]
    samples = {name: [1.0, 2.0, 3.0] for name in list(metrics.MEDIAN_SAMPLES) + list(metrics.MEAN_SAMPLES)}
    for ds in ("imagenet", "wilds"):
        for i in range(1, 6):
            samples[f"table2.{ds}.q{i}_loads"] = [float(i)]
    return {
        "context": {"mask_file_bytes": 12560, "throttle_mib_s": 125.0},
        "setup_s": 12.5,
        "untraced": untraced,
        "traced": [dict(x, ms=x["ms"] * 1.01) for x in untraced] if traced else [],
        "attempted": 21, "failed": 0, "heap_mb": 300.0,
        "index_bytes": 100, "index_raw_bytes": 400, "indexed_masks": 60000,
        "samples": samples if traced else {},
    }


class Spec(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_names_valid_and_unique(self):
        names = [x["name"] for x in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(metrics.valid_name(n), n)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(metrics.valid_unit(m["unit"]), m)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_has_the_largest_bound(self):
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_every_end_to_end_metric_is_computed_with_its_unit(self):
        e2e, _ = metrics.end_to_end(raw_run(traced=False))
        for m in SPEC["end_to_end"]:
            self.assertEqual(e2e[m["name"]][1], m["unit"], m["name"])

    def test_every_per_layer_metric_is_computed_with_its_unit_and_target(self):
        layers = metrics.per_layer(raw_run(traced=True))
        for m in SPEC["per_layer"]:
            self.assertEqual(layers[m["name"]][1], m["unit"], m["name"])
            self.assertIn(m["name"], metrics.LAYER_TARGETS)


class EndToEnd(unittest.TestCase):
    def test_values(self):
        e2e, notes = metrics.end_to_end(raw_run(traced=False))
        self.assertEqual(e2e["query_p50_ms"][0], 109.0)
        self.assertEqual(e2e["filter_p50_ms"][0], 109.5)
        self.assertEqual(e2e["sql_filter_p50_ms"][0], 90.0)
        self.assertAlmostEqual(e2e["fml"][0], (sum(range(20)) + 7) / 21000)
        self.assertAlmostEqual(e2e["index_size_ratio"][0], 0.25)
        self.assertEqual(e2e["error_rate"][0], 0.0)
        self.assertEqual(notes["tail_samples_beyond"], 10)

    def test_trace_overhead_and_load_yield(self):
        layers = metrics.per_layer(raw_run(traced=True))
        self.assertAlmostEqual(layers["trace.overhead_frac"][0], 0.01)
        # 20 queries with loads > 0, each answering 3 with 1 from bounds.
        self.assertAlmostEqual(layers["engine.load_yield"][0], 20 * 2 / (sum(range(1, 20)) + 7))


if __name__ == "__main__":
    unittest.main()
