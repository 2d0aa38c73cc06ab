"""Arithmetic of the benchmark: turns the raw per-query records and probe
samples written by the Scala driver into end-to-end and per-layer metrics.
Kept free of I/O so test_metrics.py can check it directly."""

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Which end-to-end metric each per-layer metric should move, and where. This
# is the only copy: the traced report prints it beside each metric.
LAYER_TARGETS = {
    "store.loads_per_query": "masks_loaded_per_query, query_p50_ms on imagenet-incremental",
    "store.mb_read_per_query": "masks_loaded_per_query, query_p50_ms on imagenet-incremental",
    "store.disk_busy_ms_per_query": "query_p50_ms on imagenet-incremental",
    "store.load_us": "query_p50_ms, queries_per_s on imagenet-incremental",
    "mask.cp_us": "query_p50_ms on imagenet-incremental; Table 2 Q3-Q5",
    "mask.intersect_us": "Table 2 Q5 (INTERSECT aggregation)",
    "chi.bounds_ns": "filter_p50_ms, sql_filter_p50_ms on imagenet-filter",
    "chi.build_us": "setup_s on imagenet-filter; queries_per_s on imagenet-incremental",
    "predicate.classify_ns": "filter_p50_ms on imagenet-filter and imagenet-incremental",
    "registry.build_s": "setup_s on imagenet-filter",
    "registry.broadcast_ms": "setup_s on imagenet-filter",
    "registry.serialized_mb": "index_size_ratio, heap_mb",
    "engine.pruned_frac": "masks_loaded_per_query, fml",
    "engine.direct_frac": "masks_loaded_per_query, fml",
    "engine.uncertain_frac": "masks_loaded_per_query, fml",
    "engine.load_yield": "masks_loaded_per_query",
    "engine.filter_stage_ms": "filter_p50_ms on imagenet-filter",
    "spark.empty_job_ms": "query_p50_ms on imagenet-filter",
    "spark.collect_ms": "query_p50_ms on imagenet-filter",
    "spark.jobs_per_query": "query_p50_ms on both workloads",
    "spark.stages_per_query": "query_p50_ms on both workloads",
    "spark.tasks_per_query": "query_p50_ms on both workloads",
    "catalyst.rewrite_rate": "sql_filter_p50_ms, masks_loaded_per_query on imagenet-filter",
    "catalyst.optimize_ms": "sql_filter_p50_ms on imagenet-filter",
    "catalyst.loads_per_query": "sql_filter_p50_ms, masks_loaded_per_query on imagenet-filter",
    "incremental.unindexed_frac": "queries_per_s on imagenet-incremental",
    "incremental.indexed_masks": "index_size_ratio, heap_mb",
    "trace.overhead_frac": "none (cost of tracing itself)",
}
for _ds in ("imagenet", "wilds"):
    for _q in range(1, 6):
        LAYER_TARGETS[f"table2.{_ds}.q{_q}_loads"] = "masks_loaded_per_query (paper Table 2)"


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def tail(xs):
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile, samples_beyond). With n samples sorted
    ascending, the value at 0-based rank n-11 has exactly ten samples above
    it; its percentile is the share of samples at or below it. With fewer
    than eleven samples no rank qualifies, and the maximum is reported with
    the count actually beyond it (zero).
    """
    if not xs:
        raise ValueError("tail of no samples")
    s = sorted(xs)
    n = len(s)
    k = n - 11 if n >= 11 else n - 1
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def pooled_ratio(nums, dens):
    """sum(nums) / sum(dens): a ratio pooled over queries, so each query
    weighs by its size rather than counting once (the paper's FML, §4.4)."""
    d = sum(dens)
    if d == 0:
        raise ValueError("pooled ratio over an empty denominator")
    return sum(nums) / d


def mean(xs):
    if not xs:
        raise ValueError("mean of no samples")
    return sum(xs) / len(xs)


def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover (children may overlap each other). Returns {id: ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"]) - covered(children.get(s["id"], []), s["start_ns"], s["end_ns"])
        for s in spans
    }


def span_summary(spans):
    """Per span name: count, total ms and self ms."""
    own = self_times(spans)
    out = {}
    for s in spans:
        c, total, self_ = out.get(s["name"], (0, 0.0, 0.0))
        out[s["name"]] = (c + 1, total + (s["end_ns"] - s["start_ns"]) / 1e6, self_ + own[s["id"]] / 1e6)
    return out


def end_to_end(raw):
    """Every end-to-end metric the run can give: {name: (value, unit)}.
    Also returns notes for the report (tail percentile used, sample counts)."""
    q = raw["untraced"]
    if not q:
        raise ValueError("no timed queries")
    ms = [x["ms"] for x in q]
    tail_ms, tail_pct, beyond = tail(ms)
    m = {
        "setup_s": (raw["setup_s"], "s"),
        "query_p50_ms": (median(ms), "ms"),
        "query_tail_ms": (tail_ms, "ms"),
        "queries_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "masks_loaded_per_query": (mean([x["loads"] for x in q]), "count"),
        "fml": (pooled_ratio([x["loads"] for x in q], [x["targeted"] for x in q]), "ratio"),
        "index_size_ratio": (raw["index_bytes"] / raw["index_raw_bytes"], "ratio"),
        "heap_mb": (raw["heap_mb"], "MB"),
        "error_rate": (raw["failed"] / raw["attempted"], "ratio"),
    }
    for metric, kinds in (("filter_p50_ms", ("filter", "incremental")), ("sql_filter_p50_ms", ("sql",))):
        xs = [x["ms"] for x in q if x["kind"] in kinds]
        if xs:
            m[metric] = (median(xs), "ms")
    notes = {
        "timed_queries": len(ms),
        "tail_percentile": round(tail_pct, 2),
        "tail_samples_beyond": beyond,
    }
    return m, notes


# Probe samples reported as their median, and their units.
MEDIAN_SAMPLES = {
    "store.load_us": "us",
    "mask.cp_us": "us",
    "mask.intersect_us": "us",
    "chi.bounds_ns": "ns",
    "chi.build_us": "us",
    "predicate.classify_ns": "ns",
    "registry.build_s": "s",
    "registry.broadcast_ms": "ms",
    "engine.filter_stage_ms": "ms",
    "spark.empty_job_ms": "ms",
    "spark.collect_ms": "ms",
    "catalyst.optimize_ms": "ms",
}
# Probe samples reported as their mean.
MEAN_SAMPLES = {
    "catalyst.rewrite_rate": "ratio",
    "catalyst.loads_per_query": "count",
}


def per_layer(raw):
    """Every per-layer metric of a traced run: {name: (value, unit)}."""
    ctx = raw["context"]
    t = raw["traced"]
    u = raw["untraced"]
    if not t:
        raise ValueError("no traced queries")
    samples = raw["samples"]
    file_bytes = ctx["mask_file_bytes"]
    loads = mean([x["loads"] for x in t])
    m = {
        "store.loads_per_query": (loads, "count"),
        "store.mb_read_per_query": (loads * file_bytes / 2**20, "MB"),
        "store.disk_busy_ms_per_query": (loads * file_bytes / (ctx["throttle_mib_s"] * 2**20) * 1000, "ms"),
        "registry.serialized_mb": (raw["index_bytes"] / 2**20, "MB"),
        "spark.jobs_per_query": (mean([x["jobs"] for x in t]), "count"),
        "spark.stages_per_query": (mean([x["stages"] for x in t]), "count"),
        "spark.tasks_per_query": (mean([x["tasks"] for x in t]), "count"),
        "incremental.unindexed_frac": (pooled_ratio([x["unindexed"] for x in t], [x["targeted"] for x in t]), "ratio"),
        "incremental.indexed_masks": (raw["indexed_masks"], "count"),
        "trace.overhead_frac": (sum(x["ms"] for x in t) / sum(x["ms"] for x in u) - 1, "ratio"),
    }
    with_stats = [x for x in t if "pruned" in x]
    if with_stats:
        targeted = [x["targeted"] for x in with_stats]
        for key in ("pruned", "direct", "uncertain"):
            m[f"engine.{key}_frac"] = (pooled_ratio([x[key] for x in with_stats], targeted), "ratio")
        loaded = [x for x in with_stats if x["loads"] > 0]
        if loaded:
            m["engine.load_yield"] = (
                pooled_ratio([x["answer_size"] - x["direct"] for x in loaded], [x["loads"] for x in loaded]),
                "ratio",
            )
    for name, unit in MEDIAN_SAMPLES.items():
        if samples.get(name):
            m[name] = (median(samples[name]), unit)
    for name, unit in MEAN_SAMPLES.items():
        if samples.get(name):
            m[name] = (mean(samples[name]), unit)
    for name, xs in sorted(samples.items()):
        if name.startswith("table2."):
            m[name] = (xs[-1], "count")
    return m
