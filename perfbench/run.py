"""MaskSearch benchmark: one command that runs a workload, checks every
answer against the scan baseline and prints every metric by name and unit.

    python3 perfbench/run.py --workload imagenet-filter --seed 1 --seconds 15 --trace 0

Workloads and the metrics the last output line carries are listed in
BENCHMARK.json at the repository root. With --trace 0 the last line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, whose spans are written under .bench_build/. See
perfbench/README.md for what each workload and metric measures.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import build  # noqa: E402
import metrics  # noqa: E402

ROOT = BENCH_DIR.parent

# A run that has not finished by then is stopped and reported as failed.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not metrics.valid_name(m["name"]) or not metrics.valid_unit(m["unit"]):
            raise ValueError(f"invalid metric name or unit: {m}")
    return spec


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2

    b = build.ensure_built()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    b.results.mkdir(parents=True, exist_ok=True)
    raw_path = b.results / f"{tag}.raw.json"
    spans_path = b.results / f"{tag}.spans.jsonl"
    for p in (raw_path, spans_path):
        if p.exists():
            p.unlink()
    cmd = b.jvm([
        "--mode", "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data", str(b.data),
        "--work", str(b.work),
        "--out", str(raw_path),
        "--spans", str(spans_path),
    ])
    # Spark prefers SPARK_LOCAL_DIRS over its configuration; keep its scratch
    # files inside the build directory.
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(b.work / "spark-local"))
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark process did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if r.returncode != 0 or not raw_path.exists():
        print(f"benchmark process failed (exit {r.returncode})", file=sys.stderr)
        return 1

    raw = json.loads(raw_path.read_text())
    e2e, notes = metrics.end_to_end(raw)
    ctx = dict(raw["context"], **notes, build=b.base.name)

    print(f"== {args.workload}  seed {args.seed}  trace {args.trace} ==")
    print("context: " + json.dumps(ctx, sort_keys=True))
    print("end-to-end metrics:")
    for name, (v, unit) in e2e.items():
        print(f"  {name} = {fmt(v)} {unit}")
    print(f"  ({notes['timed_queries']} timed queries; query_tail_ms is p{notes['tail_percentile']}, "
          f"{notes['tail_samples_beyond']} queries beyond it)")

    if args.trace:
        layers = metrics.per_layer(raw)
        print("per-layer metrics (traced run; target end-to-end metric in brackets):")
        for name, (v, unit) in layers.items():
            print(f"  {name} = {fmt(v)} {unit}  [{metrics.LAYER_TARGETS.get(name, '-')}]")
        spans = [json.loads(line) for line in spans_path.read_text().splitlines() if line]
        print(f"spans: {len(spans)} written to {spans_path.relative_to(ROOT)}; self time by name:")
        for name, (count, total, self_) in sorted(metrics.span_summary(spans).items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:32s} n={count:5d}  total {total:10.1f} ms  self {self_:10.1f} ms")
        wanted, unit_of = spec["per_layer"], layers
    else:
        wanted, unit_of = spec["end_to_end"], e2e

    missing = [m["name"] for m in wanted if m["name"] not in unit_of]
    mismatched = [m["name"] for m in wanted if m["name"] in unit_of and unit_of[m["name"]][1] != m["unit"]]
    if missing or mismatched:
        print(f"metrics not produced: {missing}; units differing from BENCHMARK.json: {mismatched}",
              file=sys.stderr)
        return 1
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": unit_of[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    (b.results / f"{tag}.result.json").write_text(json.dumps(
        {"context": ctx, "end_to_end": e2e, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
