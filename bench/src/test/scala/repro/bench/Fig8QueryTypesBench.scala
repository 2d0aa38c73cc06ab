package repro.bench

import repro.SparkSpec

/** Reproduces the paper's Figure 8 (as a table): MaskSearch query-time
  * distributions for randomized Filter / Top-K / Aggregation queries (§4.3).
  * The paper runs 500 per type; this scaled run uses 15 per type. Writes one
  * box per (dataset, query type) to bench/results/fig8.json.
  */
class Fig8QueryTypesBench extends SparkSpec {

  test("Figure 8: query-time distribution per query type") {
    val runs = BenchData.all.flatMap { bd =>
      val loaded = BenchData.load(spark, bd)
      Harness.runFig8(spark, loaded, nPerType = 15, seed = 8)
    }
    Harness.writeJson(spark, "results/fig8.json", Harness.boxes(runs))

    // Paper finding: MaskSearch handles all query types with low FML; even
    // worst-case queries stay far below a full scan.
    for (ds <- runs.map(_.dataset).distinct) {
      val sel = runs.filter(_.dataset == ds)
      assert(sel.map(_.fml).sorted.apply(sel.size / 2) < 0.5, s"$ds median FML too high")
    }
  }
}
