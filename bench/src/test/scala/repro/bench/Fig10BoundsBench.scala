package repro.bench

import repro.SparkSpec

/** Reproduces the paper's Figure 10 (as a table): the distribution of CHI
  * bounds — and the FML they induce at example thresholds — across datasets,
  * index granularities, and pixel-value ranges (§4.4). Writes the rows to
  * bench/results/fig10.json.
  */
class Fig10BoundsBench extends SparkSpec {

  test("Figure 10: bound tightness by dataset, index size, and value range") {
    val rows = BenchData.all.flatMap { bd =>
      val loaded = BenchData.load(spark, bd)
      Harness.runFig10(spark, loaded, sampleSize = 500)
    }
    Harness.writeJson(spark, "results/fig10.json", rows)

    // Paper finding: larger (finer) indexes ⇒ tighter bounds ⇒ lower FML.
    for (ds <- rows.map(_.dataset).distinct; (lv, uv) <- Seq((0.6, 1.0), (0.8, 1.0))) {
      def widthOf(cfg: String): Double =
        rows.find(r => r.dataset == ds && r.cfgLabel == cfg && r.lv == lv && r.uv == uv).get.meanRelWidth
      assert(widthOf("fine") <= widthOf("default") + 1e-9, s"$ds ($lv,$uv)")
      assert(widthOf("default") <= widthOf("coarse") + 1e-9, s"$ds ($lv,$uv)")
    }
  }
}
