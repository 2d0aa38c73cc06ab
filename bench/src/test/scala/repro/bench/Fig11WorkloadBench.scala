package repro.bench

import repro.SparkSpec

/** Reproduces the paper's Figure 11 (as a table): multi-query workloads with
  * p_seen ∈ {0.2, 0.5, 0.8, 1.0} executed by the scan baseline, MaskSearch
  * with ahead-of-time indexing (MS), and MaskSearch with incremental
  * indexing (MS-II). Cumulative total time includes index building (§4.5).
  * The paper runs 200 queries per workload; this scaled run uses 40 on
  * WILDS-lite and 15 on ImageNet-lite. Writes the cumulative-time curves to
  * bench/results/fig11.json.
  */
class Fig11WorkloadBench extends SparkSpec {

  private val pSeens = Seq(0.2, 0.5, 0.8, 1.0)

  test("Figure 11: multi-query workload cumulative times") {
    val curves =
      pSeens.map { p =>
        Harness.runWorkload(spark, BenchData.load(spark, BenchData.wilds), nQueries = 40, pSeen = p, seed = 11)
      } ++ pSeens.map { p =>
        Harness.runWorkload(spark, BenchData.load(spark, BenchData.imagenet), nQueries = 15, pSeen = p, seed = 12)
      }
    Harness.writeJson(spark, "results/fig11.json", curves)

    curves.foreach { c =>
      // Paper shape: the scan baseline's cumulative time eventually overtakes
      // MS (which paid an up-front index build) ...
      assert(c.cumScan.last > c.cumMs.last,
        s"${c.dataset} p=${c.pSeen}: scan ${c.cumScan.last} ms did not overtake MS ${c.cumMs.last} ms")
      // ... MS-II avoids the start-up overhead entirely ...
      assert(c.cumMsii.head < c.cumMs.head,
        s"${c.dataset} p=${c.pSeen}: MS-II should start cheaper than MS (build charged up front)")
      // ... and stays well below the baseline by the end of the workload.
      assert(c.cumMsii.last < c.cumScan.last,
        s"${c.dataset} p=${c.pSeen}: MS-II ${c.cumMsii.last} ms vs scan ${c.cumScan.last} ms")
    }
  }
}
