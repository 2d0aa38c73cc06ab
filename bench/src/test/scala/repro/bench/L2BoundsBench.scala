package repro.bench

import scala.util.Random

import repro.SparkSpec
import repro.core.ExprPlan
import repro.store.CatalogRow
import repro.workload.Workloads

/** Layer 2 of a query as the engines run it: one [[ExprPlan]] compiled per
  * query and evaluated row by row over the registry's mask slab
  * (`ChiSlab.eval(plan, row)`), on the driver, over the 20,000 model-1
  * ImageNet-lite rows. The queries are §4.3 random Filter predicates
  * (`Workloads.randomFilterPredicate`, `roi = object`, one CP term each), so
  * ns per mask is also ns per mask per CP term. Each query's time is the
  * median of its timed passes; the row reports the quartiles over queries,
  * the sums of every lower and upper bound (equal between two builds iff
  * they bound alike), and the bytes the registry holds. Writes
  * bench/results/l2_bounds.json.
  */
class L2BoundsBench extends SparkSpec {

  private val nQueries = 60
  private val warmupPasses = 2
  private val timedPasses = 5

  test("L2: ExprPlan bounds per mask over the registry slab") {
    val loaded = BenchData.load(spark, BenchData.imagenet)
    val slab = loaded.registry.masks
    val spark0 = spark
    import spark0.implicits._
    val rows = loaded.catalog.filter("model_id = 1").as[CatalogRow].collect().sortBy(_.mask_id)
    val maskPixels = loaded.bd.ds.w.toLong * loaded.bd.ds.h
    val r = new Random(2)
    val preds = Seq.fill(nQueries)(Workloads.randomFilterPredicate(r, maskPixels))

    var sumLower, sumUpper = 0L
    def pass(plan: ExprPlan): (Long, Long) = {
      var lo, hi = 0L
      var i = 0
      while (i < rows.length) {
        slab.eval(plan, rows(i))
        lo += plan.lower.toLong
        hi += plan.upper.toLong
        i += 1
      }
      (lo, hi)
    }
    // JIT warm-up over every query before any is timed.
    preds.foreach(p => (0 until warmupPasses).foreach(_ => pass(new ExprPlan(p.expr, slab))))
    val nsPerMask = preds.map { p =>
      val plan = new ExprPlan(p.expr, slab)
      val times = (0 until timedPasses).map { _ =>
        val t0 = System.nanoTime()
        val (lo, hi) = pass(plan)
        val ns = (System.nanoTime() - t0).toDouble / rows.length
        sumLower += lo
        sumUpper += hi
        ns
      }.sorted
      times(timedPasses / 2)
    }.sorted
    def quantile(q: Double): Double = nsPerMask(((nsPerMask.length - 1) * q).round.toInt)

    val reg = loaded.registry
    val row = L2Row(
      loaded.bd.name, nQueries, rows.length, timedPasses,
      quantile(0.25), quantile(0.5), quantile(0.75),
      sumLower / timedPasses, sumUpper / timedPasses,
      reg.masks.size, reg.aggregates.size,
      reg.masks.bytes.toDouble / 8 / reg.masks.size, reg.aggregates.bytes.toDouble / 8 / reg.aggregates.size,
      reg.totalBytes / 1e6,
    )
    println(s"### $row")
    Harness.writeJson(spark, "results/l2_bounds.json", Seq(row))
    assert(row.nsPerMaskMedian > 0 && sumLower <= sumUpper)
  }
}

/** One run of [[L2BoundsBench]]: ns per mask over queries (quartiles), the
  * bound sums per pass, and the registry's indexes and the 64-bit words and
  * MB (10⁶ bytes) they hold.
  */
final case class L2Row(
    dataset: String,
    queries: Int,
    masksPerQuery: Int,
    timedPasses: Int,
    nsPerMaskP25: Double,
    nsPerMaskMedian: Double,
    nsPerMaskP75: Double,
    sumLower: Long,
    sumUpper: Long,
    maskIndexes: Int,
    aggregateIndexes: Int,
    wordsPerMaskIndex: Double,
    wordsPerAggregateIndex: Double,
    registryMB: Double,
)
