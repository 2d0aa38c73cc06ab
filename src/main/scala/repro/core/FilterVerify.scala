package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.store.{CatalogRow, MaskStore}

/** Result of a mask-selection query: the catalog rows of the masks that
  * satisfy the predicate, plus execution statistics.
  */
final case class FilterVerifyResult(rows: Array[CatalogRow], stats: QueryStats) {
  def maskIds: Array[Long] = rows.map(_.mask_id).sorted
  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    rows.toSeq.toDF()
  }
}

/** The paper's filter–verification query execution framework (§3.2) for
  * mask-selection predicates: the [[Kernel]]'s threshold policy with every
  * mask its own unit.
  *
  * Filter stage: a distributed DataFrame scan over the *catalog only* (no
  * mask bytes) classifies every targeted mask via its CHI bounds into
  * guaranteed-fail / guaranteed-pass / uncertain. Verification stage: only
  * the uncertain masks are loaded from disk (counted by the store) and the
  * exact predicate is applied. Results are exact by construction.
  */
object FilterVerify {

  def execute(
      catalog: DataFrame,
      pred: Predicate,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): FilterVerifyResult = {
    val spark = catalog.sparkSession
    import spark.implicits._
    val meter = new Meter(store)
    val value = MaskValue(pred.expr)

    // Both stages fused in one distributed pass: every task classifies its
    // masks from the broadcast CHI (no disk) and immediately verifies the
    // uncertain ones by loading them — the mask-level parallelism of §3.2.1
    // with a single job's scheduling overhead.
    val verdicts = catalog
      .as[CatalogRow]
      .mapPartitions { rows =>
        rows.map { r =>
          val unit = Seq(r)
          val (c, passed) = Kernel.threshold(pred.op, pred.threshold, Some(value.bounds(unit, chi.value)))(
            value.exact(unit, u => store.loadPath(u.path)))
          (r, c, passed)
        }
      }
      .collect() // catalog metadata only — small relative to mask bytes

    FilterVerifyResult(verdicts.collect { case (r, _, true) => r }.sortBy(_.mask_id), meter.stats(verdicts.map(_._2)))
  }

  /** Bounds of `expr` for every targeted mask — used by the bench that
    * reproduces the paper's Figure 10 bound-distribution analysis.
    */
  def boundsPerMask(
      catalog: DataFrame,
      expr: CpExpr,
      chi: Broadcast[ChiRegistry],
  ): Array[(Long, Double, Double)] = {
    val spark = catalog.sparkSession
    import spark.implicits._
    catalog
      .as[CatalogRow]
      .map { r =>
        val (lo, hi) = Predicate.rowBounds(expr, r, chi.value.get(r.mask_id))
        (r.mask_id, lo, hi)
      }
      .collect()
  }
}
