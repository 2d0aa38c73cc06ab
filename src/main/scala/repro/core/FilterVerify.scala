package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame

import repro.store.{CatalogRow, MaskStore}

/** Result of a mask-selection query: the catalog rows of the masks that
  * satisfy the predicate, plus execution statistics.
  */
final case class FilterVerifyResult(rows: Array[CatalogRow], stats: QueryStats) {
  def maskIds: Array[Long] = rows.map(_.mask_id).sorted
}

/** The paper's filter–verification query execution framework (§3.2) for
  * mask-selection predicates: the [[Kernel]]'s threshold policy with every
  * mask its own unit.
  *
  * Filter stage: on the driver, over the targeted catalog rows (held while
  * the DataFrame stays cached) and the CHI alone, every mask is classified
  * as guaranteed-fail / guaranteed-pass / uncertain. Verification stage: only
  * the uncertain masks are loaded from disk (counted by the store), in one
  * Spark job, and the exact predicate is applied. A query that the bounds
  * decide entirely runs no job.
  */
object FilterVerify {

  def execute(
      catalog: DataFrame,
      pred: Predicate,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): FilterVerifyResult = {
    val (passed, stats) = Kernel.filter(Units.masks(catalog), MaskValue(pred.expr), pred.op, pred.threshold, store, chi)
    FilterVerifyResult(passed.map(_._2.head), stats)
  }

  /** Bounds of `expr` for every targeted mask, by `mask_id` — the filter
    * stage alone, which the bench that reproduces the paper's Figure 10
    * bound-distribution analysis reads.
    */
  def boundsPerMask(
      catalog: DataFrame,
      expr: CpExpr,
      chi: Broadcast[ChiRegistry],
  ): Array[(Long, Double, Double)] = {
    val units = Units.masks(catalog)
    val bound = MaskValue(expr).bounder(chi.value)
    Array.tabulate(units.size) { i =>
      bound(units.members(i))
      (units.keys(i), bound.lower, bound.upper)
    }
  }
}
