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
  * Filter stage: a distributed scan over the *catalog only* (no mask bytes)
  * classifies every targeted mask via its CHI bounds into guaranteed-fail /
  * guaranteed-pass / uncertain. Verification stage: only the uncertain masks
  * are loaded from disk (counted by the store) and the exact predicate is
  * applied. Both stages run fused in one job, so results are exact by
  * construction at a single job's scheduling cost.
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

  /** Bounds of `expr` for every targeted mask — used by the bench that
    * reproduces the paper's Figure 10 bound-distribution analysis.
    */
  def boundsPerMask(
      catalog: DataFrame,
      expr: CpExpr,
      chi: Broadcast[ChiRegistry],
  ): Array[(Long, Double, Double)] =
    Units.masks(catalog).map { (id, rows) =>
      val (lo, hi) = Predicate.rowBounds(expr, rows.head, chi.value.get(id))
      (id, lo, hi)
    }
}
