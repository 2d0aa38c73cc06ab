package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame

import repro.store.{CatalogRow, MaskStore}

/** Result of a top-k query over masks: (row, exact CP-expression value). */
final case class TopKResult(rows: Array[(CatalogRow, Double)], stats: QueryStats) {
  def maskIds: Array[Long] = rows.map(_._1.mask_id)
}

/** Bound-pruned top-k over masks (§3.5): the [[Kernel]]'s top-k policy with
  * every mask its own unit. The filter stage computes index-only bounds for
  * every targeted mask on the driver, with no job; each verification round
  * loads its masks in one Spark job. Ties are broken by ascending `mask_id`
  * (mirrored in the baseline so result sets are comparable).
  */
object TopK {

  def masks(
      catalog: DataFrame,
      expr: CpExpr,
      k: Int,
      descending: Boolean,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): TopKResult = {
    val (top, stats) = Kernel.topK(Units.masks(catalog), MaskValue(expr), k, descending, store, chi)
    TopKResult(top.map { case ((_, rows), v) => (rows.head, v) }, stats)
  }
}
