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
  * every targeted mask in one Spark job; each verification round loads its
  * masks in another. Ties are broken by ascending `mask_id` (mirrored in the
  * baseline so result sets are comparable).
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
    val spark = catalog.sparkSession
    import spark.implicits._
    val meter = new Meter(store)
    val value = MaskValue(expr)

    val bounded = catalog
      .as[CatalogRow]
      .map { r =>
        val (lo, hi) = value.bounds(Seq(r), chi.value)
        (r, lo, hi)
      }
      .collect()

    val (top, stats) = Kernel.topK(bounded, (r: CatalogRow) => r.mask_id, k, descending, meter) { rows =>
      if (rows.isEmpty) Array.empty
      else spark.createDataset(rows.toIndexedSeq).map(r => (r, value.exact(Seq(r), u => store.loadPath(u.path)))).collect()
    }
    TopKResult(top, stats)
  }
}
