package repro.baseline

import org.apache.spark.sql.DataFrame

import repro.core._
import repro.store.{CatalogRow, MaskStore}

/** The baseline all three systems in the paper's evaluation reduce to
  * (NumPy, PostgreSQL + C UDF, TileDB — §4.1/§4.2): load *every* targeted
  * mask from disk and evaluate the CP function exactly. The paper shows all
  * of them are bottlenecked on mask loading and load the full targeted set
  * (Table 2); this engine reproduces exactly that behaviour as a distributed
  * scan, with loads counted by the store.
  *
  * It is the reference every engine test and the benchmark check answers
  * against, so it does not run on the [[repro.core.Kernel]]: a reference
  * that shares the code it checks would hide that code's bugs.
  */
object ScanBaseline {

  private def exactValues(
      catalog: DataFrame,
      expr: CpExpr,
      store: MaskStore,
  ): Array[(CatalogRow, Double)] = {
    val spark = catalog.sparkSession
    import spark.implicits._
    catalog
      .as[CatalogRow]
      .map(r => (r, expr.exact(r, store.loadRow(r))))
      .collect()
  }

  /** Mask selection: `WHERE pred`. */
  def filterMasks(catalog: DataFrame, pred: Predicate, store: MaskStore): FilterVerifyResult = {
    val meter = new Meter
    val vals = exactValues(catalog, pred.expr, store)
    FilterVerifyResult(
      vals.collect { case (r, v) if pred.op.holds(v, pred.threshold) => r }.sortBy(_.mask_id),
      meter.stats(vals.length, 0, vals.length, vals.length),
    )
  }

  /** Top-k masks by `expr` (same tie-break as [[repro.core.TopK]]). */
  def topKMasks(
      catalog: DataFrame,
      expr: CpExpr,
      k: Int,
      descending: Boolean,
      store: MaskStore,
  ): TopKResult = {
    val meter = new Meter
    val vals = exactValues(catalog, expr, store)
    val ordered =
      if (descending) vals.sortBy { case (r, v) => (-v, r.mask_id) }
      else vals.sortBy { case (r, v) => (v, r.mask_id) }
    TopKResult(ordered.take(k), meter.stats(vals.length, 0, vals.length, vals.length))
  }

  /** Every group's exact value, and the number of masks loaded. */
  private def exactGroupValues(
      catalog: DataFrame,
      value: GroupValue,
      store: MaskStore,
  ): (Array[(Long, Double)], Long) = {
    val units = Units.images(catalog)
    (units.map((img, rows) => (img, value.exact(rows, store.loadRow))), units.members.map(_.size.toLong).sum)
  }

  /** Group filter: `GROUP BY image_id HAVING value op T`. */
  def filterGroups(
      catalog: DataFrame,
      value: GroupValue,
      op: CmpOp,
      threshold: Double,
      store: MaskStore,
  ): GroupFilterResult = {
    val meter = new Meter
    val (vals, loaded) = exactGroupValues(catalog, value, store)
    GroupFilterResult(
      vals.collect { case (g, v) if op.holds(v, threshold) => g }.sorted,
      meter.stats(vals.length, 0, vals.length, loaded),
    )
  }

  /** Top-k groups by `value`. */
  def topKGroups(
      catalog: DataFrame,
      value: GroupValue,
      k: Int,
      descending: Boolean,
      store: MaskStore,
  ): GroupTopKResult = {
    val meter = new Meter
    val (vals, loaded) = exactGroupValues(catalog, value, store)
    val ordered =
      if (descending) vals.sortBy { case (g, v) => (-v, g) }
      else vals.sortBy { case (g, v) => (v, g) }
    GroupTopKResult(ordered.take(k), meter.stats(vals.length, 0, vals.length, loaded))
  }
}
