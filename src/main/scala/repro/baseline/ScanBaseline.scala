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
      .mapPartitions { rows =>
        rows.map { r =>
          val m = store.loadPath(r.path)
          (r, expr.eval(t => m.cp(t.roi.resolve(r), t.range)))
        }
      }
      .collect()
  }

  /** Mask selection: `WHERE pred`. */
  def filterMasks(catalog: DataFrame, pred: Predicate, store: MaskStore): FilterVerifyResult = {
    val spark = catalog.sparkSession
    import spark.implicits._
    val loadsBefore = store.loads.value
    val t0 = System.nanoTime()
    val rows = catalog
      .as[CatalogRow]
      .mapPartitions(rs => rs.filter(r => pred.evalExact(r, store.loadPath(r.path))))
      .collect()
    val n = catalog.count()
    FilterVerifyResult(
      rows.sortBy(_.mask_id),
      QueryStats(n, 0, 0, n, store.loads.value - loadsBefore, (System.nanoTime() - t0) / 1_000_000),
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
    val loadsBefore = store.loads.value
    val t0 = System.nanoTime()
    val vals = exactValues(catalog, expr, store)
    val ordered =
      if (descending) vals.sortBy { case (r, v) => (-v, r.mask_id) }
      else vals.sortBy { case (r, v) => (v, r.mask_id) }
    TopKResult(
      ordered.take(k),
      QueryStats(vals.length, 0, 0, vals.length, store.loads.value - loadsBefore,
        (System.nanoTime() - t0) / 1_000_000),
    )
  }

  private def exactGroupValues(
      catalog: DataFrame,
      value: GroupValue,
      store: MaskStore,
  ): Array[(Long, Double)] =
    ImageGroups(catalog).map((img, rows) => (img, value.exact(rows, r => store.loadPath(r.path))))

  /** Group filter: `GROUP BY image_id HAVING value op T`. */
  def filterGroups(
      catalog: DataFrame,
      value: GroupValue,
      op: CmpOp,
      threshold: Double,
      store: MaskStore,
  ): GroupFilterResult = {
    val loadsBefore = store.loads.value
    val t0 = System.nanoTime()
    val vals = exactGroupValues(catalog, value, store)
    val pass = vals.collect {
      case (g, v) if (op == Gt && v > threshold) || (op == Lt && v < threshold) => g
    }
    GroupFilterResult(
      pass.sorted,
      QueryStats(vals.length, 0, 0, vals.length, store.loads.value - loadsBefore,
        (System.nanoTime() - t0) / 1_000_000),
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
    val loadsBefore = store.loads.value
    val t0 = System.nanoTime()
    val vals = exactGroupValues(catalog, value, store)
    val ordered =
      if (descending) vals.sortBy { case (g, v) => (-v, g) }
      else vals.sortBy { case (g, v) => (v, g) }
    GroupTopKResult(
      ordered.take(k),
      QueryStats(vals.length, 0, 0, vals.length, store.loads.value - loadsBefore,
        (System.nanoTime() - t0) / 1_000_000),
    )
  }
}
