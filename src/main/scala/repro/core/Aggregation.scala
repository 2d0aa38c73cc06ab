package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame

import repro.store.{CatalogRow, MaskStore}

/** A scalar aggregation function over the CP values of a group of masks
  * (§3.4, `SCALAR_AGG`): SUM / AVG / MIN / MAX — all monotone non-decreasing
  * in each input, so group bounds follow from per-mask bounds.
  */
sealed trait ScalarAgg extends Serializable {
  def exact(vs: Seq[Double]): Double

  /** The aggregate of the lower and of the upper bounds: exact because every
    * aggregate is monotone non-decreasing in each input.
    */
  final def bounds(bs: Seq[(Double, Double)]): (Double, Double) = (exact(bs.map(_._1)), exact(bs.map(_._2)))
}
case object SumAgg extends ScalarAgg {
  def exact(vs: Seq[Double]): Double = vs.sum
}
case object AvgAgg extends ScalarAgg {
  def exact(vs: Seq[Double]): Double = vs.sum / vs.size
}
case object MinAgg extends ScalarAgg {
  def exact(vs: Seq[Double]): Double = vs.min
}
case object MaxAgg extends ScalarAgg {
  def exact(vs: Seq[Double]): Double = vs.max
}

/** The value a group-level query computes per group (per image): either a
  * scalar aggregate of per-mask CP expressions (§3.4 scalar aggregation, the
  * paper's Q4) or CP over the INTERSECT-aggregated mask (§3.4 mask
  * aggregation, the paper's Q5).
  */
sealed trait GroupValue extends Serializable {

  /** Index-only bounds of each unit over `chi`, compiled once per query. */
  def bounder(chi: ChiRegistry): Bounder

  /** Exact value; `load` fetches a mask from disk (counted). */
  def exact(rows: Seq[CatalogRow], load: CatalogRow => Mask): Double
}

/** `expr` over a group of one mask: a per-mask query as a group query. An
  * unindexed mask gets the trivial bounds `[0, |roi|]` per term.
  */
final case class MaskValue(expr: CpExpr) extends GroupValue {
  def bounder(chi: ChiRegistry): Bounder = new Bounder {
    private val plan = new ExprPlan(expr, chi.masks)

    def apply(rows: Seq[CatalogRow]): Unit = { chi.masks.eval(plan, rows.head); lower = plan.lower; upper = plan.upper }
  }

  def exact(rows: Seq[CatalogRow], load: CatalogRow => Mask): Double = expr.exact(rows.head, load(rows.head))
}

/** `SCALAR_AGG(expr over each mask of the group)`. */
final case class ScalarAggValue(agg: ScalarAgg, expr: CpExpr) extends GroupValue {
  private val mask = MaskValue(expr)

  def bounder(chi: ChiRegistry): Bounder = new Bounder {
    private val plan = new ExprPlan(expr, chi.masks)

    def apply(rows: Seq[CatalogRow]): Unit = {
      val (l, u) = agg.bounds(rows.map { r => chi.masks.eval(plan, r); (plan.lower, plan.upper) })
      lower = l
      upper = u
    }
  }

  def exact(rows: Seq[CatalogRow], load: CatalogRow => Mask): Double =
    agg.exact(rows.map(r => mask.exact(Seq(r), load)))
}

/** `CP(INTERSECT(masks of the group), roi, range)` where INTERSECT is the
  * pixel-wise minimum (thresholding the min at t ≡ intersecting the
  * individually thresholded masks — the paper's Example 2).
  *
  * Bounds come from the aggregated mask's own CHI when the registry holds one
  * built from exactly the unit's masks (in its aggregate slab, under
  * `image_id` — the paper's primary path, where the index for aggregated
  * masks is built ahead of time, §3.4). A unit of only some of the image's
  * masks, as in a catalog filtered by model, has a larger INTERSECT than the
  * indexed one, so those bounds would be wrong for it. Otherwise they fall
  * back to the monotone mask-aggregation extension the paper sketches:
  * writing `cntGe(t)` for the pixels of the roi where *every* mask is ≥ t,
  * `cntGe(t) ≤ min_i CP_i([t,1))` and, by Bonferroni,
  * `cntGe(t) ≥ Σ_i CP_i([t,1)) − (n−1)·|roi|`; the query value is
  * `cntGe(lv) − cntGe(uv)`.
  */
final case class IntersectCpValue(roi: RoiSpec, range: ValueRange) extends GroupValue {

  def bounder(chi: ChiRegistry): Bounder = new Bounder {
    private val agg = new BoundPlan(chi.cfg, chi.aggregates.w, chi.aggregates.h, range)
    private def atLeast(t: Double) =
      Option.when(t < 1.0)(new BoundPlan(chi.cfg, chi.masks.w, chi.masks.h, ValueRange(t, 1.0)))
    private val geLv = atLeast(range.lv)
    private val geUv = atLeast(range.uv)

    /** Bounds on `cntGe(t)`, with `plan` bounding `CP_i([t, 1))` (none for t ≥ 1). */
    private def geBounds(rows: Seq[CatalogRow], area: Long, plan: Option[BoundPlan]): (Long, Long) = plan match {
      case None => (0L, 0L)
      case Some(p) =>
        var hi = Long.MaxValue
        var sumLo = 0L
        rows.foreach { r => chi.masks.eval(p, r.mask_id, roi, r); hi = math.min(hi, p.upper); sumLo += p.lower }
        val lo = math.max(0L, sumLo - (rows.size - 1) * area)
        (math.min(lo, hi), hi)
    }

    def apply(rows: Seq[CatalogRow]): Unit = {
      val head = rows.head
      if (chi.aggregates.builtFrom(head.image_id, rows)) {
        chi.aggregates.eval(agg, head.image_id, roi, head)
        lower = agg.lower.toDouble
        upper = agg.upper.toDouble
      } else {
        val area = roi.resolve(head).area
        val (loLv, hiLv) = geBounds(rows, area, geLv)
        val (loUv, hiUv) = geBounds(rows, area, geUv)
        val lo = math.max(0L, loLv - hiUv)
        val hi = math.max(lo, math.min(area, hiLv - loUv))
        lower = lo.toDouble
        upper = hi.toDouble
      }
    }
  }

  def exact(rows: Seq[CatalogRow], load: CatalogRow => Mask): Double = {
    val merged = Mask.intersect(rows.map(load))
    merged.cp(roi.resolve(rows.head), range).toDouble
  }
}

/** Group-level query results. */
final case class GroupFilterResult(groups: Array[Long], stats: QueryStats)
final case class GroupTopKResult(groups: Array[(Long, Double)], stats: QueryStats) {
  def groupIds: Array[Long] = groups.map(_._1)
}

/** Filter–verification execution for group-by-image queries (§3.4): the
  * [[Kernel]]'s policies with every image a unit. A group's bounds come from
  * the index alone; verifying a group loads *all* its masks (the exact group
  * value needs every member, matching the paper's Q4/Q5 load counts).
  */
object Aggregation {

  /** `HAVING value op T` over groups: every group bounded and classified on
    * the driver, then one job that loads and verifies the undecided groups.
    * Returns the qualifying image ids.
    */
  def filterGroups(
      catalog: DataFrame,
      value: GroupValue,
      op: CmpOp,
      threshold: Double,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): GroupFilterResult = {
    val (passed, stats) = Kernel.filter(Units.images(catalog), value, op, threshold, store, chi)
    GroupFilterResult(passed.map(_._1), stats)
  }

  /** Top-k groups by `value`: every group bounded on the driver, then each
    * verification round in one job over the groups it loads.
    */
  def topKGroups(
      catalog: DataFrame,
      value: GroupValue,
      k: Int,
      descending: Boolean,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): GroupTopKResult = {
    val (top, stats) = Kernel.topK(Units.images(catalog), value, k, descending, store, chi)
    GroupTopKResult(top.map { case ((img, _), v) => (img, v) }, stats)
  }
}
