package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame

import repro.store.{CatalogRow, MaskStore}

/** A scalar aggregation function over the CP values of a group of masks
  * (§3.4, `SCALAR_AGG`): SUM / AVG / MIN / MAX — all monotone in each input,
  * so group bounds follow from per-mask bounds.
  */
sealed trait ScalarAgg extends Serializable {
  def exact(vs: Seq[Double]): Double
  def bounds(bs: Seq[(Double, Double)]): (Double, Double)
}
case object SumAgg extends ScalarAgg {
  def exact(vs: Seq[Double]): Double = vs.sum
  def bounds(bs: Seq[(Double, Double)]): (Double, Double) = (bs.map(_._1).sum, bs.map(_._2).sum)
}
case object AvgAgg extends ScalarAgg {
  def exact(vs: Seq[Double]): Double = vs.sum / vs.size
  def bounds(bs: Seq[(Double, Double)]): (Double, Double) =
    (bs.map(_._1).sum / bs.size, bs.map(_._2).sum / bs.size)
}
case object MinAgg extends ScalarAgg {
  def exact(vs: Seq[Double]): Double = vs.min
  def bounds(bs: Seq[(Double, Double)]): (Double, Double) = (bs.map(_._1).min, bs.map(_._2).min)
}
case object MaxAgg extends ScalarAgg {
  def exact(vs: Seq[Double]): Double = vs.max
  def bounds(bs: Seq[(Double, Double)]): (Double, Double) = (bs.map(_._1).max, bs.map(_._2).max)
}

/** The value a group-level query computes per group (per image): either a
  * scalar aggregate of per-mask CP expressions (§3.4 scalar aggregation, the
  * paper's Q4) or CP over the INTERSECT-aggregated mask (§3.4 mask
  * aggregation, the paper's Q5).
  */
sealed trait GroupValue extends Serializable {

  /** Index-only bounds for a group given its catalog rows. */
  def bounds(rows: Seq[CatalogRow], chi: ChiRegistry): (Double, Double)

  /** Exact value; `load` fetches a mask from disk (counted). */
  def exact(rows: Seq[CatalogRow], load: CatalogRow => Mask): Double
}

/** `expr` over a group of one mask: a per-mask query as a group query. An
  * unindexed mask gets the trivial bounds `[0, |roi|]` per term.
  */
final case class MaskValue(expr: CpExpr) extends GroupValue {
  def bounds(rows: Seq[CatalogRow], chi: ChiRegistry): (Double, Double) =
    Predicate.rowBounds(expr, rows.head, chi.get(rows.head.mask_id))

  def exact(rows: Seq[CatalogRow], load: CatalogRow => Mask): Double = expr.exact(rows.head, load(rows.head))
}

/** `SCALAR_AGG(expr over each mask of the group)`. */
final case class ScalarAggValue(agg: ScalarAgg, expr: CpExpr) extends GroupValue {
  private val mask = MaskValue(expr)

  def bounds(rows: Seq[CatalogRow], chi: ChiRegistry): (Double, Double) =
    agg.bounds(rows.map(r => mask.bounds(Seq(r), chi)))

  def exact(rows: Seq[CatalogRow], load: CatalogRow => Mask): Double =
    agg.exact(rows.map(r => mask.exact(Seq(r), load)))
}

/** `CP(INTERSECT(masks of the group), roi, range)` where INTERSECT is the
  * pixel-wise minimum (thresholding the min at t ≡ intersecting the
  * individually thresholded masks — the paper's Example 2).
  *
  * Bounds come from the aggregated mask's own CHI when the registry holds one
  * (under `ChiRegistry.AggIdBase + image_id` — the paper's primary path,
  * where the index for aggregated masks is built ahead of time, §3.4).
  * Otherwise they fall back to the monotone mask-aggregation extension the
  * paper sketches: writing `cntGe(t)` for the pixels of the roi where *every*
  * mask is ≥ t, `cntGe(t) ≤ min_i CP_i([t,1))` and, by Bonferroni,
  * `cntGe(t) ≥ Σ_i CP_i([t,1)) − (n−1)·|roi|`; the query value is
  * `cntGe(lv) − cntGe(uv)`.
  */
final case class IntersectCpValue(roi: RoiSpec, range: ValueRange) extends GroupValue {

  private def geBounds(rows: Seq[CatalogRow], chi: ChiRegistry, t: Double): (Long, Long) = {
    val r0 = roi.resolve(rows.head)
    val area = r0.area
    if (t >= 1.0) return (0L, 0L)
    val per = rows.map(row => ChiIndex.boundsOrTrivial(chi.get(row.mask_id), roi.resolve(row), ValueRange(t, 1.0)))
    val hi = per.map(_.upper).min
    val lo = math.max(0L, per.map(_.lower).sum - (rows.size - 1) * area)
    (math.min(lo, hi), hi)
  }

  def bounds(rows: Seq[CatalogRow], chi: ChiRegistry): (Double, Double) =
    chi.get(ChiRegistry.AggIdBase + rows.head.image_id) match {
      case Some(aggIdx) =>
        val b = aggIdx.bounds(roi.resolve(rows.head), range)
        (b.lower.toDouble, b.upper.toDouble)
      case None =>
        val area = roi.resolve(rows.head).area
        val (loLv, hiLv) = geBounds(rows, chi, range.lv)
        val (loUv, hiUv) = geBounds(rows, chi, range.uv)
        val lo = math.max(0L, loLv - hiUv)
        val hi = math.max(lo, math.min(area, hiLv - loUv))
        (lo.toDouble, hi.toDouble)
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

  /** `HAVING value op T` over groups, bounds and verification fused in one
    * job. Returns the qualifying image ids.
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

  /** Top-k groups by `value`: the bounds in one job, then each verification
    * round in another over the groups it loads.
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
