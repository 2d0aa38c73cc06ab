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

/** `SCALAR_AGG(expr over each mask of the group)`. */
final case class ScalarAggValue(agg: ScalarAgg, expr: CpExpr) extends GroupValue {
  def bounds(rows: Seq[CatalogRow], chi: ChiRegistry): (Double, Double) =
    agg.bounds(rows.map(r => Predicate.rowBounds(expr, r, chi.get(r.mask_id))))

  def exact(rows: Seq[CatalogRow], load: CatalogRow => Mask): Double =
    agg.exact(rows.map { r =>
      val m = load(r)
      expr.eval(t => m.cp(t.roi.resolve(r), t.range))
    })
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
    val per = rows.map { row =>
      val rr = roi.resolve(row)
      chi.get(row.mask_id) match {
        case Some(idx) => idx.bounds(rr, ValueRange(t, 1.0))
        case None      => CpBounds(0L, rr.area)
      }
    }
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
  * filter stage classifies whole groups from index-only group bounds; the
  * verification stage loads *all* masks of the surviving groups (the exact
  * group value needs every member, matching the paper's Q4/Q5 load counts).
  */
object Aggregation {

  /** Per-group bounds from the index alone (no loads). */
  private def groupBounds(
      groups: ImageGroups,
      value: GroupValue,
      chi: Broadcast[ChiRegistry],
  ): Array[(Long, Double, Double, Int)] =
    groups.map { (img, rows) =>
      val (lo, hi) = value.bounds(rows, chi.value)
      (img, lo, hi, rows.size)
    }

  /** Exact group values for the given group ids (loads every member mask). */
  private def verifyGroups(
      groups: ImageGroups,
      value: GroupValue,
      groupIds: Set[Long],
      store: MaskStore,
  ): Array[(Long, Double)] =
    groups.filter(groupIds).map((img, rows) => (img, value.exact(rows, r => store.loadPath(r.path))))

  /** `HAVING value op T` over groups. Returns the qualifying image ids. */
  def filterGroups(
      catalog: DataFrame,
      value: GroupValue,
      op: CmpOp,
      threshold: Double,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): GroupFilterResult = {
    val loadsBefore = store.loads.value
    val t0 = System.nanoTime()
    val pred = Predicate(CpExpr.term(FullRoi, 0, 1), op, threshold) // classify() only
    val groups = ImageGroups(catalog)
    val gb = groupBounds(groups, value, chi)

    val direct = gb.collect { case (g, lo, hi, _) if pred.classify(lo, hi) == FilterOutcome.Pass => g }
    val uncertain = gb.collect { case (g, lo, hi, _) if pred.classify(lo, hi) == FilterOutcome.Uncertain => g }
    val nPruned = gb.length - direct.length - uncertain.length

    val verified = verifyGroups(groups, value, uncertain.toSet, store).collect {
      case (g, v) if (op == Gt && v > threshold) || (op == Lt && v < threshold) => g
    }

    GroupFilterResult(
      (direct ++ verified).sorted,
      QueryStats(
        nTargeted = gb.length,
        nPruned = nPruned,
        nDirect = direct.length,
        nUncertain = uncertain.length,
        masksLoaded = store.loads.value - loadsBefore,
        elapsedMs = (System.nanoTime() - t0) / 1_000_000,
      ),
    )
  }

  /** Top-k groups by `value` (two-phase variant of §3.5, as in [[TopK]]:
    * seed with the k groups ranked best by bound, take τ from their exact
    * values, prune the rest against τ).
    */
  def topKGroups(
      catalog: DataFrame,
      value: GroupValue,
      k: Int,
      descending: Boolean,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): GroupTopKResult = {
    val loadsBefore = store.loads.value
    val t0 = System.nanoTime()
    val groups = ImageGroups(catalog)
    val gb = groupBounds(groups, value, chi)

    // Point bounds pin a group's exact value from the index alone — no load.
    def resolve(bounded: Array[(Long, Double, Double, Int)]): Array[(Long, Double)] = {
      val (known, unknown) = bounded.partition(g => g._2 == g._3)
      known.map(g => (g._1, g._2)) ++ verifyGroups(groups, value, unknown.map(_._1).toSet, store)
    }

    val exact: Array[(Long, Double)] =
      if (gb.length <= k) resolve(gb)
      else {
        val ranked =
          if (descending) gb.sortBy { case (g, _, hi, _) => (-hi, g) }
          else gb.sortBy { case (g, lo, _, _) => (lo, g) }
        val seed = resolve(ranked.take(k))
        val tau =
          if (descending) seed.map(_._2).sorted(Ordering[Double].reverse).apply(k - 1)
          else seed.map(_._2).sorted.apply(k - 1)
        val rest = ranked.drop(k)
        val candidates =
          if (descending) rest.filter { case (_, _, hi, _) => hi >= tau }
          else rest.filter { case (_, lo, _, _) => lo <= tau }
        seed ++ resolve(candidates)
      }

    val ordered =
      if (descending) exact.sortBy { case (g, v) => (-v, g) }
      else exact.sortBy { case (g, v) => (v, g) }

    GroupTopKResult(
      ordered.take(k),
      QueryStats(
        nTargeted = gb.length,
        nPruned = gb.length - exact.length,
        nDirect = 0,
        nUncertain = exact.length,
        masksLoaded = store.loads.value - loadsBefore,
        elapsedMs = (System.nanoTime() - t0) / 1_000_000,
      ),
    )
  }
}
