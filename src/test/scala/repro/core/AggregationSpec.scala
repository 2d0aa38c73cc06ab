package repro.core

import repro.{SparkSpec, StageTasks, TestData}
import repro.baseline.ScanBaseline

/** Integration tests for scalar aggregation and mask aggregation (§3.4):
  * group filters and group top-k against the exhaustive baseline.
  */
class AggregationSpec extends SparkSpec {
  import TestData._

  private val meanCp = ScalarAggValue(AvgAgg, CpExpr.term(ObjectRoi, 0.8, 1.0))
  private val intersectCp = IntersectCpValue(ObjectRoi, ValueRange(0.8, 1.0))

  private def checkFilter(value: GroupValue, op: CmpOp, t: Double): GroupFilterResult = {
    val ms = Aggregation.filterGroups(catalog, value, op, t, store, chiBc)
    val base = ScanBaseline.filterGroups(catalog, value, op, t, store)
    assert(ms.groups.toSeq == base.groups.toSeq, s"group filter mismatch ($value $op $t)")
    assert(ms.stats.masksLoaded <= base.stats.masksLoaded)
    ms
  }

  private def checkTopK(value: GroupValue, k: Int, desc: Boolean): GroupTopKResult = {
    val ms = Aggregation.topKGroups(catalog, value, k, desc, store, chiBc)
    val base = ScanBaseline.topKGroups(catalog, value, k, desc, store)
    assert(ms.groupIds.toSeq == base.groupIds.toSeq, s"group top-$k mismatch ($value)")
    assert(ms.groups.map(_._2).toSeq == base.groups.map(_._2).toSeq)
    assert(ms.stats.masksLoaded <= base.stats.masksLoaded)
    assert(ms.stats.masksLoaded == ms.stats.nUncertain * ds.nModels, "only verified groups are loaded")
    ms
  }

  test("scalar aggregate bounds: interval sums per agg function") {
    val bs = Seq((1.0, 3.0), (2.0, 5.0))
    assert(SumAgg.bounds(bs) == ((3.0, 8.0)))
    assert(AvgAgg.bounds(bs) == ((1.5, 4.0)))
    assert(MinAgg.bounds(bs) == ((1.0, 3.0)))
    assert(MaxAgg.bounds(bs) == ((2.0, 5.0)))
    assert(SumAgg.exact(Seq(1, 2)) == 3.0)
    assert(AvgAgg.exact(Seq(1, 2)) == 1.5)
    assert(MinAgg.exact(Seq(1, 2)) == 1.0)
    assert(MaxAgg.exact(Seq(1, 2)) == 2.0)
  }

  test("mean-CP group filter (HAVING mean > T) matches the baseline") {
    checkFilter(meanCp, Gt, 30)
  }

  test("mean-CP group filter with < matches the baseline") {
    checkFilter(meanCp, Lt, 50)
  }

  test("sum-CP group filter matches the baseline") {
    checkFilter(ScalarAggValue(SumAgg, CpExpr.term(ObjectRoi, 0.6, 1.0)), Gt, 120)
  }

  test("min/max-CP group filters match the baseline") {
    checkFilter(ScalarAggValue(MinAgg, CpExpr.term(FullRoi, 0.7, 1.0)), Gt, 60)
    checkFilter(ScalarAggValue(MaxAgg, CpExpr.term(FullRoi, 0.7, 1.0)), Lt, 90)
  }

  test("top-25 images by mean CP (paper Q4 shape) matches the baseline") {
    val ms = checkTopK(meanCp, 25, desc = true)
    assert(ms.groups.length == 25)
    assert(ms.stats.masksLoaded < 2L * ds.nImages, "must not load every mask")
  }

  test("top-25 images by mean CP ascending matches the baseline") {
    checkTopK(meanCp, 25, desc = false)
  }

  test("top-k groups with k = 0 returns nothing and loads nothing") {
    val ms = checkTopK(meanCp, 0, desc = true)
    assert(ms.groups.isEmpty && ms.stats.masksLoaded == 0)
  }

  test("intersect-CP group bounds are sound (aggregate index and fallback)") {
    val noAgg = new ChiRegistry(cfg, registry.masks, ChiSlab.empty(cfg))
    val rows = repro.store.MaskStore.asRows(catalog).collect().groupBy(_.image_id)
    val (agg, fallback) = (intersectCp.bounder(registry), intersectCp.bounder(noAgg))
    rows.take(15).foreach { case (_, group) =>
      val rs = group.toSeq.sortBy(_.mask_id)
      val exact = intersectCp.exact(rs, r => store.loadPath(r.path))
      agg(rs)
      assert(agg.lower <= exact && exact <= agg.upper, s"agg path, group ${rs.head.image_id}: [${agg.lower},${agg.upper}] vs $exact")
      fallback(rs)
      assert(fallback.lower <= exact && exact <= fallback.upper,
        s"fallback, group ${rs.head.image_id}: [${fallback.lower},${fallback.upper}] vs $exact")
    }
  }

  test("intersect-CP group filter is correct with the per-model fallback bounds") {
    val noAggBc = ChiRegistry.broadcast(spark, new ChiRegistry(cfg, registry.masks, ChiSlab.empty(cfg)))
    val ms = Aggregation.filterGroups(catalog, intersectCp, Gt, 20, store, noAggBc)
    val base = ScanBaseline.filterGroups(catalog, intersectCp, Gt, 20, store)
    assert(ms.groups.toSeq == base.groups.toSeq)
  }

  test("intersect-CP group filter (paper Q5 shape) matches the baseline") {
    checkFilter(intersectCp, Gt, 20)
  }

  test("top-25 images by intersect-CP (paper Q5 as top-k) matches the baseline") {
    val ms = checkTopK(intersectCp, 25, desc = true)
    assert(ms.stats.masksLoaded < 2L * ds.nImages)
  }

  test("intersect-CP over a model-filtered catalog does not take the bounds of the all-model aggregate") {
    // Each unit holds only its image's model-1 mask, whose INTERSECT is larger
    // than the indexed one of both models' masks.
    for (t <- Seq(10.0, 20.0, 30.0)) {
      val ms = Aggregation.filterGroups(catalogM1, intersectCp, Gt, t, store, chiBc)
      val base = ScanBaseline.filterGroups(catalogM1, intersectCp, Gt, t, store)
      assert(ms.groups.toSeq == base.groups.toSeq, s"group filter mismatch at $t")
    }
    for (desc <- Seq(true, false)) {
      val ms = Aggregation.topKGroups(catalogM1, intersectCp, 10, desc, store, chiBc)
      val base = ScanBaseline.topKGroups(catalogM1, intersectCp, 10, desc, store)
      assert(ms.groups.toSeq == base.groups.toSeq, s"group top-k mismatch (descending = $desc)")
    }
  }

  test("group verification loads all masks of uncertain groups only") {
    val ms = Aggregation.filterGroups(catalog, meanCp, Gt, 30, store, chiBc)
    assert(ms.stats.masksLoaded == ms.stats.nUncertain * ds.nModels)
  }

  test("group verification loads masks in more than one task (no stage collapsed by AQE)") {
    val s2 = repro.store.MaskStore(spark, "target/testdata/unit")
    val (ms, tasks) = StageTasks.updating(spark, s2.loads)(Aggregation.filterGroups(catalog, meanCp, Gt, 30, s2, chiBc))
    assert(ms.stats.nUncertain > 1, "the query must leave several groups to verify")
    assert(tasks.nonEmpty, "no stage loaded masks")
    assert(tasks.forall(_ > 1), s"mask-loading stages ran ${tasks.mkString(", ")} task(s)")
  }

  test("group stats bookkeeping: groups = pruned + direct + uncertain") {
    val st = Aggregation.filterGroups(catalog, meanCp, Gt, 40, store, chiBc).stats
    assert(st.nTargeted == ds.nImages)
    assert(st.nTargeted == st.nPruned + st.nDirect + st.nUncertain)
  }
}
