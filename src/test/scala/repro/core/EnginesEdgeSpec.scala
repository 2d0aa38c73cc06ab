package repro.core

import repro.{SparkSpec, TestData}
import repro.baseline.ScanBaseline
import repro.store.{MaskDatasetDef, MaskStore}

/** Engine edge cases on a second dataset: non-square masks and three models
  * per image (the main fixture uses 2), exercising group arithmetic and ROI
  * handling off the square/2-model happy path.
  */
class EnginesEdgeSpec extends SparkSpec {

  private val ds = MaskDatasetDef("edge", nImages = 25, nModels = 3, w = 40, h = 24, seed = 13)
  private val cfg = ChiConfig(8, 8, 8)

  private lazy val (store, catalog) = MaskStore.materialize(spark, ds, "target/testdata/edge")
  private lazy val chiBc = ChiRegistry.broadcast(
    spark, ChiRegistry.buildWithAggregates(spark, catalog, store, cfg))

  test("non-square masks round-trip and index correctly") {
    val m = store.load(0)
    assert(m.w == 40 && m.h == 24)
    val idx = ChiIndex.build(m, cfg)
    assert(idx.hLookup(ChiIndex.nCells(40, 8), ChiIndex.nCells(24, 8), 0) == 40 * 24)
  }

  test("filter query on non-square masks matches the baseline") {
    val pred = Predicate(CpExpr.term(ConstRoi(Roi(5, 3, 36, 22)), 0.5, 1.0), Gt, 80)
    val ms = FilterVerify.execute(catalog, pred, store, chiBc)
    val base = ScanBaseline.filterMasks(catalog, pred, store)
    assert(ms.maskIds.toSeq == base.maskIds.toSeq)
  }

  test("object-ROI filter works when w != h") {
    val pred = Predicate(CpExpr.term(ObjectRoi, 0.6, 1.0), Gt, 15)
    val ms = FilterVerify.execute(catalog, pred, store, chiBc)
    val base = ScanBaseline.filterMasks(catalog, pred, store)
    assert(ms.maskIds.toSeq == base.maskIds.toSeq)
  }

  test("top-k on non-square masks matches the baseline") {
    val expr = CpExpr.term(ConstRoi(Roi(9, 9, 32, 16)), 0.4, 0.9)
    val ms = TopK.masks(catalog, expr, 10, descending = true, store, chiBc)
    val base = ScanBaseline.topKMasks(catalog, expr, 10, descending = true, store)
    assert(ms.maskIds.toSeq == base.maskIds.toSeq)
  }

  test("three-model group mean matches the baseline") {
    val value = ScalarAggValue(AvgAgg, CpExpr.term(ObjectRoi, 0.6, 1.0))
    val ms = Aggregation.topKGroups(catalog, value, 8, descending = true, store, chiBc)
    val base = ScanBaseline.topKGroups(catalog, value, 8, descending = true, store)
    assert(ms.groupIds.toSeq == base.groupIds.toSeq)
  }

  test("three-model INTERSECT aggregation matches the baseline") {
    val value = IntersectCpValue(ObjectRoi, ValueRange(0.5, 1.0))
    val ms = Aggregation.filterGroups(catalog, value, Gt, 10, store, chiBc)
    val base = ScanBaseline.filterGroups(catalog, value, Gt, 10, store)
    assert(ms.groups.toSeq == base.groups.toSeq)
  }

  test("three-model group verification loads 3 masks per uncertain group") {
    val value = ScalarAggValue(SumAgg, CpExpr.term(ObjectRoi, 0.6, 1.0))
    val res = Aggregation.filterGroups(catalog, value, Gt, 60, store, chiBc)
    assert(res.stats.masksLoaded == res.stats.nUncertain * 3)
  }

  test("incremental session on the edge dataset stays correct") {
    val rows = MaskStore.asRows(catalog).collect().toIndexedSeq.sortBy(_.mask_id)
    val s = new IncrementalSession(spark, store, cfg)
    val pred = Predicate(CpExpr.term(ObjectRoi, 0.5, 1.0), Gt, 20)
    val r1 = s.runFilter(rows, pred)
    val base = ScanBaseline.filterMasks(catalog, pred, store)
    assert(r1.maskIds.toSeq == base.maskIds.toSeq)
    val r2 = s.runFilter(rows, pred)
    assert(r2.maskIds.toSeq == base.maskIds.toSeq)
    assert(r2.stats.masksLoaded <= r1.stats.masksLoaded)
  }

  test("CHI with a cell larger than the mask is a single partial cell") {
    val m = store.load(1)
    val idx = ChiIndex.build(m, ChiConfig(64, 64, 4))
    assert(Fixtures.cHist(idx, Roi.full(40, 24))(0) == 40 * 24)
    val b = idx.bounds(Roi(2, 2, 10, 10), ValueRange(0.0, 1.0))
    assert(b.lower <= 81 && b.upper >= 81)
  }
}
