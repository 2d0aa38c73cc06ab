package repro.core

import repro.{SparkSpec, StageTasks, TestData}
import repro.baseline.ScanBaseline

/** Integration tests for the filter–verification executor (§3.2): result
  * equality with the exhaustive scan baseline, load accounting, and the
  * Case 1/2/3 bookkeeping, across predicate shapes.
  */
class FilterVerifySpec extends SparkSpec {
  import TestData._

  private def check(pred: Predicate): Unit = {
    val ms = FilterVerify.execute(catalogM1, pred, store, chiBc)
    val base = ScanBaseline.filterMasks(catalogM1, pred, store)
    assert(ms.maskIds.toSeq == base.maskIds.toSeq, s"result mismatch for $pred")
    // Stats bookkeeping.
    val st = ms.stats
    assert(st.nTargeted == st.nPruned + st.nDirect + st.nUncertain)
    assert(st.masksLoaded == st.nUncertain, "verification loads exactly the uncertain masks")
    assert(st.masksLoaded <= base.stats.masksLoaded)
  }

  test("constant-ROI filter (paper Q1 shape) matches the baseline") {
    check(Predicate(CpExpr.term(ConstRoi(Roi(8, 8, 28, 28)), 0.6, 1.0), Gt, 60))
  }

  test("per-mask object-ROI filter (paper Q2 shape) matches the baseline") {
    check(Predicate(CpExpr.term(ObjectRoi, 0.8, 1.0), Gt, 40))
  }

  test("full-mask ROI filter matches the baseline") {
    check(Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Gt, 150))
  }

  test("cp < T predicate (§3.3) matches the baseline") {
    check(Predicate(CpExpr.term(ConstRoi(Roi(4, 4, 30, 30)), 0.5, 1.0), Lt, 100))
  }

  test("generic two-term predicate (§3.3) matches the baseline") {
    val e = CpSub(CpExpr.term(ObjectRoi, 0.6, 1.0), CpScale(0.5, CpExpr.term(FullRoi, 0.6, 1.0)))
    check(Predicate(e, Gt, 0))
  }

  test("sum of two value ranges matches the baseline") {
    val e = CpAdd(CpExpr.term(ObjectRoi, 0.3, 0.5), CpExpr.term(ObjectRoi, 0.7, 0.9))
    check(Predicate(e, Gt, 30))
  }

  test("trivially-true predicate returns everything with zero loads") {
    val res = FilterVerify.execute(catalogM1, Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, -1), store, chiBc)
    assert(res.rows.length == ds.nImages)
    assert(res.stats.masksLoaded == 0, "full-range bound is exact; nothing to verify")
  }

  test("trivially-false predicate prunes everything with zero loads") {
    val area = ds.w.toLong * ds.h
    val res = FilterVerify.execute(catalogM1, Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, (area + 1).toDouble), store, chiBc)
    assert(res.rows.isEmpty && res.stats.masksLoaded == 0)
  }

  test("filter stage prunes a large fraction for a selective predicate") {
    val pred = Predicate(CpExpr.term(ObjectRoi, 0.8, 1.0), Gt, 50)
    val res = FilterVerify.execute(catalogM1, pred, store, chiBc)
    assert(res.stats.fml < 0.8, s"expected pruning, got FML ${res.stats.fml}")
  }

  test("targeting the full catalog (both models) works") {
    check(Predicate(CpExpr.term(ObjectRoi, 0.7, 1.0), Gt, 25))
  }

  test("empty registry degrades to verify-everything but stays correct") {
    val emptyBc = ChiRegistry.broadcast(spark, ChiRegistry.empty(cfg))
    val pred = Predicate(CpExpr.term(ObjectRoi, 0.6, 1.0), Gt, 30)
    val ms = FilterVerify.execute(catalogM1, pred, store, emptyBc)
    val base = ScanBaseline.filterMasks(catalogM1, pred, store)
    assert(ms.maskIds.toSeq == base.maskIds.toSeq)
  }

  // Randomized equivalence sweep (the §4.3 Filter query distribution).
  for (seed <- 0 until 8) {
    test(s"randomized filter query matches the baseline (seed=$seed)") {
      val r = new scala.util.Random(seed)
      val pred = repro.workload.Workloads.randomFilterPredicate(r, ds.w.toLong * ds.h)
      check(pred)
    }
  }

  test("per-mask units load their masks in one job, in one stage of several tasks") {
    val s2 = repro.store.MaskStore(spark, "target/testdata/unit")
    val pred = Predicate(CpExpr.term(ObjectRoi, 0.8, 1.0), Gt, 40)
    val sc = spark.sparkContext
    sc.setJobGroup("filter-verify-stages", "FilterVerify.execute")
    val (ms, tasks) =
      try StageTasks.updating(spark, s2.loads)(FilterVerify.execute(catalogM1, pred, s2, chiBc))
      finally sc.clearJobGroup()
    assert(ms.stats.masksLoaded > 1, "the query must leave several masks to verify")
    assert(tasks.size == 1 && tasks.head > 1, s"mask-loading stages ran ${tasks.mkString(", ")} task(s)")
    assert(sc.statusTracker.getJobIdsForGroup("filter-verify-stages").length == 1, "one job per query")
  }

  test("boundsPerMask covers every targeted mask and is sound") {
    val e = CpExpr.term(ObjectRoi, 0.6, 1.0)
    val bounds = FilterVerify.boundsPerMask(catalogM1, e, chiBc).toMap2
    assert(bounds.size == ds.nImages)
    // Spot-check soundness against exact values for a few masks.
    catalogM1.limit(5).collect().foreach { row =>
      val id = row.getAs[Long]("mask_id")
      val m = store.load(id)
      val roi = Roi(row.getAs[Int]("ox1"), row.getAs[Int]("oy1"), row.getAs[Int]("ox2"), row.getAs[Int]("oy2"))
      val exact = m.cp(roi, ValueRange(0.6, 1.0)).toDouble
      val (lo, hi) = bounds(id)
      assert(lo <= exact && exact <= hi)
    }
  }

  private implicit class Tuple3Ops(arr: Array[(Long, Double, Double)]) {
    def toMap2: Map[Long, (Double, Double)] = arr.map { case (id, lo, hi) => id -> (lo, hi) }.toMap
  }
}
