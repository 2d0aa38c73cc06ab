package repro.core

import repro.{SparkSpec, TestData}
import repro.baseline.ScanBaseline

/** Integration tests for bound-pruned top-k (§3.5) against the baseline. */
class TopKSpec extends SparkSpec {
  import TestData._

  private def check(expr: CpExpr, k: Int, descending: Boolean): TopKResult = {
    val ms = TopK.masks(catalogM1, expr, k, descending, store, chiBc)
    val base = ScanBaseline.topKMasks(catalogM1, expr, k, descending, store)
    assert(ms.maskIds.toSeq == base.maskIds.toSeq, s"top-$k desc=$descending mismatch")
    assert(ms.rows.map(_._2).toSeq == base.rows.map(_._2).toSeq, "values mismatch")
    assert(ms.stats.masksLoaded <= base.stats.masksLoaded)
    assert(ms.stats.masksLoaded == ms.stats.nUncertain, "only verified masks are loaded")
    ms
  }

  test("top-25 by constant-ROI CP descending (paper Q3 shape)") {
    val ms = check(CpExpr.term(ConstRoi(Roi(8, 8, 28, 28)), 0.8, 1.0), 25, descending = true)
    assert(ms.stats.masksLoaded < ds.nImages, "pruning must load fewer than all masks")
  }

  test("top-25 ascending (ORDER BY ... ASC)") {
    check(CpExpr.term(ConstRoi(Roi(8, 8, 28, 28)), 0.8, 1.0), 25, descending = false)
  }

  test("top-5 by object-ROI CP") {
    check(CpExpr.term(ObjectRoi, 0.7, 1.0), 5, descending = true)
  }

  test("top-k with k = 1") {
    check(CpExpr.term(ObjectRoi, 0.5, 1.0), 1, descending = true)
  }

  test("top-k with k = 0 returns nothing and loads nothing") {
    val ms = check(CpExpr.term(ObjectRoi, 0.5, 1.0), 0, descending = true)
    assert(ms.rows.isEmpty && ms.stats.masksLoaded == 0)
  }

  test("k larger than the dataset returns everything, ordered") {
    val ms = check(CpExpr.term(FullRoi, 0.6, 1.0), ds.nImages + 50, descending = true)
    assert(ms.rows.length == ds.nImages)
  }

  test("results are sorted by value with mask_id tie-break") {
    val ms = TopK.masks(catalogM1, CpExpr.term(FullRoi, 0.5, 1.0), 20, descending = true, store, chiBc)
    val vals = ms.rows.map(_._2)
    assert(vals.zip(vals.tail).forall { case (a, b) => a >= b })
  }

  test("ratio-style expression top-k (Example 1's ORDER BY r ASC)") {
    // CP(obj, hi) − CP(full, hi) ranks "how concentrated" saliency is; the
    // monotone-combination bound machinery must stay sound for it.
    val e = CpSub(CpExpr.term(ObjectRoi, 0.7, 1.0), CpExpr.term(FullRoi, 0.7, 1.0))
    check(e, 10, descending = false)
  }

  for (seed <- 0 until 5) {
    test(s"randomized top-k matches baseline (seed=$seed)") {
      val r = new scala.util.Random(100 + seed)
      val x1 = 1 + r.nextInt(16); val y1 = 1 + r.nextInt(16)
      val roi = Roi(x1, y1, x1 + 8 + r.nextInt(ds.w - x1 - 8), y1 + 8 + r.nextInt(ds.h - y1 - 8))
      val lv = 0.1 * (1 + r.nextInt(8))
      val expr = CpExpr.term(ConstRoi(roi), lv, math.min(1.0, lv + 0.1 * (1 + r.nextInt(5))))
      check(expr, 25, r.nextBoolean())
    }
  }
}
