package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.core._

/** Unit tests for the benchmark harness utilities and the Table 1 query
  * definitions (no Spark, no data).
  */
class HarnessUnitSpec extends AnyFunSuite {

  test("pearson of a perfect linear relation is 1") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0)
    assert(math.abs(Harness.pearson(xs, xs.map(_ * 3 + 1)) - 1.0) < 1e-9)
  }

  test("pearson of an inverse relation is -1") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0)
    assert(math.abs(Harness.pearson(xs, xs.map(-_)) + 1.0) < 1e-9)
  }

  test("pearson of a constant series is 0") {
    assert(Harness.pearson(Seq(1.0, 2.0, 3.0), Seq(5.0, 5.0, 5.0)) == 0.0)
  }

  test("dist reports order statistics") {
    val d = Harness.dist(Seq(5L, 1L, 9L, 3L, 7L))
    assert(d.min == 1 && d.median == 5 && d.max == 9)
    assert(d.p25 == 3 && d.p75 == 7)
  }

  test("dist of a single element") {
    val d = Harness.dist(Seq(4L))
    assert(d == Harness.Dist(4, 4, 4, 4, 4))
  }

  test("Table 1 queries: five queries with the paper's shapes") {
    for (bd <- BenchData.all) {
      val qs = Queries.forDataset(bd, Queries.paperSideFor(bd))
      assert(qs.map(_.id) == Seq("Q1", "Q2", "Q3", "Q4", "Q5"))
      assert(qs(0).isInstanceOf[Queries.FilterQuery])
      assert(qs(1).isInstanceOf[Queries.FilterQuery])
      assert(qs(2).isInstanceOf[Queries.TopKQuery])
      assert(qs(3).isInstanceOf[Queries.GroupTopKQuery])
      assert(qs(4).isInstanceOf[Queries.GroupTopKQuery])
    }
  }

  test("Q1 ROI is the paper's box scaled to the lite mask and stays in bounds") {
    for (bd <- BenchData.all) {
      val q1 = Queries.forDataset(bd, Queries.paperSideFor(bd)).head.asInstanceOf[Queries.FilterQuery]
      val CpTermExpr(t) = q1.pred.expr: @unchecked
      val roi = t.roi.asInstanceOf[ConstRoi].roi
      assert(roi.within(bd.ds.w, bd.ds.h))
      assert(t.range == ValueRange(0.6, 1.0))
      assert(q1.pred.op == Gt)
    }
  }

  test("Q4 is mean-aggregation, Q5 is INTERSECT, both top-25 descending") {
    for (bd <- BenchData.all) {
      val qs = Queries.forDataset(bd, Queries.paperSideFor(bd))
      val q4 = qs(3).asInstanceOf[Queries.GroupTopKQuery]
      val q5 = qs(4).asInstanceOf[Queries.GroupTopKQuery]
      assert(q4.value.isInstanceOf[ScalarAggValue] && q4.k == 25 && q4.descending)
      assert(q5.value.isInstanceOf[IntersectCpValue] && q5.k == 25 && q5.descending)
    }
  }

  test("bench dataset definitions match the documented geometry") {
    assert(BenchData.wilds.ds.w == 112 && BenchData.wilds.cfg == ChiConfig(16, 16, 20))
    assert(BenchData.imagenet.ds.w == 56 && BenchData.imagenet.cfg == ChiConfig(8, 8, 10))
    // Index ratio: the documented worst-case packed sizes, 7×7 cells × bins 1…b−1 at the bit length
    // of w·h, padded to whole words, plus the header: WILDS-lite 931 × 14 bits = 204 words and two
    // header words (19 widths), ImageNet-lite 441 × 12 bits = 83 words and one (3.3% and 5.4% of raw).
    assert(BenchData.wilds.indexRatio == 206.0 * 8 / (112 * 112 * 4))
    assert(BenchData.imagenet.indexRatio == 84.0 * 8 / (56 * 56 * 4))
  }

  test("paperSideFor maps the lite datasets to the paper's mask sides") {
    assert(Queries.paperSideFor(BenchData.wilds) == 448)
    assert(Queries.paperSideFor(BenchData.imagenet) == 224)
  }
}
