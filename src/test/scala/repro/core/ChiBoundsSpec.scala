package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tests for the CHI-derived CP bounds (§3.2.1, Eqs. 3–5 and their lower
  * mirrors), including the paper's Figure 6 worked example and randomized
  * soundness / tightness properties.
  */
class ChiBoundsSpec extends AnyFunSuite {
  import Fixtures._

  private lazy val fig4 = ChiIndex.build(fig4Mask, fig4Cfg)

  test("paper Figure 6: upper bound approaches give 8 and 7; θ̄ = 7") {
    val roi = Roi(3, 3, 5, 5)
    val range = ValueRange(0.5, 1.0)
    // Approach 1 on the outer region ((3,3),(6,6)).
    val cOuter = cHist(fig4, Roi(3, 3, 6, 6))
    assert(cOuter(1) - cOuter(2) == 8)
    // Approach 2 on the inner region ((3,3),(4,4)): 2 − 0 + 9 − 4 = 7.
    val cInner = cHist(fig4, Roi(3, 3, 4, 4))
    assert(cInner(1) - cInner(2) + roi.area - 4 == 7)
    assert(fig4.bounds(roi, range).upper == 7)
  }

  test("paper Figure 6 case: lower bound is sound and nontrivial") {
    val b = fig4.bounds(Roi(3, 3, 5, 5), ValueRange(0.5, 1.0))
    val exact = fig4Mask.cp(Roi(3, 3, 5, 5), ValueRange(0.5, 1.0))
    assert(exact == 6)
    assert(b.lower <= exact && exact <= b.upper)
    assert(b.lower > 0, "inner-region pixels ≥ 0.5 should give a positive lower bound")
  }

  test("bounds are exact for an available region and bin-aligned range") {
    val r = Roi(3, 3, 4, 6)
    val b = fig4.bounds(r, ValueRange(0.5, 1.0))
    assert(b.exact && b.lower == 5)
    val b2 = fig4.bounds(r, ValueRange(0.0, 1.0))
    assert(b2.exact && b2.lower == 8)
  }

  test("bounds never exceed the ROI area") {
    val b = fig4.bounds(Roi(2, 2, 3, 3), ValueRange(0.0, 1.0))
    assert(b.upper <= 4)
  }

  test("bounds for the full mask with full range are exact") {
    val b = fig4.bounds(Roi.full(6, 6), ValueRange(0.0, 1.0))
    assert(b.exact && b.lower == 36)
  }

  test("empty value range gives bounds [0, something small]") {
    val b = fig4.bounds(Roi(1, 1, 6, 6), ValueRange(0.3, 0.3))
    assert(b.lower == 0)
  }

  test("CpBounds rejects an inverted interval") {
    intercept[IllegalArgumentException](CpBounds(3, 2))
  }

  test("a pixel of 0.7f is binned below the 0.7 edge, as CP counts it (b=10)") {
    // 0.7f is 0.69999998 as a double: in [0.6, 0.7), not in [0.7, 0.8).
    val m = Mask(5, 16, 16, Array.fill(256)(0.7f))
    val idx = ChiIndex.build(m, ChiConfig(16, 16, 10))
    for (range <- Seq(ValueRange(0.7, 0.8), ValueRange(0.0, 0.7), ValueRange(0.6, 0.7))) {
      val exact = m.cp(Roi.full(16, 16), range)
      val b = idx.bounds(Roi.full(16, 16), range)
      assert(b.lower <= exact && exact <= b.upper, s"range=$range exact=$exact bounds=$b")
    }
    assert(m.cp(Roi.full(16, 16), ValueRange(0.7, 0.8)) == 0)
    assert(m.cp(Roi.full(16, 16), ValueRange(0.0, 0.7)) == 256)
  }

  // Soundness: lower ≤ exact ≤ upper for randomized masks/configs/queries.
  for ((w, h, cw, ch, bins) <- Seq(
      (16, 16, 4, 4, 8), (20, 20, 8, 8, 4), (15, 17, 4, 5, 16),
      (32, 32, 8, 8, 16), (10, 10, 2, 2, 2), (24, 18, 6, 6, 10),
      (9, 9, 4, 4, 3), (30, 30, 10, 10, 5), (300, 300, 64, 64, 4))) {
    test(s"bounds contain exact CP: mask ${w}x$h cell ${cw}x$ch b=$bins") {
      val r = new java.util.Random(w * 1000L + h * 10 + bins)
      val m = randomMask(1, w, h, w * 31L + h)
      val idx = ChiIndex.build(m, ChiConfig(cw, ch, bins))
      for (i <- 0 until 60) {
        val roi = randomRoi(r, w, h)
        val range = randomRange(r)
        val exact = m.cp(roi, range)
        val b = idx.bounds(roi, range)
        assert(b.lower <= exact && exact <= b.upper,
          s"iter $i roi=$roi range=$range exact=$exact bounds=$b")
        assert(b == referenceBounds(idx, roi, range), s"iter $i roi=$roi range=$range")
      }
    }
  }

  // Exactness when everything aligns with cells and bins.
  for ((w, cw, bins) <- Seq((16, 4, 4), (24, 8, 8), (32, 8, 16), (12, 4, 2), (20, 4, 10), (24, 6, 20), (300, 100, 4))) {
    test(s"aligned queries are exact: mask ${w}x$w cell $cw b=$bins") {
      val r = new java.util.Random(w + bins)
      val m = randomMask(2, w, w, w * 7L)
      val idx = ChiIndex.build(m, ChiConfig(cw, cw, bins))
      for (_ <- 0 until 30) {
        val nc = w / cw
        val i1 = r.nextInt(nc); val i2 = i1 + 1 + r.nextInt(nc - i1)
        val j1 = r.nextInt(nc); val j2 = j1 + 1 + r.nextInt(nc - j1)
        val roi = Roi(i1 * cw + 1, j1 * cw + 1, i2 * cw, j2 * cw)
        val b1 = r.nextInt(bins); val b2 = b1 + 1 + r.nextInt(bins - b1)
        val range = ValueRange(b1.toDouble / bins, b2.toDouble / bins)
        val bnd = idx.bounds(roi, range)
        assert(bnd.exact && bnd.lower == m.cp(roi, range), s"roi=$roi range=$range")
      }
    }
  }

  // Every float within ±64 ulps of every bin edge: the adversarial pixels for
  // a value-to-bin rule. Aligned ranges must give exact bounds over them, and
  // ranges with an edge at one of them must still contain the exact CP.
  for (bins <- Seq(5, 10, 16, 20)) {
    test(s"bin-edge sweep: ±64 ulps of every edge b=$bins") {
      val cfg = ChiConfig(4, 4, bins)
      val vs = ((0 to bins).flatMap { k =>
        val e = cfg.boundary(k).toFloat
        Iterator.iterate(e)(Math.nextDown).take(65) ++ Iterator.iterate(e)(Math.nextUp).slice(1, 65)
      } :+ -0.0f).filter(v => v >= 0f && v < 1f).distinct.toArray
      for (v <- vs) {
        val b = cfg.binOf(v)
        assert(cfg.boundary(b) <= v && v < cfg.boundary(b + 1), s"binOf($v) = $b")
      }
      val h = 16
      val w = (vs.length + h - 1) / h
      val m = Mask(6, w, h, Array.tabulate(w * h)(i => vs(i % vs.length)))
      val idx = ChiIndex.build(m, cfg)
      val aligned = Seq(Roi.full(w, h), Roi(5, 5, 8, 12), Roi(1, 9, 4 * (w / 4), 16))
      val unaligned = Seq(Roi(2, 3, w - 1, 14), Roi(3, 1, 3, 16))
      def check(roi: Roi, range: ValueRange, exact: Boolean): Unit = {
        val cp = m.cp(roi, range)
        val b = idx.bounds(roi, range)
        assert(b.lower <= cp && cp <= b.upper, s"roi=$roi range=$range exact=$cp bounds=$b")
        if (exact) assert(b.exact, s"roi=$roi range=$range exact=$cp bounds=$b")
      }
      for (i <- 0 until bins; j <- i + 1 to bins) {
        val range = ValueRange(cfg.boundary(i), cfg.boundary(j))
        aligned.foreach(check(_, range, exact = true))
        unaligned.foreach(check(_, range, exact = false))
      }
      for (v <- vs) {
        check(Roi.full(w, h), ValueRange(v.toDouble, 1.0), exact = false)
        check(Roi.full(w, h), ValueRange(0.0, v.toDouble), exact = false)
      }
    }
  }

  test("finer index gives bounds at least as tight (paper §4.4)") {
    val m = randomMask(3, 32, 32, seed = 99)
    val coarse = ChiIndex.build(m, ChiConfig(16, 16, 4))
    val fine = ChiIndex.build(m, ChiConfig(4, 4, 16))
    val r = new java.util.Random(5)
    var coarseWidth = 0L; var fineWidth = 0L
    for (_ <- 0 until 100) {
      val roi = randomRoi(r, 32, 32)
      val range = randomRange(r)
      val bc = coarse.bounds(roi, range)
      val bf = fine.bounds(roi, range)
      coarseWidth += bc.upper - bc.lower
      fineWidth += bf.upper - bf.lower
    }
    assert(fineWidth < coarseWidth)
  }

  test("bounds on a mask-sized sub-cell ROI fall back to [0, area]") {
    val m = randomMask(4, 20, 20, seed = 6)
    val idx = ChiIndex.build(m, ChiConfig(10, 10, 4))
    val b = idx.bounds(Roi(2, 2, 5, 5), ValueRange(0.31, 0.47))
    assert(b.lower >= 0 && b.upper <= 16)
  }
}
