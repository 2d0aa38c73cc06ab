package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests for the Cumulative Histogram Index (§3.1): construction, the
  * paper's Figure 4 worked example, available regions, and `C` (Eq. 2).
  */
class ChiIndexSpec extends AnyFunSuite {
  import Fixtures._

  private lazy val fig4 = ChiIndex.build(fig4Mask, fig4Cfg)

  test("boundaries cover the dimension, including a partial last cell") {
    assert(ChiIndex.boundaries(6, 2).toSeq == Seq(0, 2, 4, 6))
    assert(ChiIndex.boundaries(7, 2).toSeq == Seq(0, 2, 4, 6, 7))
    assert(ChiIndex.boundaries(5, 5).toSeq == Seq(0, 5))
    assert(ChiIndex.boundaries(5, 8).toSeq == Seq(0, 5))
  }

  test("nCells rounds up") {
    assert(ChiIndex.nCells(6, 2) == 3 && ChiIndex.nCells(7, 2) == 4 && ChiIndex.nCells(5, 8) == 1)
  }

  test("boundary search helpers") {
    val bs = Array(0, 2, 4, 6)
    assert(ChiIndex.boundaryIndex(bs, 4) == 2)
    assert(ChiIndex.boundaryIndex(bs, 3) == -1)
    assert(ChiIndex.largestLeq(bs, 5) == 4)
    assert(ChiIndex.largestLeq(bs, 6) == 6)
    assert(ChiIndex.smallestGeq(bs, 5) == 6)
    assert(ChiIndex.smallestGeq(bs, 0) == 0)
  }

  test("paper Figure 4: H(M,1,1) = [4, 0]") {
    assert(fig4.hLookup(1, 1, 0) == 4)
    assert(fig4.hLookup(1, 1, 1) == 0)
  }

  test("paper Figure 4: H(M,2,2) = [16, 3]") {
    assert(fig4.hLookup(2, 2, 0) == 16)
    assert(fig4.hLookup(2, 2, 1) == 3)
  }

  test("paper Figure 4: H(M,3,3) covers the whole mask") {
    assert(fig4.hLookup(3, 3, 0) == 36)
    // Values ≥ 0.5 in the whole mask: seven 0.8s + two 0.6s = 9 pixels.
    assert(fig4.hLookup(3, 3, 1) == 9)
  }

  test("H with a zero spatial index is 0 (empty rectangle)") {
    assert(fig4.hLookup(0, 2, 0) == 0 && fig4.hLookup(2, 0, 1) == 0)
  }

  test("paper Figure 4: ((3,3),(4,6)) is an available region; ((4,4),(5,5)) is not") {
    assert(fig4.isAvailable(Roi(3, 3, 4, 6)))
    assert(!fig4.isAvailable(Roi(4, 4, 5, 5)))
  }

  test("the full mask is always an available region") {
    assert(fig4.isAvailable(Roi.full(6, 6)))
  }

  test("paper Figure 4: C(M, ((3,3),(4,6))) = [8, 5, 0]") {
    val c = fig4.cHist(Roi(3, 3, 4, 6))
    assert(c.toSeq == Seq(8, 5, 0))
  }

  test("cHist rejects non-available regions") {
    intercept[IllegalArgumentException](fig4.cHist(Roi(4, 4, 5, 5)))
  }

  test("paper Figure 6: outer region of ((3,3),(5,5)) is ((3,3),(6,6))") {
    assert(fig4.outerRegion(Roi(3, 3, 5, 5)) == Roi(3, 3, 6, 6))
  }

  test("paper Figure 6: inner region of ((3,3),(5,5)) is ((3,3),(4,4))") {
    assert(fig4.innerRegion(Roi(3, 3, 5, 5)).contains(Roi(3, 3, 4, 4)))
  }

  test("inner region is empty for a sub-cell ROI") {
    assert(fig4.innerRegion(Roi(2, 2, 2, 2)).isEmpty)
  }

  test("outer/inner regions of an available region are itself") {
    val r = Roi(3, 3, 4, 6)
    assert(fig4.outerRegion(r) == r)
    assert(fig4.innerRegion(r).contains(r))
  }

  test("index size accounting") {
    // 3×3 corner cells × 2 bins × 4 bytes.
    assert(fig4.sizeBytes == 3L * 3 * 2 * 4)
    assert(fig4Cfg.sizeBytes(6, 6) == fig4.sizeBytes)
  }

  // cHist vs brute force on every available region of randomized masks,
  // including non-divisible mask dimensions (partial last cells).
  for ((w, h, cw, ch, bins, seed) <- Seq(
      (8, 8, 2, 2, 4, 1), (9, 7, 2, 3, 5, 2), (16, 16, 4, 4, 8, 3),
      (10, 10, 3, 3, 2, 4), (7, 13, 5, 4, 16, 5), (6, 6, 6, 6, 3, 6),
      (12, 5, 4, 2, 7, 7), (11, 11, 4, 4, 6, 8))) {
    test(s"cHist matches brute force on all available regions (${w}x$h cell=${cw}x$ch b=$bins)") {
      val m = randomMask(seed, w, h, seed * 1000L)
      val cfg = ChiConfig(cw, ch, bins)
      val idx = ChiIndex.build(m, cfg)
      val xb = ChiIndex.boundaries(w, cw)
      val yb = ChiIndex.boundaries(h, ch)
      for {
        i1 <- xb.indices.dropRight(1); i2 <- xb.indices if xb(i2) > xb(i1)
        j1 <- yb.indices.dropRight(1); j2 <- yb.indices if yb(j2) > yb(j1)
      } {
        val r = Roi(xb(i1) + 1, yb(j1) + 1, xb(i2), yb(j2))
        assert(idx.isAvailable(r), s"$r should be available")
        val c = idx.cHist(r)
        for (b <- 0 until bins) {
          val expected = bruteCp(m, r, ValueRange(b.toDouble / bins, 1.0))
          assert(c(b) == expected, s"region $r bin $b")
        }
        assert(c(bins) == 0)
      }
    }
  }

  test("build cost: index of an all-zero mask is all zero except bin 0") {
    val m = Mask(1, 8, 8, Array.fill(64)(0.0f))
    val idx = ChiIndex.build(m, ChiConfig(4, 4, 4))
    assert(idx.hLookup(2, 2, 0) == 64)
    assert(idx.hLookup(2, 2, 1) == 0)
  }

  test("values at bin boundaries land in the correct bin") {
    // 0.5 with b=2 belongs to bin 1 ([0.5, 1)) — reverse cumulative at bin 1 counts it.
    val m = Mask(1, 2, 2, Array(0.5f, 0.49999f, 0.0f, 0.999f))
    val idx = ChiIndex.build(m, ChiConfig(2, 2, 2))
    assert(idx.hLookup(1, 1, 1) == 2) // 0.5 and 0.999
    assert(idx.hLookup(1, 1, 0) == 4)
  }

  test("build rejects NaN and pixel values outside [0, 1)") {
    for (bad <- Seq(Float.NaN, 1.0f, 1.5f, -0.1f)) {
      val m = Mask(3, 2, 2, Array(0.2f, bad, 0.4f, 0.6f))
      val e = intercept[IllegalArgumentException](ChiIndex.build(m, ChiConfig(2, 2, 4)))
      assert(e.getMessage.contains("outside [0, 1)"), e.getMessage)
    }
  }
}
