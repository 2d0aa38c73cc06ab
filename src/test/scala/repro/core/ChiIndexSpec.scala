package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests for the Cumulative Histogram Index (§3.1): construction, the
  * paper's Figure 4 worked example, and the reference definitions of
  * available regions and `C` (Eq. 2) that [[Fixtures]] computes from
  * `hLookup`, checked against brute force.
  */
class ChiIndexSpec extends AnyFunSuite {
  import Fixtures._

  private lazy val fig4 = ChiIndex.build(fig4Mask, fig4Cfg)

  /** Coordinates of the grid lines along a dimension, in index order. */
  private def lines(dim: Int, cell: Int): Seq[Int] =
    (0 to ChiIndex.nCells(dim, cell)).map(ChiIndex.line(_, dim, cell))

  /** Bytes each further copy of `idx` adds to a Java-serialised array of them:
    * its packed words plus a fixed per-object overhead.
    */
  private def serialisedPerIndex(idx: ChiIndex): Long = {
    def serialised(n: Int): Long = {
      val bytes = new java.io.ByteArrayOutputStream()
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject((0 until n).map(i => new ChiIndex(i, idx.w, idx.h, idx.cfg, idx.words.clone())).toArray)
      out.close()
      bytes.size.toLong
    }
    (serialised(101) - serialised(1)) / 100
  }

  test("boundaries cover the dimension, including a partial last cell") {
    assert(lines(6, 2) == Seq(0, 2, 4, 6))
    assert(lines(7, 2) == Seq(0, 2, 4, 6, 7))
    assert(lines(5, 5) == Seq(0, 5))
    assert(lines(5, 8) == Seq(0, 5))
    for ((dim, cell) <- Seq((6, 2), (7, 2), (5, 5), (5, 8), (300, 128)))
      assert((0 to dim).filter(lineIndex(_, dim, cell) >= 0) == lines(dim, cell), s"$dim/$cell")
  }

  test("nCells rounds up") {
    assert(ChiIndex.nCells(6, 2) == 3 && ChiIndex.nCells(7, 2) == 4 && ChiIndex.nCells(5, 8) == 1)
  }

  test("boundary search helpers") {
    assert(lineIndex(4, 6, 2) == 2)
    assert(lineIndex(3, 6, 2) == -1)
    assert(lineIndex(7, 7, 2) == 4)
    assert(ChiIndex.lineAtOrBelow(5, 6, 2) == 2)
    assert(ChiIndex.lineAtOrBelow(6, 6, 2) == 3)
    assert(ChiIndex.lineAtOrAbove(5, 6, 2) == 3)
    assert(ChiIndex.lineAtOrAbove(0, 6, 2) == 0)
    // Against a search over the line coordinates, with partial last cells.
    for ((dim, cell) <- Seq((6, 2), (7, 2), (5, 8), (13, 4), (300, 128)); v <- 0 to dim) {
      val ls = lines(dim, cell)
      assert(ChiIndex.line(ChiIndex.lineAtOrBelow(v, dim, cell), dim, cell) == ls.filter(_ <= v).max, s"$dim/$cell/$v")
      assert(ChiIndex.line(ChiIndex.lineAtOrAbove(v, dim, cell), dim, cell) == ls.filter(_ >= v).min, s"$dim/$cell/$v")
    }
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
    assert(isAvailable(fig4, Roi(3, 3, 4, 6)))
    assert(!isAvailable(fig4, Roi(4, 4, 5, 5)))
  }

  test("the full mask is always an available region") {
    assert(isAvailable(fig4, Roi.full(6, 6)))
  }

  test("paper Figure 4: C(M, ((3,3),(4,6))) = [8, 5, 0]") {
    val c = cHist(fig4, Roi(3, 3, 4, 6))
    assert(c.toSeq == Seq(8, 5, 0))
  }

  test("cHist rejects non-available regions") {
    intercept[IllegalArgumentException](cHist(fig4, Roi(4, 4, 5, 5)))
  }

  test("paper Figure 6: outer region of ((3,3),(5,5)) is ((3,3),(6,6))") {
    assert(outerRegion(fig4, Roi(3, 3, 5, 5)) == Roi(3, 3, 6, 6))
  }

  test("paper Figure 6: inner region of ((3,3),(5,5)) is ((3,3),(4,4))") {
    assert(innerRegion(fig4, Roi(3, 3, 5, 5)).contains(Roi(3, 3, 4, 4)))
  }

  test("inner region is empty for a sub-cell ROI") {
    assert(innerRegion(fig4, Roi(2, 2, 2, 2)).isEmpty)
  }

  test("outer/inner regions of an available region are itself") {
    val r = Roi(3, 3, 4, 6)
    assert(outerRegion(fig4, r) == r)
    assert(innerRegion(fig4, r).contains(r))
  }

  test("index size accounting") {
    // A header word, then 3×3 corner cells × bin 1 (bin 0 is the rectangle's area) at 4 bits, as
    // bin 1's total is 9 pixels: 36 bits, one word. At worst 6 bits (w·h = 36): 54 bits, still one word.
    assert(ChiIndex.bits(6, 6) == 6 && ChiIndex.width(fig4.words, 0, 1) == 4 && fig4.words.length == 2)
    assert(fig4.sizeBytes == 16L && packedBytes(fig4Mask, fig4Cfg) == 16L)
    assert(fig4Cfg.sizeBytes(6, 6) == 16L)
  }

  test("a 56x56 index packs 441 counts in 664 bytes, in sizeBytes and serialised") {
    val cfg = ChiConfig(8, 8, 10)
    // Every pixel in the top bin: each bin's total is w·h = 3,136, the worst case.
    val m = Mask(1, 56, 56, Array.fill(56 * 56)(0.95f))
    val idx = ChiIndex.build(m, cfg)
    // 7×7 corners × bins 1…9 × 12 bits = 5,292 bits: 83 words, 664 bytes, after a header word.
    assert(idx.counts.length == 7 * 7 * 10 && ChiIndex.bits(56, 56) == 12)
    assert((1 until 10).forall(ChiIndex.width(idx.words, 0, _) == 12))
    assert(idx.words.length == 1 + 83 && (idx.words.length - 1) * 8 == 664)
    assert(idx.sizeBytes == 8L + 664L && packedBytes(m, cfg) == idx.sizeBytes && cfg.sizeBytes(56, 56) == idx.sizeBytes)
    val perIndex = serialisedPerIndex(idx)
    assert(perIndex <= idx.sizeBytes + 64, s"$perIndex bytes per serialised index")
  }

  test("a 56x56 index packs 441 counts at its bins widths, in sizeBytes and serialised") {
    val cfg = ChiConfig(8, 8, 10)
    val m = randomMask(1, 56, 56, seed = 21)
    val idx = ChiIndex.build(m, cfg)
    // A header word, then 7×7 corners × bins 1…9 at 12, 12, 12, 11, 11, 11, 10, 10 and 9 bits, the bit
    // lengths of the bins' totals: 4,802 bits, 76 words. At worst every bin at 12 bits (w·h = 3,136):
    // 5,292 bits, 83 words, plus the header.
    assert(idx.counts.length == 7 * 7 * 10 && ChiIndex.bits(56, 56) == 12)
    assert((1 until 10).map(ChiIndex.width(idx.words, 0, _)) == Seq(12, 12, 12, 11, 11, 11, 10, 10, 9))
    assert(idx.words.length == 77 && idx.sizeBytes == 616L && packedBytes(m, cfg) == 616L)
    assert(cfg.sizeBytes(56, 56) == 672L)
    val perIndex = serialisedPerIndex(idx)
    assert(perIndex <= idx.sizeBytes + 64, s"$perIndex bytes per serialised index")
  }

  test("a 300x300 index packs 17-bit counts: every hLookup equals brute force") {
    val cfg = ChiConfig(128, 100, 3)
    val idx = ChiIndex.build(wideMask, cfg)
    // A header word, then 3×3 corners × bins 1…2 at 17 and 16 bits, the bit lengths of the bins' totals: 297 bits, 5 words.
    // At worst 17 bits each (w·h = 90,000): 306 bits, 5 words, plus the header.
    assert(ChiIndex.bits(300, 300) == 17 && ChiIndex.width(idx.words, 0, 1) == 17 && ChiIndex.width(idx.words, 0, 2) == 16)
    assert(idx.words.length == 6 && idx.sizeBytes == 48L && packedBytes(wideMask, cfg) == 48L)
    assert(cfg.sizeBytes(300, 300) == 48L)
    val xs = lines(300, 128)
    val ys = lines(300, 100)
    for (cx <- xs.indices; cy <- ys.indices; b <- 0 until cfg.bins) {
      val expected = if (cx == 0 || cy == 0) 0L else bruteCp(wideMask, Roi(1, 1, xs(cx), ys(cy)), ValueRange(cfg.boundary(b), 1.0))
      assert(idx.hLookup(cx, cy, b) == expected, s"H($cx, $cy)($b)")
    }
    assert(idx.hLookup(xs.length - 1, ys.length - 1, 0) == 90000)
    assert(idx.hLookup(xs.length - 1, ys.length - 1, 1) > 65535)
  }

  // cHist vs brute force on every available region of randomized masks,
  // including non-divisible mask dimensions (partial last cells).
  for ((w, h, cw, ch, bins, seed) <- Seq(
      (8, 8, 2, 2, 4, 1), (9, 7, 2, 3, 5, 2), (16, 16, 4, 4, 8, 3),
      (10, 10, 3, 3, 2, 4), (7, 13, 5, 4, 16, 5), (6, 6, 6, 6, 3, 6),
      (12, 5, 4, 2, 7, 7), (11, 11, 4, 4, 6, 8), (300, 300, 128, 100, 3, 9))) {
    test(s"cHist matches brute force on all available regions (${w}x$h cell=${cw}x$ch b=$bins)") {
      val m = if (w * h > 65535) wideMask else randomMask(seed, w, h, seed * 1000L)
      val cfg = ChiConfig(cw, ch, bins)
      val idx = ChiIndex.build(m, cfg)
      val xb = lines(w, cw)
      val yb = lines(h, ch)
      for {
        i1 <- xb.indices.dropRight(1); i2 <- xb.indices if xb(i2) > xb(i1)
        j1 <- yb.indices.dropRight(1); j2 <- yb.indices if yb(j2) > yb(j1)
      } {
        val r = Roi(xb(i1) + 1, yb(j1) + 1, xb(i2), yb(j2))
        assert(isAvailable(idx, r), s"$r should be available")
        val c = cHist(idx, r)
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
