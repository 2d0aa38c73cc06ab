package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests for the Mask data model and the exact CP function (§2.1). */
class MaskSpec extends AnyFunSuite {
  import Fixtures._

  test("pixel accessor is row-major and 1-indexed") {
    val m = Mask(1, 2, 3, Array(0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f))
    assert(m(1, 1) == 0.1f && m(1, 3) == 0.3f && m(2, 1) == 0.4f && m(2, 3) == 0.6f)
  }

  test("mask construction rejects wrong pixel count") {
    intercept[IllegalArgumentException](Mask(1, 2, 2, Array(0.1f)))
  }

  test("Roi area and bounds") {
    assert(Roi(1, 1, 1, 1).area == 1L)
    assert(Roi(3, 3, 4, 6).area == 8L)
    assert(Roi.full(6, 6) == Roi(1, 1, 6, 6))
    assert(Roi(1, 1, 6, 6).within(6, 6))
    assert(!Roi(1, 1, 7, 6).within(6, 6))
  }

  test("Roi rejects inverted corners") {
    intercept[IllegalArgumentException](Roi(3, 3, 2, 4))
    intercept[IllegalArgumentException](Roi(0, 1, 2, 2))
  }

  test("ValueRange rejects inverted bounds") {
    intercept[IllegalArgumentException](ValueRange(0.9, 0.1))
  }

  test("paper Figure 3: # pixels in ROI with values in (0.85, 1.0) is 2") {
    // 5×5 toy mask of Figure 3; ROI = purple box covering the two 0.9 pixels.
    val m = Mask(3, 5, 5, Array(
      0.1f, 0.2f, 0.4f, 0.1f, 0.1f,
      0.4f, 0.8f, 0.5f, 0.1f, 0.1f,
      0.5f, 0.9f, 0.5f, 0.1f, 0.1f,
      0.1f, 0.9f, 0.6f, 0.1f, 0.1f,
      0.3f, 0.3f, 0.5f, 0.1f, 0.1f,
    ))
    assert(m.cp(Roi(2, 1, 5, 3), ValueRange(0.85, 1.0)) == 2L)
  }

  test("paper Figure 4: CP values of the example mask") {
    val m = fig4Mask
    assert(m.cp(Roi(1, 1, 4, 4), ValueRange(0, 1.0)) == 16L)
    assert(m.cp(Roi(1, 1, 4, 4), ValueRange(0.5, 1.0)) == 3L)
    assert(m.cp(Roi(3, 3, 4, 6), ValueRange(0.5, 1.0)) == 5L)
    assert(m.cp(Roi(3, 3, 4, 6), ValueRange(0, 1.0)) == 8L)
    assert(m.cp(Roi(4, 4, 5, 5), ValueRange(0, 1.0)) == 4L)
  }

  test("CP of the full mask equals pixel count for the full range") {
    val m = randomMask(7, 13, 9, seed = 42)
    assert(m.cp(Roi.full(13, 9), ValueRange(0.0, 1.0)) == 13L * 9)
  }

  test("CP with empty value range is 0") {
    val m = randomMask(8, 10, 10, seed = 1)
    assert(m.cp(Roi(2, 2, 7, 7), ValueRange(0.5, 0.5)) == 0L)
  }

  test("CP is additive over disjoint spatial splits (paper Figure 5)") {
    val m = randomMask(9, 20, 20, seed = 2)
    val range = ValueRange(0.3, 0.8)
    val whole = m.cp(Roi(3, 4, 18, 17), range)
    val left = m.cp(Roi(3, 4, 10, 17), range)
    val right = m.cp(Roi(11, 4, 18, 17), range)
    assert(whole == left + right)
  }

  test("CP is additive over value-range splits") {
    val m = randomMask(10, 16, 16, seed = 3)
    val roi = Roi(2, 2, 15, 15)
    assert(m.cp(roi, ValueRange(0.1, 0.9)) ==
      m.cp(roi, ValueRange(0.1, 0.5)) + m.cp(roi, ValueRange(0.5, 0.9)))
  }

  test("CP rejects an ROI outside the mask") {
    val m = randomMask(11, 8, 8, seed = 4)
    intercept[IllegalArgumentException](m.cp(Roi(1, 1, 9, 8), ValueRange(0, 1)))
  }

  // CP vs brute force on randomized masks / ROIs / ranges.
  for (seed <- 0 until 10) {
    test(s"CP matches brute force (seed=$seed)") {
      val r = new java.util.Random(seed * 31 + 5)
      val m = randomMask(seed, 5 + r.nextInt(25), 5 + r.nextInt(25), seed)
      for (_ <- 0 until 20) {
        val roi = randomRoi(r, m.w, m.h)
        val range = randomRange(r)
        assert(m.cp(roi, range) == bruteCp(m, roi, range), s"roi=$roi range=$range")
      }
    }
  }

  test("intersect is the pixel-wise minimum") {
    val a = Mask(1, 2, 2, Array(0.1f, 0.9f, 0.5f, 0.4f))
    val b = Mask(2, 2, 2, Array(0.2f, 0.8f, 0.6f, 0.3f))
    val m = Mask.intersect(Seq(a, b))
    assert(m.data.toSeq == Seq(0.1f, 0.8f, 0.5f, 0.3f))
  }

  test("intersect of one mask is the mask itself") {
    val a = Fixtures.randomMask(5, 4, 4, seed = 9)
    assert(Mask.intersect(Seq(a)).data.toSeq == a.data.toSeq)
  }

  test("thresholding the intersect equals intersecting thresholded masks") {
    val r = new java.util.Random(11)
    val ms = (0 until 3).map(i => randomMask(i, 12, 12, seed = 100 + i))
    val t = 0.6
    val inter = Mask.intersect(ms)
    for (x <- 1 to 12; y <- 1 to 12) {
      val all = ms.forall(_(x, y) >= t)
      assert((inter(x, y) >= t) == all, s"pixel ($x,$y)")
    }
  }

  test("intersect rejects shape mismatch and empty input") {
    val a = randomMask(1, 4, 4, 1); val b = randomMask(2, 4, 5, 2)
    intercept[IllegalArgumentException](Mask.intersect(Seq(a, b)))
    intercept[IllegalArgumentException](Mask.intersect(Seq.empty))
  }
}
