package repro.core

/** Pure (Spark-free) test fixtures shared by the core suites. */
object Fixtures {

  /** The example mask of the paper's Figure 4 (6×6, x = row, y = column). */
  val fig4Mask: Mask = Mask(
    id = 0,
    w = 6,
    h = 6,
    data = Array(
      0.2f, 0.2f, 0.2f, 0.2f, 0.2f, 0.0f,
      0.2f, 0.2f, 0.2f, 0.2f, 0.2f, 0.2f,
      0.2f, 0.8f, 0.2f, 0.2f, 0.6f, 0.2f,
      0.2f, 0.2f, 0.8f, 0.8f, 0.8f, 0.8f,
      0.2f, 0.2f, 0.8f, 0.8f, 0.2f, 0.2f,
      0.2f, 0.2f, 0.2f, 0.6f, 0.2f, 0.2f,
    ),
  )

  /** The paper's Figure 4 CHI configuration: w_c = h_c = 2, b = 2. */
  val fig4Cfg: ChiConfig = ChiConfig(2, 2, 2)

  /** Deterministic random mask. */
  def randomMask(id: Long, w: Int, h: Int, seed: Long): Mask = {
    val r = new java.util.Random(seed)
    Mask(id, w, h, Array.fill(w * h)(r.nextFloat() * 0.999f))
  }

  /** Deterministic random mask of quantised pixels `(k / bins).toFloat`:
    * every pixel sits on a bin edge, where float and double disagree.
    */
  def quantisedMask(id: Long, w: Int, h: Int, bins: Int, seed: Long): Mask = {
    val r = new java.util.Random(seed)
    Mask(id, w, h, Array.fill(w * h)((r.nextInt(bins).toDouble / bins).toFloat))
  }

  /** Brute-force CP, independent of Mask.cp's loop structure. */
  def bruteCp(m: Mask, roi: Roi, range: ValueRange): Long =
    (for {
      x <- roi.x1 to roi.x2
      y <- roi.y1 to roi.y2
      v = m(x, y)
      if v >= range.lv && v < range.uv
    } yield 1L).sum

  /** Deterministic random ROI within a w × h mask. */
  def randomRoi(r: java.util.Random, w: Int, h: Int): Roi = {
    val x1 = 1 + r.nextInt(w); val x2 = x1 + r.nextInt(w - x1 + 1)
    val y1 = 1 + r.nextInt(h); val y2 = y1 + r.nextInt(h - y1 + 1)
    Roi(x1, y1, x2, y2)
  }

  /** Deterministic random half-open value range inside [0, 1]. */
  def randomRange(r: java.util.Random): ValueRange = {
    val a = r.nextDouble(); val b = r.nextDouble()
    ValueRange(math.min(a, b), math.max(a, b) + 1e-6)
  }
}
