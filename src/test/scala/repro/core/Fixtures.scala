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

  /** A 300×300 mask (w·h > 65,535), mostly above 0.3, so the index's corner
    * counts exceed 16 bits in more than one bin.
    */
  lazy val wideMask: Mask = {
    val r = new java.util.Random(300)
    Mask(300, 300, 300, Array.fill(300 * 300)(if (r.nextInt(10) == 0) r.nextFloat() * 0.3f else 0.3f + r.nextFloat() * 0.699f))
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

  /** Eqs. 3–4 and their lower mirrors evaluated on the full `C` histograms
    * (Eq. 2) of `roi̅` and `roi̲`: the definition [[ChiIndex.bounds]] must
    * equal exactly.
    */
  def referenceBounds(idx: ChiIndex, roi: Roi, range: ValueRange): CpBounds = {
    val cfg = idx.cfg
    val (loO, hiO) = (cfg.binAtOrBelow(range.lv), cfg.binAtOrAbove(range.uv))
    val (loI, hiI) = (cfg.binAtOrAbove(range.lv), cfg.binAtOrBelow(range.uv))
    def outer(c: Array[Int]): Long = (c(loO) - c(hiO)).toLong
    def inner(c: Array[Int]): Long = if (loI >= hiI) 0L else (c(loI) - c(hiI)).toLong
    val ro = idx.outerRegion(roi)
    val cRo = idx.cHist(ro)
    val ri = idx.innerRegion(roi)
    val upper2 = ri.fold(roi.area)(r => outer(idx.cHist(r)) + roi.area - r.area)
    val lower1 = ri.fold(0L)(r => inner(idx.cHist(r)))
    val lower2 = inner(cRo) - (ro.area - roi.area)
    CpBounds(math.max(math.max(lower1, lower2), 0L), math.min(math.min(outer(cRo), upper2), roi.area))
  }

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
