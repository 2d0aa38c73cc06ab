package repro.core

/** Configuration of the Cumulative Histogram Index (§3.1).
  *
  * @param cellW spatial cell width `w_c` (pixels along the x/row axis)
  * @param cellH spatial cell height `h_c` (pixels along the y/column axis)
  * @param bins  number of equi-width pixel-value buckets `b` over [0, 1)
  */
final case class ChiConfig(cellW: Int, cellH: Int, bins: Int) {
  require(cellW >= 1 && cellH >= 1 && bins >= 1, s"bad CHI config $this")

  /** Lower edge of bin `b`; `boundary(bins) == 1.0` closes the last bin. The
    * only definition of a bin edge: [[binOf]] and the two range selectors
    * below decide against it, so the index build and the bounds agree.
    */
  def boundary(b: Int): Double = b.toDouble / bins

  /** Every `boundary`, so the per-pixel [[binOf]] does no division. */
  private val edges: Array[Double] = Array.tabulate(bins + 1)(boundary)

  /** The `b` with `boundary(b) ≤ x < boundary(b + 1)`, for `x` in [0, 1). `x · bins`
    * lands within one bin of it; one comparison with each neighbouring edge settles which.
    */
  private def bin(x: Double): Int = {
    val b = (x * bins).toInt
    if (x < edges(b)) b - 1 else if (x >= edges(b + 1)) b + 1 else b
  }

  /** The bin of a pixel value `v` in [0, 1) ([[Mask.checkDomain]]). */
  def binOf(v: Float): Int = bin(v.toDouble)

  /** Largest `b` with `boundary(b) ≤ x`, clamped to [0, bins]. */
  def binAtOrBelow(x: Double): Int = if (x < 0) 0 else if (x >= 1) bins else bin(x)

  /** Smallest `b` with `boundary(b) ≥ x`, clamped to [0, bins]. */
  def binAtOrAbove(x: Double): Int =
    if (x <= 0) 0 else if (x > 1) bins else { val b = binAtOrBelow(x); if (edges(b) == x) b else b + 1 }

  /** Uncompressed index size in bytes for one `w × h` mask (4 bytes/count,
    * interior corner cells only — the zero border row/column is implicit).
    */
  def sizeBytes(w: Int, h: Int): Long =
    4L * bins * ChiIndex.nCells(w, cellW) * ChiIndex.nCells(h, cellH)
}

/** The Cumulative Histogram Index of a single mask (§3.1).
  *
  * `H(cx, cy)(bin)` — stored flat in [[counts]] — is the number of pixels in
  * the top-left rectangle `((1,1), (xb(cx), yb(cy)))` whose value is at least
  * `boundary(bin)` (the paper's reverse cumulative sum, Eq. 1). Grid boundary
  * coordinates are multiples of the cell size, with a final partial cell when
  * the mask dimension is not a multiple (`xb.last == w`). Index `cx = 0` /
  * `cy = 0` denotes the empty rectangle, so 2-D inclusion–exclusion (Eq. 2)
  * needs no special cases.
  *
  * The flat-array layout with `(cx, cy, bin)` acting as offsets mirrors the
  * paper's optimized index structure: no keys are stored and lookups are O(1)
  * with no pointer chasing.
  */
final class ChiIndex(
    val maskId: Long,
    val w: Int,
    val h: Int,
    val cfg: ChiConfig,
    val counts: Array[Int],
) extends Serializable {

  /** x boundary coordinates: 0, cellW, 2·cellW, …, w. */
  @transient private lazy val xb: Array[Int] = ChiIndex.boundaries(w, cfg.cellW)
  @transient private lazy val yb: Array[Int] = ChiIndex.boundaries(h, cfg.cellH)

  private def nCy: Int = ChiIndex.nCells(h, cfg.cellH)

  /** Raw index lookup `H(cx, cy)(bin)`; `cx`/`cy` are grid indices into the
    * boundary arrays (0 = empty rectangle).
    */
  def hLookup(cx: Int, cy: Int, bin: Int): Int =
    if (cx == 0 || cy == 0) 0
    else counts(((cx - 1) * nCy + (cy - 1)) * cfg.bins + bin)

  /** True iff `r` is an *available region* (Definition 3.1): both corners sit
    * on grid boundaries.
    */
  def isAvailable(r: Roi): Boolean =
    ChiIndex.boundaryIndex(xb, r.x1 - 1) >= 0 && ChiIndex.boundaryIndex(xb, r.x2) >= 0 &&
      ChiIndex.boundaryIndex(yb, r.y1 - 1) >= 0 && ChiIndex.boundaryIndex(yb, r.y2) >= 0

  /** `C(mask, r)` (Eq. 2): the reverse-cumulative histogram of the available
    * region `r`, computed by 2-D inclusion–exclusion over four index entries.
    * The returned array has `bins + 1` entries with `C(bins) == 0` so that the
    * count of pixels with values in `[boundary(i), boundary(j))` is
    * `C(i) - C(j)`.
    */
  def cHist(r: Roi): Array[Int] = {
    val cx1 = ChiIndex.boundaryIndex(xb, r.x1 - 1)
    val cx2 = ChiIndex.boundaryIndex(xb, r.x2)
    val cy1 = ChiIndex.boundaryIndex(yb, r.y1 - 1)
    val cy2 = ChiIndex.boundaryIndex(yb, r.y2)
    require(cx1 >= 0 && cx2 >= 0 && cy1 >= 0 && cy2 >= 0, s"region $r not available in CHI of mask $maskId")
    val out = new Array[Int](cfg.bins + 1)
    var b = 0
    while (b < cfg.bins) {
      out(b) = hLookup(cx2, cy2, b) - hLookup(cx1, cy2, b) - hLookup(cx2, cy1, b) + hLookup(cx1, cy1, b)
      b += 1
    }
    out
  }

  /** The smallest available region covering `roi` (the paper's `roi̅`).
    * Always exists because the full mask is available.
    */
  def outerRegion(roi: Roi): Roi = {
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    Roi(
      ChiIndex.largestLeq(xb, roi.x1 - 1) + 1,
      ChiIndex.largestLeq(yb, roi.y1 - 1) + 1,
      ChiIndex.smallestGeq(xb, roi.x2),
      ChiIndex.smallestGeq(yb, roi.y2),
    )
  }

  /** The largest available region covered by `roi` (the paper's `roi̲`), or
    * None when `roi` contains no grid-aligned rectangle.
    */
  def innerRegion(roi: Roi): Option[Roi] = {
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    val x1 = ChiIndex.smallestGeq(xb, roi.x1 - 1) + 1
    val y1 = ChiIndex.smallestGeq(yb, roi.y1 - 1) + 1
    val x2 = ChiIndex.largestLeq(xb, roi.x2)
    val y2 = ChiIndex.largestLeq(yb, roi.y2)
    if (x1 <= x2 && y1 <= y2) Some(Roi(x1, y1, x2, y2)) else None
  }

  /** Lower and upper bounds on `CP(mask, roi, range)` (§3.2.1, Eqs. 3–4 for
    * the upper bound and their mirror images for the lower bound). The exact
    * CP value is guaranteed to lie in `[lower, upper]`; when both `roi` and
    * `range` align with cell/bin boundaries the bounds are exact.
    */
  def bounds(roi: Roi, range: ValueRange): CpBounds = {
    // Bins of the outer value range ⊇ [lv, uv) and of the inner one ⊆ [lv, uv).
    val binLoOuter = cfg.binAtOrBelow(range.lv)
    val binHiOuter = cfg.binAtOrAbove(range.uv)
    val binLoInner = cfg.binAtOrAbove(range.lv)
    val binHiInner = cfg.binAtOrBelow(range.uv)

    def outerCount(c: Array[Int]): Long = (c(binLoOuter) - c(binHiOuter)).toLong
    def innerCount(c: Array[Int]): Long =
      if (binLoInner >= binHiInner) 0L else (c(binLoInner) - c(binHiInner)).toLong

    val ro  = outerRegion(roi)
    val cRo = cHist(ro)
    val ri  = innerRegion(roi)
    val cRi = ri.map(cHist)

    // Upper bounds: Approach 1 (Eq. 3) on roi̅; Approach 2 (Eq. 4) on roi̲.
    val upper1 = outerCount(cRo)
    val upper2 = (ri, cRi) match {
      case (Some(r), Some(c)) => outerCount(c) + roi.area - r.area
      case _                  => roi.area
    }
    // Lower bounds, mirrored: certain pixels inside roi̲ with values certainly
    // in range; or certain pixels in roi̅ minus the pixels possibly outside roi.
    val lower1 = cRi.map(innerCount).getOrElse(0L)
    val lower2 = innerCount(cRo) - (ro.area - roi.area)

    val upper = math.min(math.min(upper1, upper2), roi.area)
    val lower = math.max(math.max(lower1, lower2), 0L)
    CpBounds(lower, upper)
  }

  /** Uncompressed size of this index in bytes. */
  def sizeBytes: Long = 4L * counts.length
}

/** A `[lower, upper]` interval that is guaranteed to contain the exact CP
  * value.
  */
final case class CpBounds(lower: Long, upper: Long) {
  require(lower <= upper, s"inverted bounds [$lower, $upper]")
  def exact: Boolean = lower == upper
}

object ChiIndex {

  /** Bounds on `CP(mask, roi, range)` from the mask's index, or the trivial
    * `[0, |roi|]` when the registry has none for it.
    */
  def boundsOrTrivial(chi: Option[ChiIndex], roi: Roi, range: ValueRange): CpBounds = chi match {
    case Some(idx) => idx.bounds(roi, range)
    case None      => CpBounds(0L, roi.area)
  }

  /** Number of grid cells along a dimension of `dim` pixels (last may be partial). */
  def nCells(dim: Int, cell: Int): Int = (dim + cell - 1) / cell

  /** Boundary coordinates along one dimension: 0, cell, 2·cell, …, dim. */
  def boundaries(dim: Int, cell: Int): Array[Int] = {
    val n = nCells(dim, cell)
    Array.tabulate(n + 1)(i => math.min(i * cell, dim))
  }

  /** Index of `v` in the sorted boundary array, or -1 when `v` is not a boundary. */
  def boundaryIndex(bs: Array[Int], v: Int): Int = {
    val i = java.util.Arrays.binarySearch(bs, v)
    if (i >= 0) i else -1
  }

  /** Largest boundary value ≤ v (v ≥ 0 always has one: 0). */
  def largestLeq(bs: Array[Int], v: Int): Int = {
    val i = java.util.Arrays.binarySearch(bs, v)
    if (i >= 0) bs(i) else bs(-i - 2)
  }

  /** Smallest boundary value ≥ v (callers guarantee v ≤ bs.last). */
  def smallestGeq(bs: Array[Int], v: Int): Int = {
    val i = java.util.Arrays.binarySearch(bs, v)
    if (i >= 0) bs(i) else bs(-i - 1)
  }

  /** Build the CHI of `mask` in one pass over its pixels: per-cell histograms,
    * then a suffix sum along the bin axis (reverse cumulative) and a 2-D
    * prefix sum along the spatial axes. O(w·h + cells·bins).
    */
  def build(mask: Mask, cfg: ChiConfig): ChiIndex = {
    mask.checkDomain()
    val nCx = nCells(mask.w, cfg.cellW)
    val nCy = nCells(mask.h, cfg.cellH)
    val bins = cfg.bins
    val counts = new Array[Int](nCx * nCy * bins)

    def off(cx: Int, cy: Int): Int = (cx * nCy + cy) * bins

    // 1. Per-cell plain histograms.
    var x = 0
    while (x < mask.w) {
      val cx = x / cfg.cellW
      val rowBase = x * mask.h
      var y = 0
      while (y < mask.h) {
        counts(off(cx, y / cfg.cellH) + cfg.binOf(mask.data(rowBase + y))) += 1
        y += 1
      }
      x += 1
    }

    // 2. Suffix sum over bins: entry b becomes "count of pixels with value ≥ boundary(b)".
    var cx = 0
    while (cx < nCx) {
      var cy = 0
      while (cy < nCy) {
        val base = off(cx, cy)
        var b = bins - 2
        while (b >= 0) { counts(base + b) += counts(base + b + 1); b -= 1 }
        cy += 1
      }
      cx += 1
    }

    // 3. 2-D prefix sum over the spatial grid (per bin).
    cx = 0
    while (cx < nCx) {
      var cy = 0
      while (cy < nCy) {
        val base = off(cx, cy)
        var b = 0
        while (b < bins) {
          var v = counts(base + b)
          if (cx > 0) v += counts(off(cx - 1, cy) + b)
          if (cy > 0) v += counts(off(cx, cy - 1) + b)
          if (cx > 0 && cy > 0) v -= counts(off(cx - 1, cy - 1) + b)
          counts(base + b) = v
          b += 1
        }
        cy += 1
      }
      cx += 1
    }

    new ChiIndex(mask.id, mask.w, mask.h, cfg, counts)
  }
}
