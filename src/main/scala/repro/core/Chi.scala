package repro.core

/** Configuration of the Cumulative Histogram Index (§3.1).
  *
  * @param cellW spatial cell width `w_c` (pixels along the x/row axis)
  * @param cellH spatial cell height `h_c` (pixels along the y/column axis)
  * @param bins  number of equi-width pixel-value buckets `b` over [0, 1)
  */
final case class ChiConfig(cellW: Int, cellH: Int, bins: Int) {
  require(cellW >= 1 && cellH >= 1 && bins >= 1 && bins <= (1 << 19), s"bad CHI config $this")

  /** Lower edge of bin `b`; `boundary(bins) == 1.0` closes the last bin. The
    * only definition of a bin edge: [[binOf]] and the two range selectors
    * below decide against it, so the index build and the bounds agree.
    */
  def boundary(b: Int): Double = b.toDouble / bins

  /** Every `boundary`, so the range selectors do no division. */
  private val edges: Array[Double] = Array.tabulate(bins + 1)(boundary)

  /** The smallest float at or above each `boundary`. Float → double is
    * monotone, so a float pixel `v` has `v ≥ boundary(b)` iff
    * `v ≥ floatEdges(b)`.
    */
  private val floatEdges: Array[Float] = Array.tabulate(bins + 1) { b =>
    val f = boundary(b).toFloat
    if (f.toDouble < boundary(b)) Math.nextUp(f) else f
  }

  /** `bins` shrunk by 2⁻²⁰. With at most 2¹⁹ bins, `(v · binsDown).toInt` is
    * the bin of `v` or the one below it: three float roundings (2⁻²⁴ each) and
    * the edges' double rounding cannot undo a relative shrink of 2⁻²⁰, which
    * moves `v · bins` by less than one bin.
    */
  private val binsDown: Float = (bins * (1.0 - 1.0 / (1 << 20))).toFloat

  /** The `b` with `boundary(b) ≤ x < boundary(b + 1)`, for `x` in [0, 1). `x · bins`
    * lands within one bin of it; one comparison with each neighbouring edge settles which.
    */
  private def bin(x: Double): Int = {
    val b = (x * bins).toInt
    if (x < edges(b)) b - 1 else if (x >= edges(b + 1)) b + 1 else b
  }

  /** The bin of a pixel value `v` in [0, 1) ([[Mask.inDomain]]): the `b` with
    * `boundary(b) ≤ v < boundary(b + 1)`, decided in float arithmetic by one
    * comparison with the edge above an estimate that is never too high.
    */
  def binOf(v: Float): Int = {
    val b = (v * binsDown).toInt
    if (v >= floatEdges(b + 1)) b + 1 else b
  }

  /** Largest `b` with `boundary(b) ≤ x`, clamped to [0, bins]. */
  def binAtOrBelow(x: Double): Int = if (x < 0) 0 else if (x >= 1) bins else bin(x)

  /** Smallest `b` with `boundary(b) ≥ x`, clamped to [0, bins]. */
  def binAtOrAbove(x: Double): Int =
    if (x <= 0) 0 else if (x > 1) bins else { val b = binAtOrBelow(x); if (edges(b) == x) b else b + 1 }

  /** Uncompressed index size in bytes for one `w × h` mask: interior corner
    * cells only (the zero border row/column is implicit), at
    * [[ChiIndex.countBytes]] per count — 2 bytes when `w·h ≤ 65,535` (both
    * lite datasets, and the paper's 224² ImageNet masks), 4 bytes above
    * (the paper's 448² WILDS masks).
    */
  def sizeBytes(w: Int, h: Int): Long =
    ChiIndex.countBytes(w, h).toLong * bins * ChiIndex.nCells(w, cellW) * ChiIndex.nCells(h, cellH)
}

/** The Cumulative Histogram Index of a single mask (§3.1).
  *
  * `H(cx, cy)(bin)` is the number of pixels in the top-left rectangle up to
  * grid lines `cx`, `cy` whose value is at least `boundary(bin)` (the paper's
  * reverse cumulative sum, Eq. 1). Grid lines lie at multiples of the cell
  * size, with a final partial cell when the mask dimension is not a multiple
  * ([[ChiIndex.line]]). Line `0` bounds the empty rectangle, so 2-D
  * inclusion–exclusion (Eq. 2) needs no special cases.
  *
  * The flat-array layout with `(cx, cy, bin)` acting as offsets mirrors the
  * paper's optimized index structure: no keys are stored and lookups are O(1)
  * with no pointer chasing. A count never exceeds `w·h`, so `low` holds its
  * low 16 bits, and `highs` its high 16 bits only when `w·h > 65,535`
  * (empty otherwise); `count` is the one place that joins them. The
  * [[length]] counts start at offset `base` of both arrays: an index built on
  * its own owns them (`base` 0), and an index a [[ChiSlab]] hands out is a
  * view of one of its slots.
  */
final class ChiIndex(
    val maskId: Long,
    val w: Int,
    val h: Int,
    val cfg: ChiConfig,
    private[core] val low: Array[Char],
    private[core] val highs: Array[Char],
    private[core] val base: Int = 0,
) extends Serializable {
  import ChiIndex.{line, lineAtOrAbove, lineAtOrBelow, lineIndex}

  private def nCy: Int = ChiIndex.nCells(h, cfg.cellH)

  /** Number of counts: `nCx · nCy · bins`. */
  def length: Int = ChiIndex.nCells(w, cfg.cellW) * nCy * cfg.bins

  /** The low 16 bits of every count, in storage order. */
  def counts: Array[Char] = slice(low)

  /** The high 16 bits of every count, or empty when `w·h ≤ 65,535`. */
  def high: Array[Char] = if (highs.length == 0) highs else slice(highs)

  private def slice(a: Array[Char]): Array[Char] =
    if (base == 0 && a.length == length) a else java.util.Arrays.copyOfRange(a, base, base + length)

  /** Raw index lookup `H(cx, cy)(bin)`; `cx`/`cy` are grid line indices
    * (0 = empty rectangle).
    */
  def hLookup(cx: Int, cy: Int, bin: Int): Int =
    if (cx == 0 || cy == 0) 0 else count(((cx - 1) * nCy + (cy - 1)) * cfg.bins + bin)

  /** The count stored at offset `i` of this index: its low half, joined with its high half when there is one. */
  private def count(i: Int): Int = ChiIndex.count(low, highs, base + i)

  /** Every count, widened to `Int`, in storage order. */
  def wideCounts: Array[Int] = Array.tabulate(length)(count)

  /** `C(i) − C(j)` of Eq. 2 for the grid rectangle between lines `(cx1, cy1)`
    * and `(cx2, cy2)`: the pixels in it with values in
    * `[boundary(i), boundary(j))`, where `C(bins) = 0`.
    */
  private def rangeCount(cx1: Int, cy1: Int, cx2: Int, cy2: Int, i: Int, j: Int): Long = {
    def c(b: Int): Int =
      if (b == cfg.bins) 0
      else hLookup(cx2, cy2, b) - hLookup(cx1, cy2, b) - hLookup(cx2, cy1, b) + hLookup(cx1, cy1, b)
    (c(i) - c(j)).toLong
  }

  /** True iff `r` is an *available region* (Definition 3.1): both corners sit
    * on grid lines.
    */
  def isAvailable(r: Roi): Boolean =
    lineIndex(r.x1 - 1, w, cfg.cellW) >= 0 && lineIndex(r.x2, w, cfg.cellW) >= 0 &&
      lineIndex(r.y1 - 1, h, cfg.cellH) >= 0 && lineIndex(r.y2, h, cfg.cellH) >= 0

  /** `C(mask, r)` (Eq. 2): the reverse-cumulative histogram of the available
    * region `r`, computed by 2-D inclusion–exclusion over four index entries.
    * The returned array has `bins + 1` entries with `C(bins) == 0` so that the
    * count of pixels with values in `[boundary(i), boundary(j))` is
    * `C(i) - C(j)`. The definition [[bounds]] is checked against; it reads
    * only the bins it needs.
    */
  def cHist(r: Roi): Array[Int] = {
    val cx1 = lineIndex(r.x1 - 1, w, cfg.cellW)
    val cx2 = lineIndex(r.x2, w, cfg.cellW)
    val cy1 = lineIndex(r.y1 - 1, h, cfg.cellH)
    val cy2 = lineIndex(r.y2, h, cfg.cellH)
    require(cx1 >= 0 && cx2 >= 0 && cy1 >= 0 && cy2 >= 0, s"region $r not available in CHI of mask $maskId")
    Array.tabulate(cfg.bins + 1)(b => rangeCount(cx1, cy1, cx2, cy2, b, cfg.bins).toInt)
  }

  /** The smallest available region covering `roi` (the paper's `roi̅`).
    * Always exists because the full mask is available.
    */
  def outerRegion(roi: Roi): Roi = {
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    Roi(
      line(lineAtOrBelow(roi.x1 - 1, w, cfg.cellW), w, cfg.cellW) + 1,
      line(lineAtOrBelow(roi.y1 - 1, h, cfg.cellH), h, cfg.cellH) + 1,
      line(lineAtOrAbove(roi.x2, w, cfg.cellW), w, cfg.cellW),
      line(lineAtOrAbove(roi.y2, h, cfg.cellH), h, cfg.cellH),
    )
  }

  /** The largest available region covered by `roi` (the paper's `roi̲`), or
    * None when `roi` contains no grid-aligned rectangle.
    */
  def innerRegion(roi: Roi): Option[Roi] = {
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    val x1 = line(lineAtOrAbove(roi.x1 - 1, w, cfg.cellW), w, cfg.cellW) + 1
    val y1 = line(lineAtOrAbove(roi.y1 - 1, h, cfg.cellH), h, cfg.cellH) + 1
    val x2 = line(lineAtOrBelow(roi.x2, w, cfg.cellW), w, cfg.cellW)
    val y2 = line(lineAtOrBelow(roi.y2, h, cfg.cellH), h, cfg.cellH)
    if (x1 <= x2 && y1 <= y2) Some(Roi(x1, y1, x2, y2)) else None
  }

  /** Lower and upper bounds on `CP(mask, roi, range)` (§3.2.1, Eqs. 3–4 for
    * the upper bound and their mirror images for the lower bound), from a
    * [[BoundPlan]]. The exact CP value is guaranteed to lie in
    * `[lower, upper]`; when both `roi` and `range` align with cell/bin
    * boundaries the bounds are exact.
    */
  def bounds(roi: Roi, range: ValueRange): CpBounds = {
    val plan = new BoundPlan(cfg, w, h, ConstRoi(roi), range)
    plan.eval(low, highs, base, null)
    CpBounds(plan.lower, plan.upper)
  }

  /** Uncompressed size of this index in bytes: 2 per count, 4 with [[high]]. */
  def sizeBytes: Long = ChiIndex.countBytes(w, h).toLong * length

  /** An index, a view too, serialises as its own per-cell counts ([[CellCounts]]), not the whole slab. */
  private def writeReplace(): AnyRef = new ChiIndex.Wire(maskId, CellCounts(cfg, w, h, 1, low, highs, base))
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

  /** Bytes per count of a `w × h` mask's index: 2 when no count can exceed
    * 65,535 (`w·h ≤ 65,535`), else 4.
    */
  def countBytes(w: Int, h: Int): Int = if (w.toLong * h > Char.MaxValue) 4 else 2

  /** Number of grid cells along a dimension of `dim` pixels (last may be partial). */
  def nCells(dim: Int, cell: Int): Int = (dim + cell - 1) / cell

  /** Coordinate of grid line `i` along a dimension of `dim` pixels: the lines
    * are 0, cell, 2·cell, …, and `dim`, which closes a partial last cell.
    */
  def line(i: Int, dim: Int, cell: Int): Int = math.min(i * cell, dim)

  /** Index of the grid line at `v`, or -1 when `v` is not one. */
  def lineIndex(v: Int, dim: Int, cell: Int): Int =
    if (v == dim) nCells(dim, cell) else if (v >= 0 && v < dim && v % cell == 0) v / cell else -1

  /** Index of the last grid line at or before `v`, for 0 ≤ v ≤ dim. */
  def lineAtOrBelow(v: Int, dim: Int, cell: Int): Int = if (v == dim) nCells(dim, cell) else v / cell

  /** Index of the first grid line at or after `v`, for 0 ≤ v ≤ dim. */
  def lineAtOrAbove(v: Int, dim: Int, cell: Int): Int = (v + cell - 1) / cell

  /** The wire form of an index: its key and its per-cell counts. */
  private final class Wire(maskId: Long, counts: CellCounts) extends Serializable {
    private def readResolve(): AnyRef = {
      if (counts.n != 1) throw new java.io.InvalidObjectException(s"CHI of mask $maskId holds ${counts.n} indexes")
      new ChiIndex(maskId, counts.w, counts.h, counts.cfg, counts.low, counts.high)
    }
  }

  /** Shared empty high half of every index whose counts fit in 16 bits. */
  private[core] val NoHigh: Array[Char] = Array.emptyCharArray

  /** The count at offset `i`: its low half, joined with its high half when there is one. */
  private[core] def count(low: Array[Char], high: Array[Char], i: Int): Int =
    if (high.length == 0) low(i) else low(i) | high(i) << 16

  /** The two halves of `n` counts for a `w × h` mask. */
  private[core] def halves(w: Int, h: Int, n: Int): (Array[Char], Array[Char]) =
    (new Array[Char](n), if (countBytes(w, h) == 4) new Array[Char](n) else NoHigh)

  private[core] def put(counts: Array[Char], high: Array[Char], i: Int, v: Int): Unit = {
    counts(i) = v.toChar
    if (high.length != 0) high(i) = (v >>> 16).toChar
  }

  /** An index from counts in storage order ([[ChiIndex.wideCounts]]), e.g. as
    * persisted. Fails unless there are `nCx·nCy·bins` of them, each in
    * [0, w·h], so none is truncated when narrowed, and they are the counts
    * of some mask: bin 0 is each rectangle's area, and the per-cell counts
    * (their 2-D first difference) lie in their cell and do not increase over
    * bins — the rule the wire form's reader applies ([[CellCounts.cellOk]]).
    */
  def fromCounts(maskId: Long, w: Int, h: Int, cfg: ChiConfig, wide: Array[Int]): ChiIndex = {
    val (nCx, nCy, bins) = (nCells(w, cfg.cellW), nCells(h, cfg.cellH), cfg.bins)
    val n = nCx * nCy * bins
    require(wide.length == n, s"CHI of mask $maskId has ${wide.length} counts, expected $n for ${w}x$h and $cfg")
    val (counts, high) = halves(w, h, n)
    var i = 0
    while (i < n) {
      val v = wide(i)
      require(v >= 0 && v.toLong <= w.toLong * h, s"CHI of mask $maskId: count $v at $i is outside [0, ${w.toLong * h}]")
      put(counts, high, i, v)
      i += 1
    }
    def hAt(cx: Int, cy: Int, b: Int): Int = if (cx == 0 || cy == 0) 0 else wide(((cx - 1) * nCy + (cy - 1)) * bins + b)
    for (cx <- 1 to nCx; cy <- 1 to nCy) {
      val (x, y) = (line(cx, w, cfg.cellW), line(cy, h, cfg.cellH))
      require(hAt(cx, cy, 0) == x * y, s"CHI of mask $maskId: bin 0 holds ${hAt(cx, cy, 0)} pixels at corner ($cx, $cy), not the ${x * y} of its rectangle")
      val area = (x - line(cx - 1, w, cfg.cellW)) * (y - line(cy - 1, h, cfg.cellH))
      var prev = area
      for (b <- 1 until bins) {
        val d = hAt(cx, cy, b) - hAt(cx - 1, cy, b) - hAt(cx, cy - 1, b) + hAt(cx - 1, cy - 1, b)
        if (!CellCounts.cellOk(d, prev)) throw CellCounts.cellError(s"CHI of mask $maskId", cx - 1, cy - 1, b, d, prev, area)
        prev = d
      }
    }
    new ChiIndex(maskId, w, h, cfg, counts, high)
  }

  /** Build the CHI of `mask` in one pass over its pixels, one row of cells at
    * a time: the row's per-cell histograms (checking that every pixel lies in
    * [0, 1)), their suffix sums along the bin axis (reverse cumulative), added
    * to running column sums, whose prefix sums along the row give `H`, written
    * once into the retained arrays. O(w·h + cells·bins).
    */
  def build(mask: Mask, cfg: ChiConfig): ChiIndex = {
    val w = mask.w
    val h = mask.h
    val data = mask.data
    val bins = cfg.bins
    val nCx = nCells(w, cfg.cellW)
    val nCy = nCells(h, cfg.cellH)
    val (counts, high) = halves(w, h, nCx * nCy * bins)
    val cells = new Array[Int](nCy * bins) // plain histograms of the current row of cells
    val column = new Array[Int](nCy * bins) // suffix sums over cell rows 0..cx, per (cy, bin)
    val run = new Array[Int](bins) // column sums over cells 0..cy of the current row

    var cx = 0
    while (cx < nCx) {
      java.util.Arrays.fill(cells, 0)
      // 1. Plain histograms of this row of cells.
      var x = cx * cfg.cellW
      val xEnd = math.min(x + cfg.cellW, w)
      while (x < xEnd) {
        val rowBase = x * h
        var cy = 0
        while (cy < nCy) {
          val base = cy * bins
          var y = cy * cfg.cellH
          val yEnd = math.min(y + cfg.cellH, h)
          while (y < yEnd) {
            val v = data(rowBase + y)
            if (!Mask.inDomain(v)) mask.outsideDomain(rowBase + y)
            cells(base + cfg.binOf(v)) += 1
            y += 1
          }
          cy += 1
        }
        x += 1
      }
      // 2. Suffix sums over bins into the column sums; 3. prefix sums along the row.
      java.util.Arrays.fill(run, 0)
      var cy = 0
      while (cy < nCy) {
        val base = cy * bins
        var suffix = 0
        var b = bins - 1
        while (b >= 0) { suffix += cells(base + b); column(base + b) += suffix; b -= 1 }
        val out = (cx * nCy + cy) * bins
        b = 0
        while (b < bins) { run(b) += column(base + b); put(counts, high, out + b, run(b)); b += 1 }
        cy += 1
      }
      cx += 1
    }

    new ChiIndex(mask.id, w, h, cfg, counts, high)
  }
}
