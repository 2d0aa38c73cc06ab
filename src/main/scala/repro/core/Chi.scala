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

  /** Index size in bytes for one `w × h` mask: bins 1 … b−1 of the interior
    * corner cells (the zero border row/column and bin 0, each corner
    * rectangle's area, are implicit) at [[ChiIndex.bits]] bits per count,
    * padded to whole 64-bit words ([[ChiIndex.slotWords]]). A 56×56
    * ImageNet-lite index with 8×8 cells and 10 bins holds 441 counts of
    * 12 bits in 83 words: 664 B.
    */
  def sizeBytes(w: Int, h: Int): Long = 8L * ChiIndex.slotWords(w, h, this)
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
  * with no pointer chasing. Bin 0 is not stored: it is the area of the
  * corner's rectangle. The counts of bins 1 … b−1 are packed at
  * [[ChiIndex.bits]] bits each, enough for `w·h`, the largest count
  * (fixed-width bit packing, as in Lemire & Boytsov, SPE 2015), in the 64-bit
  * words from `base` of `words` ([[ChiIndex.slotWords]] of them);
  * [[ChiIndex.count]] is the one reader and [[ChiIndex.Packer]] the one
  * writer. An index built on its own owns its words (`base` 0), and an index
  * a [[ChiSlab]] hands out is a view of one of its slots.
  */
final class ChiIndex(
    val maskId: Long,
    val w: Int,
    val h: Int,
    val cfg: ChiConfig,
    private[core] val words: Array[Long],
    private[core] val base: Int = 0,
) extends Serializable {
  import ChiIndex.line

  private def nCy: Int = ChiIndex.nCells(h, cfg.cellH)

  /** Number of counts of `H`, bin 0 included: `nCx · nCy · bins`. */
  def length: Int = ChiIndex.nCells(w, cfg.cellW) * nCy * cfg.bins

  /** Every count of `H`, bin 0 included, in storage order, as a view of the packed words. */
  def counts: IndexedSeq[Int] = new IndexedSeq[Int] {
    def length: Int = ChiIndex.this.length
    def apply(i: Int): Int = at(i)
  }

  /** Raw index lookup `H(cx, cy)(bin)`; `cx`/`cy` are grid line indices
    * (0 = empty rectangle).
    */
  def hLookup(cx: Int, cy: Int, bin: Int): Int =
    if (cx == 0 || cy == 0) 0
    else if (bin == 0) line(cx, w, cfg.cellW) * line(cy, h, cfg.cellH)
    else {
      val bits = ChiIndex.bits(w, h)
      ChiIndex.count(words, 64L * base + (((cx - 1) * nCy + (cy - 1)) * (cfg.bins - 1) + bin - 1).toLong * bits, bits)
    }

  /** The count at offset `i` of `H` in storage order. */
  private def at(i: Int): Int = {
    val corner = i / cfg.bins
    hLookup(corner / nCy + 1, corner % nCy + 1, i % cfg.bins)
  }

  /** Every count of `H`, bin 0 included, widened to `Int`, in storage order. */
  def wideCounts: Array[Int] = Array.tabulate(length)(at)

  /** Lower and upper bounds on `CP(mask, roi, range)` (§3.2.1, Eqs. 3–4 for
    * the upper bound and their mirror images for the lower bound), from a
    * [[BoundPlan]] compiled for this call. The exact CP value is guaranteed
    * to lie in `[lower, upper]`; when both `roi` and `range` align with
    * cell/bin boundaries the bounds are exact.
    */
  def bounds(roi: Roi, range: ValueRange): CpBounds = {
    val plan = new BoundPlan(cfg, w, h, range)
    plan.eval(words, base, roi.x1, roi.y1, roi.x2, roi.y2)
    CpBounds(plan.lower, plan.upper)
  }

  /** Size of this index in bytes: its packed words ([[ChiConfig.sizeBytes]]). */
  def sizeBytes: Long = cfg.sizeBytes(w, h)

  /** An index, a view too, serialises as its own per-cell counts ([[CellCounts]]), not the whole slab. */
  private def writeReplace(): AnyRef = new ChiIndex.Wire(maskId, CellCounts(cfg, w, h, 1, words, base))
}

/** A `[lower, upper]` interval that is guaranteed to contain the exact CP
  * value.
  */
final case class CpBounds(lower: Long, upper: Long) {
  require(lower <= upper, s"inverted bounds [$lower, $upper]")
  def exact: Boolean = lower == upper
}

object ChiIndex {

  /** Bits per stored count of a `w × h` mask's index: the bit length of
    * `w·h`, the largest count (12 for 56×56, 14 for 112×112, 18 for 448²).
    */
  def bits(w: Int, h: Int): Int = 64 - java.lang.Long.numberOfLeadingZeros(w.toLong * h)

  /** 64-bit words per index of a `w × h` mask: bins 1 … b−1 of each interior
    * corner at [[bits]] bits each, rounded up to a whole word so that every
    * index starts on a word.
    */
  def slotWords(w: Int, h: Int, cfg: ChiConfig): Int = {
    val stored = nCells(w, cfg.cellW).toLong * nCells(h, cfg.cellH) * (cfg.bins - 1)
    ((stored * bits(w, h) + 63) >>> 6).toInt
  }

  /** The count packed at `bits` bits from bit `p` of `words`: the one reader
    * of a count. Stored count `i` of the index at word `base` starts at bit
    * `64·base + i·bits`, and bin `b ≥ 1` of corner `k` is `i = k·(bins − 1) + b − 1`.
    * It also reads the next word (the same one at the array's end) and keeps
    * its bits only when the count straddles the two words, so it has no branch.
    */
  def count(words: Array[Long], p: Long, bits: Int): Int = {
    val at = (p >>> 6).toInt
    val shift = p.toInt & 63
    val next = words(math.min(at + 1, words.length - 1))
    ((words(at) >>> shift | next << 1 << (63 - shift)) & ((1L << bits) - 1)).toInt
  }

  /** Packs counts of `bits` bits each, in storage order, into `words` from
    * word `at` on: the one writer of counts. It keeps the word being filled
    * in a register and stores each word once, when it is full or at
    * [[flush]].
    */
  private[core] final class Packer(words: Array[Long], private var at: Int, bits: Int) {
    private var acc = 0L
    private var used = 0

    /** Append `v`, which must fit in `bits` bits. */
    def put(v: Int): Unit = {
      acc |= v.toLong << used
      used += bits
      if (used >= 64) {
        words(at) = acc
        at += 1
        used -= 64
        acc = if (used == 0) 0L else v.toLong >>> (bits - used) // the part of `v` that straddles into the next word
      }
    }

    /** Store the last, partly filled word. */
    def flush(): Unit = if (used > 0) words(at) = acc
  }

  /** Number of grid cells along a dimension of `dim` pixels (last may be partial). */
  def nCells(dim: Int, cell: Int): Int = (dim + cell - 1) / cell

  /** Coordinate of grid line `i` along a dimension of `dim` pixels: the lines
    * are 0, cell, 2·cell, …, and `dim`, which closes a partial last cell.
    */
  def line(i: Int, dim: Int, cell: Int): Int = math.min(i * cell, dim)

  /** Index of the last grid line at or before `v`, for 0 ≤ v ≤ dim. */
  def lineAtOrBelow(v: Int, dim: Int, cell: Int): Int = if (v == dim) nCells(dim, cell) else v / cell

  /** Index of the first grid line at or after `v`, for 0 ≤ v ≤ dim. */
  def lineAtOrAbove(v: Int, dim: Int, cell: Int): Int = (v + cell - 1) / cell

  /** The wire form of an index: its key and its per-cell counts. */
  private final class Wire(maskId: Long, counts: CellCounts) extends Serializable {
    private def readResolve(): AnyRef = {
      if (counts.n != 1) throw new java.io.InvalidObjectException(s"CHI of mask $maskId holds ${counts.n} indexes")
      new ChiIndex(maskId, counts.w, counts.h, counts.cfg, counts.words)
    }
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
    val words = new Array[Long](slotWords(w, h, cfg))
    val out = new Packer(words, 0, bits(w, h))
    var i = 0
    while (i < n) {
      val v = wide(i)
      require(v >= 0 && v.toLong <= w.toLong * h, s"CHI of mask $maskId: count $v at $i is outside [0, ${w.toLong * h}]")
      if (i % bins != 0) out.put(v) // bin 0 is checked below, not stored
      i += 1
    }
    out.flush()
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
    new ChiIndex(maskId, w, h, cfg, words)
  }

  /** Build the CHI of `mask` in one pass over its pixels, one row of cells at
    * a time: the row's per-cell histograms (checking that every pixel lies in
    * [0, 1)), their suffix sums along the bin axis (reverse cumulative), added
    * to running column sums, whose prefix sums along the row give `H`, packed
    * once into the index's words. Bin 0, the rectangle's area, is not summed.
    * O(w·h + cells·bins).
    */
  def build(mask: Mask, cfg: ChiConfig): ChiIndex = {
    val w = mask.w
    val h = mask.h
    val data = mask.data
    val bins = cfg.bins
    val nCx = nCells(w, cfg.cellW)
    val nCy = nCells(h, cfg.cellH)
    val bits = ChiIndex.bits(w, h)
    val words = new Array[Long](slotWords(w, h, cfg))
    val cells = new Array[Int](nCy * bins) // plain histograms of the current row of cells
    val column = new Array[Int](nCy * bins) // suffix sums over cell rows 0..cx, per (cy, bin)
    val run = new Array[Int](bins) // column sums over cells 0..cy of the current row
    val out = new Packer(words, 0, bits)

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
        while (b >= 1) { suffix += cells(base + b); column(base + b) += suffix; b -= 1 }
        b = 1
        while (b < bins) { run(b) += column(base + b); out.put(run(b)); b += 1 }
        cy += 1
      }
      cx += 1
    }

    out.flush()
    new ChiIndex(mask.id, w, h, cfg, words)
  }
}
