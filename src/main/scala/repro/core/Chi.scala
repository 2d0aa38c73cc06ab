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

  /** Every `boundary`, so the range selectors do no division. This field and
    * the two below derive from `bins`: not serialised, rebuilt on read.
    */
  @transient private val edges: Array[Double] = Array.tabulate(bins + 1)(boundary)

  /** The smallest float at or above each `boundary`. Float → double is
    * monotone, so a float pixel `v` has `v ≥ boundary(b)` iff
    * `v ≥ floatEdges(b)`.
    */
  @transient private val floatEdges: Array[Float] = Array.tabulate(bins + 1) { b =>
    val f = boundary(b).toFloat
    if (f.toDouble < boundary(b)) Math.nextUp(f) else f
  }

  /** `bins` shrunk by 2⁻²⁰. With at most 2¹⁹ bins, `(v · binsDown).toInt` is
    * the bin of `v` or the one below it: three float roundings (2⁻²⁴ each) and
    * the edges' double rounding cannot undo a relative shrink of 2⁻²⁰, which
    * moves `v · bins` by less than one bin.
    */
  @transient private val binsDown: Float = (bins * (1.0 - 1.0 / (1 << 20))).toFloat

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

  /** The most bytes the index of one `w × h` mask can hold: its header words
    * ([[ChiIndex.headerWords]]), and bins 1 … b−1 of each interior corner at
    * [[ChiIndex.bits]] bits, the bit length of `w·h`, rounded up to a whole
    * 64-bit word. A 56×56 ImageNet-lite index with 8×8 cells
    * and 10 bins holds at most one header word and 441 counts of 12 bits, in
    * 84 words: 672 B. An index holds less whenever a bin's total is below
    * 2¹¹ ([[ChiIndex.sizeBytes]]).
    */
  def sizeBytes(w: Int, h: Int): Long = {
    val stored = ChiIndex.nCells(w, cellW).toLong * ChiIndex.nCells(h, cellH) * (bins - 1)
    8L * (ChiIndex.headerWords(bins) + ((stored * ChiIndex.bits(w, h) + 63) >>> 6))
  }

  /** A read config is built anew, so its derived fields are set and its `require` holds. */
  private def readResolve(): AnyRef = ChiConfig(cellW, cellH, bins)
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
  * The flat layout with `(bin, cx, cy)` acting as offsets mirrors the
  * paper's optimized index structure: no keys are stored and lookups are
  * arithmetic on one array. Bin 0 is not stored: it is the area of the
  * corner's rectangle. Bins 1 … b−1 are stored bin-major, each at its own
  * width: bin `b`'s total `T_b`, its count at the last corner, bounds every
  * count of the bin, so they take `w_b = bitlen(T_b)` bits each (per-block
  * binary packing, Lemire & Boytsov, SPE 2015), and a bin no pixel reaches
  * takes none. The index is [[ChiIndex.headerWords]] header words, with
  * `w_b` in 5-bit fields, 12 to a word, followed by bin `b`'s counts, one
  * per corner, from bit `Σ_{b' < b} nCorners·w_b'` after the header; all in
  * the 64-bit words from `base` of `words`, padded to a whole word.
  * [[ChiIndex.count]] is the one reader of a count and [[ChiIndex.pack]] the
  * one writer of an index. An index built on its own owns its words
  * (`base` 0), and an index a [[ChiSlab]] hands out is a view of one of its
  * slots.
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
  private def nCorners: Int = ChiIndex.nCells(w, cfg.cellW) * nCy

  /** Number of counts of `H`, bin 0 included: `nCx · nCy · bins`. */
  def length: Int = nCorners * cfg.bins

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
      val width = ChiIndex.width(words, base, bin)
      val corner = (cx - 1) * nCy + (cy - 1)
      ChiIndex.count(words, ChiIndex.binStart(words, base, nCorners, cfg.bins, bin) + corner.toLong * width, width)
    }

  /** The count at offset `i` of `H` in storage order: corner-major, bin 0 included. */
  private def at(i: Int): Int = {
    val corner = i / cfg.bins
    hLookup(corner / nCy + 1, corner % nCy + 1, i % cfg.bins)
  }

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

  /** Size of this index in bytes: the words it holds, header included; at most [[ChiConfig.sizeBytes]]. */
  def sizeBytes: Long = 8L * (((ChiIndex.binStart(words, base, nCorners, cfg.bins, cfg.bins) + 63) >>> 6) - base)

  /** An index, a view too, serialises as a stream of its own key and per-cell counts ([[CellCounts]]), not the slab's. */
  private def writeReplace(): AnyRef =
    new ChiIndex.Wire(CellCounts(cfg, w, h, Array(maskId), CellCounts.NoMembers, words, base))
}

/** A `[lower, upper]` interval that is guaranteed to contain the exact CP
  * value.
  */
final case class CpBounds(lower: Long, upper: Long) {
  require(lower <= upper, s"inverted bounds [$lower, $upper]")
  def exact: Boolean = lower == upper
}

object ChiIndex {

  /** The widest a count of a `w × h` mask's index can be: the bit length of
    * `w·h` (12 for 56×56, 14 for 112×112, 18 for 448²). A bin takes this
    * width when its total reaches `2^(bits − 1)`, more than half the mask's
    * pixels.
    */
  def bits(w: Int, h: Int): Int = 64 - java.lang.Long.numberOfLeadingZeros(w.toLong * h)

  /** Header words of an index with `bins` bins: a 5-bit width for each of
    * bins 1 … bins − 1, 12 to a word; none for a single bin.
    */
  def headerWords(bins: Int): Int = (bins + 10) / 12

  /** Bits per count of bin `b ≥ 1` of the index at word `base`: its header field. */
  def width(words: Array[Long], base: Int, b: Int): Int = (words(base + (b - 1) / 12) >>> (5 * ((b - 1) % 12))).toInt & 31

  /** The bit of `words` at which bin `b`'s counts start in the index at word
    * `base` with `nCorners` corners and `bins` bins; for `b = bins`, the bit
    * after its last count.
    */
  def binStart(words: Array[Long], base: Int, nCorners: Int, bins: Int, b: Int): Long = {
    var p = 64L * (base + headerWords(bins))
    var i = 1
    while (i < b) { p += width(words, base, i).toLong * nCorners; i += 1 }
    p
  }

  /** The count packed at `bits` bits from bit `p` of `words`: the one reader
    * of a count. Bin `b`'s count at corner `k` of an index starts at bit
    * `binStart(b) + k · width(b)`. It also reads the next word (the same one
    * at the array's end) and keeps its bits only when the count straddles
    * the two words, so it has no branch. Both reads are clamped to the
    * array, so a count of width 0 reads 0 wherever `p` lies.
    */
  def count(words: Array[Long], p: Long, bits: Int): Int = {
    val last = words.length - 1
    val at = math.min((p >>> 6).toInt, last)
    val shift = p.toInt & 63
    val next = words(math.min(at + 1, last))
    ((words(at) >>> shift | next << 1 << (63 - shift)) & ((1L << bits) - 1)).toInt
  }

  /** Packs counts into `words` from word `at` on: an index's in storage
    * order, or a wire stream's ([[CellCounts]]). It keeps the word being
    * filled in a register and stores each word once, when it is full or at
    * [[flush]].
    */
  private[core] final class Packer(val words: Array[Long], private var at: Int) {
    private var acc = 0L
    private var used = 0

    /** Append `v ≥ 0`, which must fit in `bits` ≤ 63 bits. */
    def put(v: Long, bits: Int): Unit = {
      acc |= v << used
      used += bits
      if (used >= 64) {
        words(at) = acc
        at += 1
        used -= 64
        acc = if (used == 0) 0L else v >>> (bits - used) // the part of `v` that straddles into the next word
      }
    }

    /** Store the last, partly filled word. */
    def flush(): Unit = if (used > 0) words(at) = acc

    /** The word after the last one written to, partly filled or not. */
    def end: Int = if (used > 0) at + 1 else at
  }

  /** Bits per count of each stored bin of the counts `hs`, which hold bins
    * 1 … bins − 1 bin-major (bin `b`'s count at corner `k` at
    * `hs((b − 1) · nCorners + k)`): the bit length of the bin's total `T_b`,
    * its count at the last corner. That is its largest count whenever the
    * per-cell counts are non-negative, as [[build]] makes them and
    * [[CellCounts]] checks them. Entry 0 is unused.
    */
  private[core] def widths(hs: Array[Int], nCorners: Int, bins: Int): Array[Int] = {
    val ws = new Array[Int](bins)
    var b = 1
    while (b < bins) { ws(b) = 32 - Integer.numberOfLeadingZeros(hs(b * nCorners - 1)); b += 1 }
    ws
  }

  /** Words of an index with `nCorners` corners and bin widths `ws` ([[widths]]). */
  private[core] def packedWords(ws: Array[Int], nCorners: Int): Int = {
    var n = 0L
    var b = 1
    while (b < ws.length) { n += ws(b).toLong * nCorners; b += 1 }
    headerWords(ws.length) + ((n + 63) >>> 6).toInt
  }

  /** Write the index of the counts `hs`, bin-major as [[widths]] takes them,
    * at bin widths `ws`, from word `at` of `words`: its header words, then
    * each bin's counts. The one writer of an index; it takes
    * [[packedWords]] words.
    */
  private[core] def pack(hs: Array[Int], ws: Array[Int], nCorners: Int, words: Array[Long], at: Int): Unit = {
    val bins = ws.length
    var hw = 0
    while (hw < headerWords(bins)) {
      var field = 0L
      for (b <- math.min(12 * hw + 12, bins - 1) until 12 * hw by -1) field = field << 5 | ws(b)
      words(at + hw) = field
      hw += 1
    }
    val out = new Packer(words, at + hw)
    var i = 0
    var b = 1
    while (b < bins) {
      val bits = ws(b)
      val end = i + nCorners
      while (i < end) { out.put(hs(i), bits); i += 1 }
      b += 1
    }
    out.flush()
  }

  /** Read the index at word `base` into `hs`, bin-major as [[widths]] takes
    * them; returns the words it holds.
    */
  private[core] def unpack(words: Array[Long], base: Int, nCorners: Int, bins: Int, hs: Array[Int]): Int = {
    var p = 64L * (base + headerWords(bins))
    var i = 0
    var b = 1
    while (b < bins) {
      val bits = width(words, base, b)
      val end = i + nCorners
      while (i < end) { hs(i) = count(words, p, bits); p += bits; i += 1 }
      b += 1
    }
    (((p + 63) >>> 6) - base).toInt
  }

  /** The index of mask `maskId` with the counts `hs`, bin-major as
    * [[widths]] takes them, in words of its own. Checks nothing: [[build]],
    * its caller, makes non-negative per-cell counts.
    */
  private[core] def packed(maskId: Long, w: Int, h: Int, cfg: ChiConfig, hs: Array[Int]): ChiIndex = {
    val nCorners = nCells(w, cfg.cellW) * nCells(h, cfg.cellH)
    val ws = widths(hs, nCorners, cfg.bins)
    val words = new Array[Long](packedWords(ws, nCorners))
    pack(hs, ws, nCorners, words, 0)
    new ChiIndex(maskId, w, h, cfg, words)
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

  /** The wire form of an index: one index under its key in a stream of its own. */
  private final class Wire(counts: CellCounts) extends Serializable {
    private def readResolve(): AnyRef = {
      if (counts.n != 1) throw new java.io.InvalidObjectException(s"CHI stream of one index holds ${counts.n}")
      new ChiIndex(counts.keys(0), counts.w, counts.h, counts.cfg, counts.words)
    }
  }

  /** Build the CHI of `mask` in one pass over its pixels, one row of cells at
    * a time: the row's per-cell histograms (checking that every pixel lies in
    * [0, 1)), their suffix sums along the bin axis (reverse cumulative), added
    * to running column sums, whose prefix sums along the row give `H`, which
    * is then packed at its bins' widths, each its total's bit length. Bin 0,
    * the rectangle's area, is not summed. O(w·h + cells·bins).
    */
  def build(mask: Mask, cfg: ChiConfig): ChiIndex = {
    val w = mask.w
    val h = mask.h
    val data = mask.data
    val bins = cfg.bins
    val nCx = nCells(w, cfg.cellW)
    val nCy = nCells(h, cfg.cellH)
    val nCorners = nCx * nCy
    val hs = new Array[Int](nCorners * (bins - 1)) // H of bins 1 … bins − 1, bin-major
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
        val corner = cx * nCy + cy
        var suffix = 0
        var b = bins - 1
        while (b >= 1) { suffix += cells(base + b); column(base + b) += suffix; b -= 1 }
        b = 1
        while (b < bins) { run(b) += column(base + b); hs((b - 1) * nCorners + corner) = run(b); b += 1 }
        cy += 1
      }
      cx += 1
    }
    packed(mask.id, w, h, cfg, hs)
  }
}
