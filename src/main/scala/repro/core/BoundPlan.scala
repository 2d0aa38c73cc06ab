package repro.core

import repro.store.CatalogRow

/** Bounds on `CP(mask, roi, range)` (§3.2.1, Eqs. 3–4 for the upper bound and
  * their mirror images for the lower bound) for `w × h` masks indexed with
  * `cfg`, compiled once per value range.
  *
  * The four bins of the outer value range ⊇ `[lv, uv)` and the inner one ⊆
  * it are found once. The corners of the outer region `roi̅` and the inner
  * region `roi̲` are corner indices, found by arithmetic on the cell size
  * whenever the ROI differs from the last one evaluated: once for a
  * [[ConstRoi]], shared by every mask, and per row for a per-mask ROI. Each
  * index packs its bins at their own widths ([[ChiIndex]]), so [[eval]]
  * first reads the index's header for the start and width of the bins it
  * needs. It then reads `C` once per (region, bin) it needs, at most 32
  * counts and 16 for a bin-aligned range, and allocates nothing; its result
  * is left in [[lower]] and [[upper]]. Bin 0 of a rectangle is not
  * stored: it is the rectangle's area. The layout is the integral histogram
  * (Porikli, CVPR 2005) over summed-area tables (Crow, SIGGRAPH 1984). A plan
  * holds the state of its last evaluation, so it serves one thread.
  */
final class BoundPlan(cfg: ChiConfig, w: Int, h: Int, range: ValueRange) {
  import ChiIndex.{line, lineAtOrAbove, lineAtOrBelow}

  private val bins = cfg.bins
  private val nCy = ChiIndex.nCells(h, cfg.cellH)
  private val nCorners = ChiIndex.nCells(w, cfg.cellW) * nCy
  private val header = ChiIndex.headerWords(bins)
  private val binLoOuter = cfg.binAtOrBelow(range.lv)
  private val binHiOuter = cfg.binAtOrAbove(range.uv)
  private val binLoInner = cfg.binAtOrAbove(range.lv)
  private val binHiInner = cfg.binAtOrBelow(range.uv)

  /** The highest stored bin an evaluation reads; 0 when it reads none. */
  private val top = Seq(binLoOuter, binHiOuter, binLoInner, binHiInner).filter(_ < bins).foldLeft(0)(math.max)

  // The ROI last placed, `(x1, y1)–(x2, y2)`: its area; whether it lies in the
  // mask; the corners of roi̅ (o) and roi̲ (i) as corner indices, each -1 on
  // grid line 0; and the areas of both regions.
  private var placed = false
  private var x1, y1, x2, y2 = 0
  private var area = 0L
  private var inMask = false
  private var o11, o12, o21, o22, i11, i12, i21, i22 = 0
  private var hasInner = false
  private var outerArea, innerArea = 0L

  // The index being read: the bit at which each bin 1 … top starts, and its width.
  private var words: Array[Long] = _
  private val start = new Array[Long](top + 1)
  private val width = new Array[Int](top + 1)

  /** Bounds of the last [[eval]]. */
  var lower = 0L
  var upper = 0L

  /** Bound the term over `roi`, resolved for `row`, from the index at word
    * `base` of `words`; a negative `base` means the mask has no index, and
    * gives the trivial bounds `[0, |roi|]`. `row` is read only for a
    * per-mask ROI.
    */
  def eval(words: Array[Long], base: Int, roi: RoiSpec, row: CatalogRow): Unit = roi match {
    case ConstRoi(r) => eval(words, base, r.x1, r.y1, r.x2, r.y2)
    case ObjectRoi   => eval(words, base, row.ox1, row.oy1, row.ox2, row.oy2)
    case FullRoi     => eval(words, base, 1, 1, row.w, row.h)
  }

  /** Bound the term over the ROI `(x1, y1)–(x2, y2)`, as [[eval]] above. */
  def eval(words: Array[Long], base: Int, x1: Int, y1: Int, x2: Int, y2: Int): Unit = {
    if (!placed || x1 != this.x1 || y1 != this.y1 || x2 != this.x2 || y2 != this.y2) place(x1, y1, x2, y2)
    if (base < 0) { lower = 0L; upper = area }
    else {
      if (!inMask) throw new IllegalArgumentException(s"roi ${Roi(x1, y1, x2, y2)} outside ${w}x$h mask")
      this.words = words
      locate(base)
      // Upper bounds: Approach 1 (Eq. 3) on roi̅; Approach 2 (Eq. 4) on roi̲.
      // Lower bounds, mirrored: certain pixels inside roi̲ with values certainly
      // in range; or certain pixels in roi̅ minus the pixels possibly outside roi.
      val oLo = c(o11, o12, o21, o22, outerArea, binLoOuter)
      val oHi = c(o11, o12, o21, o22, outerArea, binHiOuter)
      upper = math.min(oLo - oHi, area)
      lower = math.max(innerCount(o11, o12, o21, o22, outerArea, oLo, oHi) - (outerArea - area), 0L)
      if (hasInner) {
        val iLo = c(i11, i12, i21, i22, innerArea, binLoOuter)
        val iHi = c(i11, i12, i21, i22, innerArea, binHiOuter)
        upper = math.min(upper, iLo - iHi + area - innerArea)
        lower = math.max(lower, innerCount(i11, i12, i21, i22, innerArea, iLo, iHi))
      }
    }
  }

  /** Take the ROI `(x1, y1)–(x2, y2)`: its area, and, when it lies within the
    * mask, the grid lines of roi̅ and roi̲.
    */
  private def place(x1: Int, y1: Int, x2: Int, y2: Int): Unit = {
    if (x1 < 1 || y1 < 1 || x2 < x1 || y2 < y1) Roi(x1, y1, x2, y2) // throws: malformed
    placed = true
    this.x1 = x1; this.y1 = y1; this.x2 = x2; this.y2 = y2
    area = (x2 - x1 + 1).toLong * (y2 - y1 + 1)
    inMask = x2 <= w && y2 <= h
    if (inMask) {
      val cw = cfg.cellW
      val ch = cfg.cellH
      val ox1 = lineAtOrBelow(x1 - 1, w, cw)
      val ox2 = lineAtOrAbove(x2, w, cw)
      val oy1 = lineAtOrBelow(y1 - 1, h, ch)
      val oy2 = lineAtOrAbove(y2, h, ch)
      val ix1 = lineAtOrAbove(x1 - 1, w, cw)
      val ix2 = lineAtOrBelow(x2, w, cw)
      val iy1 = lineAtOrAbove(y1 - 1, h, ch)
      val iy2 = lineAtOrBelow(y2, h, ch)
      hasInner = ix1 < ix2 && iy1 < iy2
      outerArea = (line(ox2, w, cw) - line(ox1, w, cw)).toLong * (line(oy2, h, ch) - line(oy1, h, ch))
      innerArea = (line(ix2, w, cw) - line(ix1, w, cw)).toLong * (line(iy2, h, ch) - line(iy1, h, ch))
      o11 = offset(ox1, oy1); o12 = offset(ox1, oy2); o21 = offset(ox2, oy1); o22 = offset(ox2, oy2)
      i11 = offset(ix1, iy1); i12 = offset(ix1, iy2); i21 = offset(ix2, iy1); i22 = offset(ix2, iy2)
    }
  }

  /** Index of corner `(cx, cy)` in a bin's counts, or -1 on grid line 0. */
  private def offset(cx: Int, cy: Int): Int = if (cx == 0 || cy == 0) -1 else (cx - 1) * nCy + (cy - 1)

  /** Read the header of the index at word `base`: where bins 1 … [[top]] start, and their widths. */
  private def locate(base: Int): Unit = {
    var p = 64L * (base + header)
    var b = 1
    while (b <= top) {
      val bits = ChiIndex.width(words, base, b)
      start(b) = p
      width(b) = bits
      p += bits.toLong * nCorners
      b += 1
    }
  }

  /** `H` at corner `k` in the bin whose counts start at bit `bin` of `words` and take `bits` each. */
  private def hAt(k: Int, bin: Long, bits: Int): Int = if (k < 0) 0 else ChiIndex.count(words, bin + k.toLong * bits, bits)

  /** `C(b)` of Eq. 2 over the rectangle with corners `p11 … p22` and area
    * `rect`: `C(0)` is the rectangle's area and `C(bins) = 0`.
    */
  private def c(p11: Int, p12: Int, p21: Int, p22: Int, rect: Long, b: Int): Long =
    if (b == bins) 0L
    else if (b == 0) rect
    else {
      val bin = start(b)
      val bits = width(b)
      (hAt(p22, bin, bits) - hAt(p12, bin, bits) - hAt(p21, bin, bits) + hAt(p11, bin, bits)).toLong
    }

  /** Pixels of the rectangle in the inner value range, given `lo` and `hi`,
    * its `C` at the outer range's bins: a bin-aligned range's inner bins are
    * its outer ones, so their counts are not read again.
    */
  private def innerCount(p11: Int, p12: Int, p21: Int, p22: Int, rect: Long, lo: Long, hi: Long): Long =
    if (binLoInner >= binHiInner) 0L
    else {
      val cLo = if (binLoInner == binLoOuter) lo else c(p11, p12, p21, p22, rect, binLoInner)
      val cHi = if (binHiInner == binHiOuter) hi else c(p11, p12, p21, p22, rect, binHiInner)
      cLo - cHi
    }
}

/** Index-only bounds of one [[GroupValue]] per unit, compiled once per query
  * over a registry. [[apply]] leaves a unit's bounds in [[lower]] and
  * [[upper]]; a bounder serves one thread.
  */
abstract class Bounder {
  var lower = 0.0
  var upper = 0.0

  def apply(rows: Seq[CatalogRow]): Unit
}

/** A [[CpExpr]]'s bounds for `w × h` masks indexed with `cfg`: one
  * [[BoundPlan]] per term, combined by interval arithmetic in the
  * expression's order of operations (a difference is `[lₐ − u_b, uₐ − l_b]`;
  * a negative scale swaps the ends). The only code that combines term
  * bounds. A plan reads a slab's slot ([[ChiSlab.eval]]) or a single
  * [[ChiIndex]] of that shape, and serves one thread.
  */
final class ExprPlan(expr: CpExpr, cfg: ChiConfig, w: Int, h: Int) {

  /** `expr` compiled for the masks of `slab`. */
  def this(expr: CpExpr, slab: ChiSlab) = this(expr, slab.cfg, slab.w, slab.h)

  private abstract class Node {
    var lo = 0.0
    var hi = 0.0
    def eval(words: Array[Long], base: Int, row: CatalogRow): Unit
  }

  private def compile(e: CpExpr): Node = e match {
    case CpTermExpr(t) =>
      val p = new BoundPlan(cfg, w, h, t.range)
      new Node {
        def eval(words: Array[Long], base: Int, row: CatalogRow): Unit = {
          p.eval(words, base, t.roi, row); lo = p.lower.toDouble; hi = p.upper.toDouble
        }
      }
    case CpAdd(a, b) =>
      val (x, y) = (compile(a), compile(b))
      new Node {
        def eval(words: Array[Long], base: Int, row: CatalogRow): Unit = {
          x.eval(words, base, row); y.eval(words, base, row); lo = x.lo + y.lo; hi = x.hi + y.hi
        }
      }
    case CpSub(a, b) =>
      val (x, y) = (compile(a), compile(b))
      new Node {
        def eval(words: Array[Long], base: Int, row: CatalogRow): Unit = {
          x.eval(words, base, row); y.eval(words, base, row); lo = x.lo - y.hi; hi = x.hi - y.lo
        }
      }
    case CpScale(k, a) =>
      val x = compile(a)
      new Node {
        def eval(words: Array[Long], base: Int, row: CatalogRow): Unit = {
          x.eval(words, base, row)
          if (k >= 0) { lo = k * x.lo; hi = k * x.hi } else { lo = k * x.hi; hi = k * x.lo }
        }
      }
  }

  private val root = compile(expr)

  /** Bounds of the last [[eval]]. */
  var lower = 0.0
  var upper = 0.0

  /** Bound `expr` for `row`'s mask from the index at word `base` of `words`;
    * a negative `base` means the mask has no index, and gives every term
    * the trivial bounds `[0, |roi|]`.
    */
  def eval(words: Array[Long], base: Int, row: CatalogRow): Unit = {
    root.eval(words, base, row)
    lower = root.lo
    upper = root.hi
  }
}
