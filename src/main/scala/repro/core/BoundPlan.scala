package repro.core

import repro.store.CatalogRow

/** Bounds on `CP(mask, roi, range)` (§3.2.1, Eqs. 3–4 for the upper bound and
  * their mirror images for the lower bound) for `w × h` masks indexed with
  * `cfg`, compiled once per (roi, range) term.
  *
  * The four bins of the outer value range ⊇ `[lv, uv)` and the inner one ⊆
  * it are found once. The corners of the outer region `roi̅` and the inner
  * region `roi̲` are offsets into one index, found by arithmetic on the cell
  * size: once for a [[ConstRoi]], shared by every mask, and per row for a
  * per-mask ROI. Either way [[eval]] reads at most 16 counts and allocates
  * nothing; its result is left in [[lower]] and [[upper]]. The layout is the
  * integral histogram (Porikli, CVPR 2005) over summed-area tables (Crow,
  * SIGGRAPH 1984). A plan holds the state of its last evaluation, so it
  * serves one thread.
  */
final class BoundPlan(cfg: ChiConfig, w: Int, h: Int, roi: RoiSpec, range: ValueRange) {
  import ChiIndex.{line, lineAtOrAbove, lineAtOrBelow}

  private val bins = cfg.bins
  private val nCy = ChiIndex.nCells(h, cfg.cellH)
  private val binLoOuter = cfg.binAtOrBelow(range.lv)
  private val binHiOuter = cfg.binAtOrAbove(range.uv)
  private val binLoInner = cfg.binAtOrAbove(range.lv)
  private val binHiInner = cfg.binAtOrBelow(range.uv)

  // The ROI of the row being bounded: its area, the corner offsets of roi̅ (o)
  // and roi̲ (i), each -1 on grid line 0, and the areas of both regions.
  private var area = 0L
  private var o11, o12, o21, o22, i11, i12, i21, i22 = 0
  private var hasInner = false
  private var outerArea, innerArea = 0L

  // The index being read.
  private var low: Array[Char] = _
  private var high: Array[Char] = _
  private var base = 0

  /** Bounds of the last [[eval]]. */
  var lower = 0L
  var upper = 0L

  roi match {
    case ConstRoi(r) => place(r.x1, r.y1, r.x2, r.y2, index = w > 0)
    case _           =>
  }

  /** Bound the term for `row` from the index at offset `base` of `low` and
    * `high`; a negative `base` means the mask has no index, and gives the
    * trivial bounds `[0, |roi|]`. `row` is read only for a per-mask ROI.
    */
  def eval(low: Array[Char], high: Array[Char], base: Int, row: CatalogRow): Unit = {
    roi match {
      case ObjectRoi => place(row.ox1, row.oy1, row.ox2, row.oy2, index = base >= 0)
      case FullRoi   => place(1, 1, row.w, row.h, index = base >= 0)
      case ConstRoi(_) =>
    }
    if (base < 0) { lower = 0L; upper = area }
    else {
      this.low = low
      this.high = high
      this.base = base
      // Upper bounds: Approach 1 (Eq. 3) on roi̅; Approach 2 (Eq. 4) on roi̲.
      val upper1 = rangeCount(o11, o12, o21, o22, binLoOuter, binHiOuter)
      val upper2 = if (hasInner) rangeCount(i11, i12, i21, i22, binLoOuter, binHiOuter) + area - innerArea else area
      // Lower bounds, mirrored: certain pixels inside roi̲ with values certainly
      // in range; or certain pixels in roi̅ minus the pixels possibly outside roi.
      val lower1 = if (hasInner) innerCount(i11, i12, i21, i22) else 0L
      val lower2 = innerCount(o11, o12, o21, o22) - (outerArea - area)
      upper = math.min(math.min(upper1, upper2), area)
      lower = math.max(math.max(lower1, lower2), 0L)
    }
  }

  /** Take the ROI `(x1, y1)–(x2, y2)`; with `index`, also the grid lines of
    * roi̅ and roi̲ it needs, which requires it to lie within the mask.
    */
  private def place(x1: Int, y1: Int, x2: Int, y2: Int, index: Boolean): Unit = {
    if (x1 < 1 || y1 < 1 || x2 < x1 || y2 < y1) Roi(x1, y1, x2, y2) // throws: malformed
    area = (x2 - x1 + 1).toLong * (y2 - y1 + 1)
    if (index) {
      require(x2 <= w && y2 <= h, s"roi ${Roi(x1, y1, x2, y2)} outside ${w}x$h mask")
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

  /** Offset of corner `(cx, cy)`'s bins within an index, or -1 on grid line 0. */
  private def offset(cx: Int, cy: Int): Int = if (cx == 0 || cy == 0) -1 else ((cx - 1) * nCy + (cy - 1)) * bins

  /** `H` at the corner at offset `at`, in `bin`. */
  private def hAt(at: Int, bin: Int): Int = if (at < 0) 0 else ChiIndex.count(low, high, base + at + bin)

  /** `C(b)` of Eq. 2 over the rectangle with corner offsets `p11 … p22`; `C(bins) = 0`. */
  private def c(p11: Int, p12: Int, p21: Int, p22: Int, b: Int): Int =
    if (b == bins) 0 else hAt(p22, b) - hAt(p12, b) - hAt(p21, b) + hAt(p11, b)

  /** Pixels of the rectangle with values in `[boundary(i), boundary(j))`. */
  private def rangeCount(p11: Int, p12: Int, p21: Int, p22: Int, i: Int, j: Int): Long =
    (c(p11, p12, p21, p22, i) - c(p11, p12, p21, p22, j)).toLong

  private def innerCount(p11: Int, p12: Int, p21: Int, p22: Int): Long =
    if (binLoInner >= binHiInner) 0L else rangeCount(p11, p12, p21, p22, binLoInner, binHiInner)
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

/** A [[CpExpr]]'s bounds over the masks of a [[ChiSlab]]: one [[BoundPlan]]
  * per term, combined by the interval arithmetic of [[CpExpr.bounds]], in its
  * order of operations. A mask the slab does not hold gets the trivial
  * bounds per term.
  */
final class ExprPlan(expr: CpExpr, slab: ChiSlab) extends Bounder {

  private abstract class Node {
    var lo = 0.0
    var hi = 0.0
    def eval(base: Int, row: CatalogRow): Unit
  }

  private def compile(e: CpExpr): Node = e match {
    case CpTermExpr(t) =>
      val p = new BoundPlan(slab.cfg, slab.w, slab.h, t.roi, t.range)
      new Node {
        def eval(base: Int, row: CatalogRow): Unit = {
          p.eval(slab.low, slab.high, base, row); lo = p.lower.toDouble; hi = p.upper.toDouble
        }
      }
    case CpAdd(a, b) =>
      val (x, y) = (compile(a), compile(b))
      new Node {
        def eval(base: Int, row: CatalogRow): Unit = {
          x.eval(base, row); y.eval(base, row); lo = x.lo + y.lo; hi = x.hi + y.hi
        }
      }
    case CpSub(a, b) =>
      val (x, y) = (compile(a), compile(b))
      new Node {
        def eval(base: Int, row: CatalogRow): Unit = {
          x.eval(base, row); y.eval(base, row); lo = x.lo - y.hi; hi = x.hi - y.lo
        }
      }
    case CpScale(k, a) =>
      val x = compile(a)
      new Node {
        def eval(base: Int, row: CatalogRow): Unit = {
          x.eval(base, row)
          if (k >= 0) { lo = k * x.lo; hi = k * x.hi } else { lo = k * x.hi; hi = k * x.lo }
        }
      }
  }

  private val root = compile(expr)

  /** Bound `expr` for one catalog row's mask. */
  def row(r: CatalogRow): Unit = {
    root.eval(slab.base(r.mask_id), r)
    lower = root.lo
    upper = root.hi
  }

  def apply(rows: Seq[CatalogRow]): Unit = row(rows.head)
}
