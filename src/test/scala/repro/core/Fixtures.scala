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

  /** Index of the grid line at `v` along a dimension of `dim` pixels cut
    * into cells of `cell`, or -1 when `v` is not one.
    */
  def lineIndex(v: Int, dim: Int, cell: Int): Int =
    if (v == dim) ChiIndex.nCells(dim, cell) else if (v >= 0 && v < dim && v % cell == 0) v / cell else -1

  /** True iff `r` is an *available region* of `idx` (Definition 3.1): both
    * corners sit on grid lines.
    */
  def isAvailable(idx: ChiIndex, r: Roi): Boolean = {
    val (w, h, cw, ch) = (idx.w, idx.h, idx.cfg.cellW, idx.cfg.cellH)
    lineIndex(r.x1 - 1, w, cw) >= 0 && lineIndex(r.x2, w, cw) >= 0 && lineIndex(r.y1 - 1, h, ch) >= 0 && lineIndex(r.y2, h, ch) >= 0
  }

  /** `C(mask, r)` (Eq. 2): the reverse-cumulative histogram of the available
    * region `r`, by 2-D inclusion–exclusion over four `hLookup`s per bin. It
    * has `bins + 1` entries with `C(bins) == 0`, so the pixels with values
    * in `[boundary(i), boundary(j))` number `C(i) − C(j)`. The definition
    * [[referenceBounds]], and through it every bound, is checked against.
    */
  def cHist(idx: ChiIndex, r: Roi): Array[Int] = {
    val (w, h, cfg) = (idx.w, idx.h, idx.cfg)
    val cx1 = lineIndex(r.x1 - 1, w, cfg.cellW)
    val cx2 = lineIndex(r.x2, w, cfg.cellW)
    val cy1 = lineIndex(r.y1 - 1, h, cfg.cellH)
    val cy2 = lineIndex(r.y2, h, cfg.cellH)
    require(cx1 >= 0 && cx2 >= 0 && cy1 >= 0 && cy2 >= 0, s"region $r not available in CHI of mask ${idx.maskId}")
    Array.tabulate(cfg.bins + 1) { b =>
      if (b == cfg.bins) 0
      else idx.hLookup(cx2, cy2, b) - idx.hLookup(cx1, cy2, b) - idx.hLookup(cx2, cy1, b) + idx.hLookup(cx1, cy1, b)
    }
  }

  /** The smallest available region of `idx` covering `roi` (the paper's
    * `roi̅`). Always exists because the full mask is available.
    */
  def outerRegion(idx: ChiIndex, roi: Roi): Roi = {
    import ChiIndex.{line, lineAtOrAbove, lineAtOrBelow}
    val (w, h, cw, ch) = (idx.w, idx.h, idx.cfg.cellW, idx.cfg.cellH)
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    Roi(
      line(lineAtOrBelow(roi.x1 - 1, w, cw), w, cw) + 1,
      line(lineAtOrBelow(roi.y1 - 1, h, ch), h, ch) + 1,
      line(lineAtOrAbove(roi.x2, w, cw), w, cw),
      line(lineAtOrAbove(roi.y2, h, ch), h, ch),
    )
  }

  /** The largest available region of `idx` covered by `roi` (the paper's
    * `roi̲`), or None when `roi` contains no grid-aligned rectangle.
    */
  def innerRegion(idx: ChiIndex, roi: Roi): Option[Roi] = {
    import ChiIndex.{line, lineAtOrAbove, lineAtOrBelow}
    val (w, h, cw, ch) = (idx.w, idx.h, idx.cfg.cellW, idx.cfg.cellH)
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    val x1 = line(lineAtOrAbove(roi.x1 - 1, w, cw), w, cw) + 1
    val y1 = line(lineAtOrAbove(roi.y1 - 1, h, ch), h, ch) + 1
    val x2 = line(lineAtOrBelow(roi.x2, w, cw), w, cw)
    val y2 = line(lineAtOrBelow(roi.y2, h, ch), h, ch)
    if (x1 <= x2 && y1 <= y2) Some(Roi(x1, y1, x2, y2)) else None
  }

  /** Eqs. 3–4 and their lower mirrors evaluated on the full `C` histograms
    * (Eq. 2) of `roi̅` and `roi̲`: the definition every [[BoundPlan]]
    * evaluation, [[ChiIndex.bounds]] included, must equal exactly.
    */
  def referenceBounds(idx: ChiIndex, roi: Roi, range: ValueRange): CpBounds = {
    val cfg = idx.cfg
    val (loO, hiO) = (cfg.binAtOrBelow(range.lv), cfg.binAtOrAbove(range.uv))
    val (loI, hiI) = (cfg.binAtOrAbove(range.lv), cfg.binAtOrBelow(range.uv))
    def outer(c: Array[Int]): Long = (c(loO) - c(hiO)).toLong
    def inner(c: Array[Int]): Long = if (loI >= hiI) 0L else (c(loI) - c(hiI)).toLong
    val ro = outerRegion(idx, roi)
    val cRo = cHist(idx, ro)
    val ri = innerRegion(idx, roi)
    val upper2 = ri.fold(roi.area)(r => outer(cHist(idx, r)) + roi.area - r.area)
    val lower1 = ri.fold(0L)(r => inner(cHist(idx, r)))
    val lower2 = inner(cRo) - (ro.area - roi.area)
    CpBounds(math.max(math.max(lower1, lower2), 0L), math.min(math.min(outer(cRo), upper2), roi.area))
  }

  /** Interval bounds of `expr` from per-term bounds (§3.3), written
    * recursively over the expression: the definition [[ExprPlan]] must
    * equal exactly, since both combine the same doubles in the same order.
    */
  def referenceInterval(expr: CpExpr, term: CpTerm => CpBounds): (Double, Double) = expr match {
    case CpTermExpr(t) =>
      val b = term(t); (b.lower.toDouble, b.upper.toDouble)
    case CpAdd(a, b) =>
      val (al, au) = referenceInterval(a, term); val (bl, bu) = referenceInterval(b, term)
      (al + bl, au + bu)
    case CpSub(a, b) =>
      val (al, au) = referenceInterval(a, term); val (bl, bu) = referenceInterval(b, term)
      (al - bu, au - bl)
    case CpScale(c, e) =>
      val (l, u) = referenceInterval(e, term)
      if (c >= 0) (c * l, c * u) else (c * u, c * l)
  }

  /** [[referenceInterval]] of `expr` for `row`'s mask, from [[referenceBounds]]
    * on `idx`, or `[0, |roi|]` per term when there is no index.
    */
  def referenceRowInterval(expr: CpExpr, row: repro.store.CatalogRow, idx: Option[ChiIndex]): (Double, Double) =
    referenceInterval(expr, t => {
      val roi = t.roi.resolve(row)
      idx.fold(CpBounds(0L, roi.area))(referenceBounds(_, roi, t.range))
    })

  /** `expr`'s [[ExprPlan]] bounds for `row`'s mask over `slab`. */
  def planBounds(expr: CpExpr, slab: ChiSlab, row: repro.store.CatalogRow): (Double, Double) = {
    val plan = new ExprPlan(expr, slab)
    slab.eval(plan, row)
    (plan.lower, plan.upper)
  }

  /** Bytes of `m`'s index with `cfg`, worked out from its pixels: a header
    * word per 12 stored bins, then bin `b`'s count at every corner in the
    * bit length of `T_b`, the mask's pixels at or above `boundary(b)`, all
    * padded to a whole word.
    */
  def packedBytes(m: Mask, cfg: ChiConfig): Long = {
    val corners = ChiIndex.nCells(m.w, cfg.cellW).toLong * ChiIndex.nCells(m.h, cfg.cellH)
    val bits = (1 until cfg.bins).map(b => 32 - Integer.numberOfLeadingZeros(m.data.count(_ >= cfg.boundary(b)))).sum
    8L * (math.ceil((cfg.bins - 1) / 12.0).toLong + (corners * bits + 63) / 64)
  }

  /** `m`'s per-cell counts with `cfg`, worked out from its pixels: per cell
    * in order (cx, cy), the pixels at or above `boundary(b)` for each bin
    * `b = 0 … bins − 1`, bin 0 being the cell's pixel count.
    */
  def perCell(m: Mask, cfg: ChiConfig): Seq[IndexedSeq[Int]] =
    for (x0 <- 0 until m.w by cfg.cellW; y0 <- 0 until m.h by cfg.cellH) yield {
      val cell = for (x <- x0 until math.min(x0 + cfg.cellW, m.w); y <- y0 until math.min(y0 + cfg.cellH, m.h))
        yield m.data(x * m.h + y)
      (0 until cfg.bins).map(b => cell.count(_ >= cfg.boundary(b)))
    }

  private def bitLength(v: Long): Int = 64 - java.lang.Long.numberOfLeadingZeros(v)

  /** Bits of `m`'s per-cell counts in the bounded-integer code: each count
    * takes the bit length of its cell's count one bin below.
    */
  def plainBits(m: Mask, cfg: ChiConfig): Long =
    perCell(m, cfg).map(cs => (1 until cfg.bins).map(b => bitLength(cs(b - 1))).sum.toLong).sum

  /** Bits of the table of a stream of `w × h` masks' indexes with `cfg`:
    * for each bin `b ≥ 1` and each `c` from 1 to the bit length of the
    * largest cell's pixels, an order in `bitLength(c)` bits and a direction
    * bit.
    */
  def tableBits(cfg: ChiConfig, w: Int, h: Int): Long =
    (cfg.bins - 1).toLong * (1 to bitLength(math.min(cfg.cellW, w).toLong * math.min(cfg.cellH, h))).map(c => bitLength(c) + 1).sum

  /** Bits of `x ∈ [0, prev]` in the truncated exp-Golomb code of order `k`:
    * with `v = x + 2^k`, `bitLength(v) − k − 1` zero bits, then `v`, without
    * its leading 1 when `v` has as many bits as `prev + 2^k`.
    */
  def codeBits(x: Long, k: Int, prev: Long): Int = {
    val (v, last) = (x + (1L << k), prev + (1L << k))
    bitLength(v) - k - 1 + bitLength(v) - (if (bitLength(v) == bitLength(last)) 1 else 0)
  }

  /** Bits of the counts' bitstream of one stream of the indexes of `masks`
    * with `cfg` (all of one shape), worked out from their pixels: the table
    * ([[tableBits]]), and per context `(b, c)` of a count at bin `b` whose
    * cell holds `prev` pixels one bin below, `c = bitLength(prev) ≥ 1`, the
    * fewest bits that one order `k ∈ [0, c]` codes all its counts `d` in,
    * applied to `d` or to `prev − d`.
    */
  def wireBits(masks: Seq[Mask], cfg: ChiConfig): Long = {
    val contexts = (for (m <- masks; cs <- perCell(m, cfg); b <- 1 until cfg.bins if cs(b - 1) > 0)
      yield (b, bitLength(cs(b - 1))) -> (cs(b - 1), cs(b))).groupMap(_._1)(_._2)
    val counts = contexts.toSeq.map { case ((_, c), pairs) =>
      (for (k <- 0 to c; down <- Seq(false, true))
        yield pairs.map { case (prev, d) => codeBits(if (down) prev - d else d, k, prev).toLong }.sum).min
    }.sum
    (if (masks.isEmpty) 0L else tableBits(cfg, masks.head.w, masks.head.h)) + counts
  }

  /** [[wireBits]] of `m`'s index alone. */
  def wireBits(m: Mask, cfg: ChiConfig): Long = wireBits(Seq(m), cfg)

  /** The floats at the edges of `cfg`'s bins: 0, the float below 1, and for
    * each interior edge the smallest float at or above it and the float
    * just below that.
    */
  def edgeFloats(cfg: ChiConfig): IndexedSeq[Float] =
    Vector(0f, Math.nextDown(1f)) ++ (1 until cfg.bins).flatMap { b =>
      val f0 = cfg.boundary(b).toFloat
      val f = if (f0.toDouble < cfg.boundary(b)) Math.nextUp(f0) else f0
      Seq(Math.nextDown(f), f)
    }

  /** Every `w × h` mask whose pixels take values from `values`:
    * `values.size^(w·h)` masks, mask `i` holding in pixel `p` the value at
    * digit `p` of `i` in base `values.size`. A universe small enough to
    * enumerate, for checks that must hold on every mask of a domain.
    */
  def universe(w: Int, h: Int, values: IndexedSeq[Float]): Iterator[Mask] = {
    val n = values.size
    Iterator.iterate(0L)(_ + 1).take(math.pow(n.toDouble, (w * h).toDouble).toInt).map { i =>
      var rest = i
      Mask(i, w, h, Array.fill(w * h) { val v = values((rest % n).toInt); rest /= n; v })
    }
  }

  /** A slab of the indexes of `masks`, each built with `cfg`, keyed by mask id in that order: a build task's piece. */
  def slabOf(cfg: ChiConfig, masks: Seq[Mask]): ChiSlab = ChiSlab.of(cfg, masks.map(m => m.id -> ChiIndex.build(m, cfg)))

  /** A registry of `indexes`, each built with `cfg`, keyed by mask id, with no aggregates. */
  def registryOf(cfg: ChiConfig, indexes: Seq[ChiIndex]): ChiRegistry =
    new ChiRegistry(cfg, ChiSlab.of(cfg, indexes.map(i => i.maskId -> i)), ChiSlab.empty(cfg))

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
