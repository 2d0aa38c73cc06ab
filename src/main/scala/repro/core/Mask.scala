package repro.core

/** A rectangular region of interest, 1-indexed and inclusive on both corners,
  * matching the paper's convention: `((x1, y1), (x2, y2))` spans columns
  * `x1..x2` and rows `y1..y2`. Following the paper's Figure 4, `x` indexes
  * rows and `y` indexes columns of the mask; since all regions here are
  * axis-aligned rectangles the distinction only matters for bounds checks.
  */
final case class Roi(x1: Int, y1: Int, x2: Int, y2: Int) {
  require(x1 >= 1 && y1 >= 1 && x2 >= x1 && y2 >= y1, s"malformed roi ($x1,$y1)-($x2,$y2)")

  /** Number of pixels covered by this region (the paper's `|roi|`). */
  def area: Long = (x2 - x1 + 1).toLong * (y2 - y1 + 1).toLong

  /** True iff this region lies fully within a `w × h` mask. */
  def within(w: Int, h: Int): Boolean = x2 <= w && y2 <= h
}

object Roi {
  /** The full-mask region (the paper writes `CP(mask, -, ...)`). */
  def full(w: Int, h: Int): Roi = Roi(1, 1, w, h)
}

/** A half-open pixel-value range `[lv, uv)` as used by the CP function. */
final case class ValueRange(lv: Double, uv: Double) {
  require(lv <= uv, s"malformed value range [$lv, $uv)")
}

/** An image mask: a dense `w × h` array of float pixel values in [0, 1).
  *
  * Pixels are stored row-major: `data(i)` holds the pixel at 1-indexed
  * coordinates `(x, y) = (i / h + 1, i % h + 1)` — i.e. `x` selects the row
  * and `y` the column, matching [[Roi]].
  */
final case class Mask(id: Long, w: Int, h: Int, data: Array[Float]) {
  require(data.length == w * h, s"mask $id: ${data.length} pixels for ${w}x$h")

  /** Fails unless every pixel lies in the domain [0, 1), which excludes NaN.
    * A pixel outside it has no CHI bin and is never counted by [[cp]], so an
    * index built over it would give unsound bounds.
    */
  def checkDomain(): Unit = {
    val i = data.indexWhere(v => !Mask.inDomain(v))
    if (i >= 0) outsideDomain(i)
  }

  /** The error for pixel `i`, which lies outside [0, 1). */
  def outsideDomain(i: Int): Nothing =
    throw new IllegalArgumentException(s"mask $id: pixel value ${data(i)} at index $i is outside [0, 1)")

  /** Pixel value at 1-indexed coordinates. */
  def apply(x: Int, y: Int): Float = data((x - 1) * h + (y - 1))

  /** The paper's CP function: the number of pixels inside `roi` whose value
    * lies in `[range.lv, range.uv)`. Exact — requires the full mask in memory.
    */
  def cp(roi: Roi, range: ValueRange): Long = {
    require(roi.within(w, h), s"roi $roi outside ${w}x$h mask")
    var count = 0L
    var x = roi.x1
    while (x <= roi.x2) {
      val base = (x - 1) * h
      var y = roi.y1
      while (y <= roi.y2) {
        val v = data(base + y - 1)
        if (v >= range.lv && v < range.uv) count += 1
        y += 1
      }
      x += 1
    }
    count
  }
}

object Mask {
  /** True iff `v` lies in the pixel domain [0, 1); false for NaN. */
  def inDomain(v: Float): Boolean = v >= 0f && v < 1f

  /** Pixel-wise minimum of several same-shaped masks — the repo's realisation
    * of the paper's INTERSECT mask aggregation (§3.4): thresholding the min at
    * `t` equals intersecting the individual thresholded masks.
    */
  def intersect(masks: Seq[Mask]): Mask = {
    require(masks.nonEmpty, "intersect of zero masks")
    val head = masks.head
    require(masks.forall(m => m.w == head.w && m.h == head.h), "shape mismatch in intersect")
    val out = head.data.clone()
    masks.tail.foreach { m =>
      var i = 0
      while (i < out.length) { if (m.data(i) < out(i)) out(i) = m.data(i); i += 1 }
    }
    Mask(head.id, head.w, head.h, out)
  }
}
