package repro.core

import java.io.{EOFException, InvalidObjectException, ObjectInputStream, ObjectOutputStream, StreamCorruptedException}

/** `n` CHIs of `w × h` masks indexed with `cfg`, the one form in which every
  * CHI is Java-serialised: a [[ChiIndex]], a [[ChiSlab]] and a
  * [[ChiSlab.Packed]] each write themselves as a small proxy that holds one.
  * In memory the counts are [[ChiIndex]]'s: index `s` at offset
  * `base + s · stride` of `low` and `high`.
  *
  * `H` is a summed-area table per bin (Crow, SIGGRAPH 1984), so each entry
  * repeats what its neighbours hold. The wire form writes its 2-D first
  * difference instead, the per-cell counts: for each cell and each bin
  * `b = 1 … bins − 1`, the pixels of that cell with value ≥ `boundary(b)`.
  * Bin 0 is not written: it is the cell's pixel count. A count takes 1 byte
  * when a cell holds at most 255 pixels, 2 bytes up to 65,535, else 4
  * ([[CellCounts.width]]); a 56×56 index with 8×8 cells and 10 bins takes
  * 7·7·9 = 441 bytes instead of 980.
  *
  * Reading rebuilds the cumulative counts by prefix sums, exactly as
  * [[ChiIndex.build]] lays them out, with the high halves when `w·h > 65,535`.
  * It rejects a truncated stream and per-cell counts no mask can have
  * ([[CellCounts.cellOk]]), so a decoded index never gives wrong bounds.
  */
private[core] final class CellCounts(
    val cfg: ChiConfig,
    val w: Int,
    val h: Int,
    val n: Int,
    @transient private var lo: Array[Char],
    @transient private var hi: Array[Char],
    @transient private val base: Int,
) extends Serializable {
  import CellCounts.cellOk

  /** The low halves of the counts, from offset 0 once read. */
  def low: Array[Char] = lo

  /** The high halves, or empty when `w·h ≤ 65,535`. */
  def high: Array[Char] = hi

  private def nCx: Int = ChiIndex.nCells(w, cfg.cellW)
  private def nCy: Int = ChiIndex.nCells(h, cfg.cellH)
  private def stride: Int = nCx * nCy * cfg.bins

  /** Bytes of one index on the wire. */
  private def wireBytes: Int = nCx * nCy * (cfg.bins - 1) * CellCounts.width(cfg, w, h)

  private def writeObject(out: ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    val (bins, ny, width) = (cfg.bins, nCy, CellCounts.width(cfg, w, h))
    val row = ny * bins
    val buf = new Array[Byte](wireBytes)
    var s = 0
    while (s < n) {
      val at = base + s * stride
      def hAt(off: Int): Int = ChiIndex.count(lo, hi, at + off)
      var p = 0
      var cx = 0
      while (cx < nCx) {
        var cy = 0
        while (cy < ny) {
          val o = (cx * ny + cy) * bins
          var b = 1
          while (b < bins) {
            var d = hAt(o + b)
            if (cx > 0) d -= hAt(o - row + b)
            if (cy > 0) d -= hAt(o - bins + b)
            if (cx > 0 && cy > 0) d += hAt(o - row - bins + b)
            p = CellCounts.put(buf, p, width, d)
            b += 1
          }
          cy += 1
        }
        cx += 1
      }
      out.write(buf)
      s += 1
    }
  }

  private def readObject(in: ObjectInputStream): Unit = {
    in.defaultReadObject()
    if (w < 0 || h < 0 || n < 0 || (n > 0 && (w == 0 || h == 0)) ||
        n.toLong * (w / cfg.cellW + 1) * (h / cfg.cellH + 1) * cfg.bins > Int.MaxValue)
      throw new InvalidObjectException(s"CHI stream of $n indexes of ${w}x$h masks and $cfg")
    try decode(in)
    catch {
      // The stream ends inside the counts: at a block boundary, or within a block.
      case e @ (_: EOFException | _: StreamCorruptedException) =>
        throw new InvalidObjectException(s"truncated CHI stream: $n indexes of ${w}x$h masks and $cfg expected ($e)")
      case e: IllegalArgumentException => throw new InvalidObjectException(e.getMessage)
    }
  }

  /** Read `n` indexes' per-cell counts and lay out their prefix sums: per row
    * of cells, the counts added to running column sums, whose prefix along
    * the row is `H` (the last two steps of [[ChiIndex.build]]).
    */
  private def decode(in: ObjectInputStream): Unit = {
    val (bins, nx, ny, width) = (cfg.bins, nCx, nCy, CellCounts.width(cfg, w, h))
    val (l, hh) = ChiIndex.halves(w, h, n * stride)
    lo = l
    hi = hh
    val buf = new Array[Byte](wireBytes)
    val column = new Array[Int](ny * bins)
    val run = new Array[Int](bins)
    var s = 0
    while (s < n) {
      in.readFully(buf)
      java.util.Arrays.fill(column, 0)
      var p = 0
      var cx = 0
      while (cx < nx) {
        val cellW = ChiIndex.line(cx + 1, w, cfg.cellW) - ChiIndex.line(cx, w, cfg.cellW)
        java.util.Arrays.fill(run, 0)
        var cy = 0
        while (cy < ny) {
          val area = cellW * (ChiIndex.line(cy + 1, h, cfg.cellH) - ChiIndex.line(cy, h, cfg.cellH))
          val c = cy * bins
          column(c) += area
          var prev = area
          var b = 1
          while (b < bins) {
            val d = CellCounts.get(buf, p, width)
            if (!cellOk(d, prev)) throw CellCounts.cellError(s"CHI in slot $s of $n", cx, cy, b, d, prev, area)
            column(c + b) += d
            prev = d
            p += width
            b += 1
          }
          val out = s * stride + (cx * ny + cy) * bins
          b = 0
          while (b < bins) { run(b) += column(c + b); ChiIndex.put(lo, hi, out + b, run(b)); b += 1 }
          cy += 1
        }
        cx += 1
      }
      s += 1
    }
  }
}

private[core] object CellCounts {

  /** The wire form of the `n` indexes of `w × h` masks at offset `base` of `low` and `high`. */
  def apply(cfg: ChiConfig, w: Int, h: Int, n: Int, low: Array[Char], high: Array[Char], base: Int = 0): CellCounts =
    new CellCounts(cfg, w, h, n, low, high, base)

  /** Bytes per per-cell count for `w × h` masks: enough for the largest cell's pixel count. */
  def width(cfg: ChiConfig, w: Int, h: Int): Int = {
    val cell = math.min(cfg.cellW, w).toLong * math.min(cfg.cellH, h)
    if (cell <= 0xff) 1 else if (cell <= 0xffff) 2 else 4
  }

  private def put(buf: Array[Byte], p: Int, width: Int, v: Int): Int = {
    var i = width - 1
    while (i >= 0) { buf(p + width - 1 - i) = (v >>> (8 * i)).toByte; i -= 1 }
    p + width
  }

  private def get(buf: Array[Byte], p: Int, width: Int): Int = {
    var v = 0
    var i = 0
    while (i < width) { v = v << 8 | (buf(p + i) & 0xff); i += 1 }
    v
  }

  /** True iff a cell can hold `d` pixels at or above some bin b ≥ 1 when it
    * holds `prev` at or above bin b − 1 (its pixel count, for b = 1): a mask's
    * per-cell counts lie in [0, the cell's pixels] and never increase over bins.
    */
  def cellOk(d: Int, prev: Int): Boolean = d >= 0 && d <= prev

  /** The error for a per-cell count that fails [[cellOk]], naming `what` and where. */
  def cellError(what: String, cx: Int, cy: Int, b: Int, d: Int, prev: Int, area: Int): IllegalArgumentException =
    new IllegalArgumentException(
      if (d < 0 || d > area) s"$what: cell ($cx, $cy) has $d pixels at bin $b, outside [0, $area]"
      else s"$what: cell ($cx, $cy) has $d pixels at bin $b but $prev at bin ${b - 1}: per-cell counts increase over bins")
}
