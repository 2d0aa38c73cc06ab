package repro.core

import java.io.{EOFException, InvalidObjectException, ObjectInputStream, ObjectOutputStream, StreamCorruptedException}

/** `n` CHIs of `w × h` masks indexed with `cfg`, the one form in which every
  * CHI is Java-serialised: a [[ChiIndex]], a [[ChiSlab]] and a
  * [[ChiSlab.Packed]] each write themselves as a small proxy that holds one.
  * In memory the counts are [[ChiIndex]]'s: the `n` indexes back to back
  * from word `base` of `words`, each in the words its header gives.
  *
  * `H` is a summed-area table per bin (Crow, SIGGRAPH 1984), so each entry
  * repeats what its neighbours hold. The wire form writes its 2-D first
  * difference instead, the per-cell counts: for each cell and each bin
  * `b = 1 … bins − 1`, the pixels of that cell with value ≥ `boundary(b)`.
  * Bin 0 is not written: it is the cell's pixel count. A count takes 1 byte
  * when a cell holds at most 255 pixels, 2 bytes up to 65,535, else 4
  * ([[CellCounts.width]]); a 56×56 index with 8×8 cells and 10 bins takes
  * 7·7·9 = 441 bytes, against up to 672 in memory.
  *
  * Reading rebuilds the cumulative counts by prefix sums and packs them
  * exactly as [[ChiIndex.build]] does, each index at its own bins' widths.
  * It rejects a truncated stream and per-cell counts no mask can have
  * ([[CellCounts.cellOk]]), so a decoded index never gives wrong bounds.
  */
private[core] final class CellCounts(
    val cfg: ChiConfig,
    val w: Int,
    val h: Int,
    val n: Int,
    @transient private var packed: Array[Long],
    @transient private val base: Int,
) extends Serializable {
  import CellCounts.cellOk

  /** The packed counts, from word 0 once read. */
  def words: Array[Long] = packed

  /** Once read, the word at which each index starts in [[words]], and the end. */
  @transient private var begins: Array[Int] = _
  def starts: Array[Int] = begins

  private def nCx: Int = ChiIndex.nCells(w, cfg.cellW)
  private def nCy: Int = ChiIndex.nCells(h, cfg.cellH)

  /** Bytes of one index on the wire. */
  private def wireBytes: Int = nCx * nCy * (cfg.bins - 1) * CellCounts.width(cfg, w, h)

  private def writeObject(out: ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    val (per, ny, width) = (cfg.bins - 1, nCy, CellCounts.width(cfg, w, h))
    val corners = nCx * ny
    val buf = new Array[Byte](wireBytes)
    val hs = new Array[Int](corners * per) // the index's stored counts, bin-major, unpacked once
    var at = base
    var s = 0
    while (s < n) {
      at += ChiIndex.unpack(packed, at, corners, cfg.bins, hs)
      var p = 0
      var cx = 0
      while (cx < nCx) {
        var cy = 0
        while (cy < ny) {
          val o = cx * ny + cy
          var b = 0
          while (b < per) {
            val k = b * corners + o
            var d = hs(k)
            if (cx > 0) d -= hs(k - ny)
            if (cy > 0) d -= hs(k - 1)
            if (cx > 0 && cy > 0) d += hs(k - ny - 1)
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

  /** Read `n` indexes' per-cell counts and pack their prefix sums: per row of
    * cells, the counts added to running column sums, whose prefix along the
    * row is `H` (the last two steps of [[ChiIndex.build]]), packed at its
    * bins' widths into an array grown as needed and trimmed at the end.
    */
  private def decode(in: ObjectInputStream): Unit = {
    val (bins, nx, ny, width) = (cfg.bins, nCx, nCy, CellCounts.width(cfg, w, h))
    val corners = nx * ny
    packed = new Array[Long](n * (ChiIndex.headerWords(bins) + 1))
    begins = new Array[Int](n + 1)
    val buf = new Array[Byte](wireBytes)
    val hs = new Array[Int](corners * (bins - 1)) // H of bins 1 … bins − 1, bin-major
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
          b = 1
          while (b < bins) { run(b) += column(c + b); hs((b - 1) * corners + cx * ny + cy) = run(b); b += 1 }
          cy += 1
        }
        cx += 1
      }
      val ws = ChiIndex.widths(hs, corners, bins)
      val end = begins(s).toLong + ChiIndex.packedWords(ws, corners)
      if (end > packed.length)
        packed = java.util.Arrays.copyOf(packed, math.min(Int.MaxValue - 8L, math.max(end, packed.length * 3L / 2)).toInt)
      ChiIndex.pack(hs, ws, corners, packed, begins(s))
      begins(s + 1) = end.toInt
      s += 1
    }
    if (packed.length != begins(n)) packed = java.util.Arrays.copyOf(packed, begins(n))
  }
}

private[core] object CellCounts {

  /** The wire form of the `n` indexes of `w × h` masks from word `base` of `words`. */
  def apply(cfg: ChiConfig, w: Int, h: Int, n: Int, words: Array[Long], base: Int = 0): CellCounts =
    new CellCounts(cfg, w, h, n, words, base)

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
