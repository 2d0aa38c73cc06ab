package repro.core

import java.io._

/** `n` CHIs of `w × h` masks indexed with `cfg`, the one form in which every
  * CHI is serialised: a [[ChiIndex]] and a [[ChiSlab]] each Java-serialise as
  * a small proxy that holds one, and [[ChiRegistry.save]] writes each slab's
  * stream ([[write]]) as a `binary` column, which [[ChiRegistry.load]] reads
  * back ([[CellCounts.read]]).
  * In memory the counts are [[ChiIndex]]'s: the `n` indexes back to back
  * from word `base` of `words`, each in the words its header gives.
  *
  * `H` is a summed-area table per bin (Crow, SIGGRAPH 1984), so each entry
  * repeats what its neighbours hold. The wire form writes its 2-D first
  * difference instead, the per-cell counts: for each cell and each bin
  * `b = 1 … bins − 1`, the pixels of that cell with value ≥ `boundary(b)`.
  * Bin 0 is the cell's pixel count, so the reader knows before each count
  * that it lies in [0, the cell's count at bin b − 1], and the count takes
  * that bound's bit length (the bounded-integer coding of Moffat & Stuiver's
  * interpolative coding, Information Retrieval 2000); a cell's bins above a
  * count of 0 take none. All the counts, cell by cell in order (cx, cy), bins
  * within a cell, form one bitstream: its word count, then its words
  * ([[ChiIndex.Packer]], read with [[ChiIndex.count]]). A 56×56 index with
  * 8×8 cells and 10 bins takes at most 7·7·9 counts of 7 bits, 386 B, and
  * 105 B on average over ImageNet-lite (375 B in memory). Reading rebuilds
  * the cumulative counts and packs them as [[ChiIndex.build]] does. It
  * rejects a word count above that worst case, a truncated stream, counts
  * past its words, bits or words after its last count, and per-cell counts no
  * mask can have ([[CellCounts.cellOk]]), which the writer refuses too; on
  * disk, also bytes after the stream.
  */
private[core] final class CellCounts(
    val cfg: ChiConfig,
    val w: Int,
    val h: Int,
    val n: Int,
    @transient private var packed: Array[Long],
    @transient private val base: Int,
) extends Serializable {
  import CellCounts.{bitLength, cellOk}

  /** The packed counts, from word 0 once read. */
  def words: Array[Long] = packed

  /** Once read, the word at which each index starts in [[words]], and the end. */
  @transient private var begins: Array[Int] = _
  def starts: Array[Int] = begins

  private def nCx: Int = ChiIndex.nCells(w, cfg.cellW)
  private def nCy: Int = ChiIndex.nCells(h, cfg.cellH)

  /** The most words the stream can take: every count at the bit length of the largest cell's pixels. */
  private def maxWords: Long =
    (n.toLong * nCx * nCy * (cfg.bins - 1) * bitLength(math.min(cfg.cellW, w) * math.min(cfg.cellH, h)) + 63) >>> 6

  /** Pixels of cell `(cx, cy)`: less than `cellW · cellH` in a partial last row or column. */
  private def area(cx: Int, cy: Int): Int =
    (ChiIndex.line(cx + 1, w, cfg.cellW) - ChiIndex.line(cx, w, cfg.cellW)) *
      (ChiIndex.line(cy + 1, h, cfg.cellH) - ChiIndex.line(cy, h, cfg.cellH))

  private def writeObject(out: ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    write(out)
  }

  /** Write the stream: its word count, then its words. */
  def write(out: DataOutput): Unit = {
    val (per, ny, corners) = (cfg.bins - 1, nCy, nCx * nCy)
    val bits = new ChiIndex.Packer(new Array[Long](maxWords.toInt), 0)
    val hs = new Array[Int](corners * per) // the index's stored counts, bin-major, unpacked once
    var at = base
    var s = 0
    while (s < n) {
      at += ChiIndex.unpack(packed, at, corners, cfg.bins, hs)
      var cx = 0
      while (cx < nCx) {
        var cy = 0
        while (cy < ny) {
          var prev = area(cx, cy)
          var b = 1
          while (b <= per) {
            val k = (b - 1) * corners + cx * ny + cy
            var d = hs(k)
            if (cx > 0) d -= hs(k - ny)
            if (cy > 0) d -= hs(k - 1)
            if (cx > 0 && cy > 0) d += hs(k - ny - 1)
            if (!cellOk(d, prev)) throw CellCounts.cellError(s"CHI in slot $s of $n", cx, cy, b, d, prev, area(cx, cy))
            bits.put(d, bitLength(prev))
            prev = d
            b += 1
          }
          cy += 1
        }
        cx += 1
      }
      s += 1
    }
    bits.flush()
    out.writeInt(bits.end)
    var i = 0; while (i < bits.end) { out.writeLong(bits.words(i)); i += 1 }
  }

  private def readObject(in: ObjectInputStream): Unit = {
    in.defaultReadObject()
    try read(in)
    catch {
      // The stream ends inside the counts: at a block boundary, or within a block.
      case e @ (_: EOFException | _: StreamCorruptedException) => throw new InvalidObjectException(truncated(e))
      case e: IllegalArgumentException => throw new InvalidObjectException(e.getMessage)
    }
  }

  private def truncated(e: Throwable) = s"truncated CHI stream: $n indexes of ${w}x$h masks and $cfg expected ($e)"

  private def invalid(what: String) = new InvalidObjectException(s"CHI stream of $n indexes of ${w}x$h masks and $cfg$what")

  /** Read the stream's words, then each index's per-cell counts from them, and pack their prefix sums (the last two
    * steps of [[ChiIndex.build]]) at its bins' widths into an array grown as needed and trimmed at the end.
    */
  private def read(in: DataInput): Unit = {
    val nWords = in.readInt()
    if (w < 0 || h < 0 || n < 0 || (n > 0 && (w == 0 || h == 0)) || nWords < 0 || nWords > maxWords ||
        n.toLong * (w / cfg.cellW + 1) * (h / cfg.cellH + 1) * cfg.bins > Int.MaxValue) {
      in.skipBytes(Int.MaxValue) // the words: left unread, they would hide this error
      throw invalid(s": $nWords words, outside [0, $maxWords]")
    }
    val stream = new Array[Long](nWords)
    var i = 0; while (i < nWords) { stream(i) = in.readLong(); i += 1 }
    val (bins, nx, ny, end) = (cfg.bins, nCx, nCy, 64L * nWords)
    val corners = nx * ny
    packed = new Array[Long](n * (ChiIndex.headerWords(bins) + 1))
    begins = new Array[Int](n + 1)
    val hs = new Array[Int](corners * (bins - 1)) // H of bins 1 … bins − 1, bin-major
    val column = new Array[Int](ny * bins)
    val run = new Array[Int](bins)
    var p = 0L
    var s = 0
    while (s < n) {
      java.util.Arrays.fill(column, 0)
      var cx = 0
      while (cx < nx) {
        java.util.Arrays.fill(run, 0)
        var cy = 0
        while (cy < ny) {
          var prev = area(cx, cy)
          var b = 1
          while (b < bins) {
            val bits = bitLength(prev)
            if (p + bits > end) throw invalid(s": its counts run past its $nWords words, in slot $s")
            val d = ChiIndex.count(stream, p, bits)
            if (!cellOk(d, prev)) throw CellCounts.cellError(s"CHI in slot $s of $n", cx, cy, b, d, prev, area(cx, cy))
            column(cy * bins + b) += d
            prev = d
            p += bits
            b += 1
          }
          b = 1
          while (b < bins) { run(b) += column(cy * bins + b); hs((b - 1) * corners + cx * ny + cy) = run(b); b += 1 }
          cy += 1
        }
        cx += 1
      }
      val ws = ChiIndex.widths(hs, corners, bins)
      val last = begins(s).toLong + ChiIndex.packedWords(ws, corners)
      if (last > packed.length)
        packed = java.util.Arrays.copyOf(packed, math.min(Int.MaxValue - 8L, math.max(last, packed.length * 3L / 2)).toInt)
      ChiIndex.pack(hs, ws, corners, packed, begins(s))
      begins(s + 1) = last.toInt
      s += 1
    }
    if ((p + 63) >>> 6 < nWords) throw invalid(s": ${nWords - ((p + 63) >>> 6)} of its $nWords words lie after its last count")
    if ((p & 63) != 0 && stream(nWords - 1) >>> (p & 63) != 0) throw invalid(": non-zero bits after its last count")
    if (packed.length != begins(n)) packed = java.util.Arrays.copyOf(packed, begins(n))
  }
}

private[core] object CellCounts {

  /** The wire form of the `n` indexes of `w × h` masks from word `base` of `words`. */
  def apply(cfg: ChiConfig, w: Int, h: Int, n: Int, words: Array[Long], base: Int = 0): CellCounts =
    new CellCounts(cfg, w, h, n, words, base)

  /** The stream of the `n` indexes of `w × h` masks from word 0 of `words`, as bytes. */
  def bytes(cfg: ChiConfig, w: Int, h: Int, n: Int, words: Array[Long]): Array[Byte] = {
    val out = new ByteArrayOutputStream()
    CellCounts(cfg, w, h, n, words).write(new DataOutputStream(out))
    out.toByteArray
  }

  /** The counts of `n` indexes of `w × h` masks from `bytes`, a stream and
    * nothing after it; an [[IllegalArgumentException]] that names the fault
    * otherwise.
    */
  def read(cfg: ChiConfig, w: Int, h: Int, n: Int, bytes: Array[Byte]): CellCounts = {
    val counts = new CellCounts(cfg, w, h, n, null, 0)
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    try counts.read(in)
    catch {
      case e: EOFException => throw new IllegalArgumentException(counts.truncated(e))
      case e: InvalidObjectException => throw new IllegalArgumentException(e.getMessage)
    }
    require(in.available() == 0, s"CHI stream of $n indexes of ${w}x$h masks and $cfg: ${in.available()} bytes after its words")
    counts
  }

  /** Bits of the largest count in [0, `v`]: the width of a count bounded by `v`. */
  def bitLength(v: Int): Int = 32 - Integer.numberOfLeadingZeros(v)

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
