package repro.core

import java.io._

import scala.collection.mutable.ArrayBuilder

/** `n` CHIs of `w × h` masks indexed with `cfg`, under their keys, with the
  * ids of the masks each was built from when `members` records them: the one
  * form in which every CHI is serialised. A [[ChiIndex]] and a [[ChiSlab]]
  * each Java-serialise as a small proxy that holds one, and
  * [[ChiRegistry.save]] writes each slab's stream ([[write]]) as a `binary`
  * column, which [[ChiRegistry.load]] reads back ([[CellCounts.read]]).
  * In memory the counts are [[ChiIndex]]'s: the `n` indexes back to back
  * from word `base` of `words`, each in the words its header gives.
  *
  * The stream, written to a `DataOutput`: `n` as a varint; a byte, 1 when
  * members are recorded; the keys in slot order as zigzag varints of their
  * gaps; when recorded, each index's member count as a varint, then its ids
  * as zigzag varints of their gaps (one chain over the stream, so an image's
  * ids cost a byte each); then the counts' word count and words.
  *
  * `H` is a summed-area table per bin (Crow, SIGGRAPH 1984), so each entry
  * repeats what its neighbours hold. The wire form writes its 2-D first
  * difference instead, the per-cell counts: for each cell and each bin
  * `b = 1 … bins − 1`, the pixels of that cell with value ≥ `boundary(b)`.
  * Bin 0 is the cell's pixel count, so the reader knows before each count
  * that it lies in [0, `prev`], `prev` being the cell's count at bin b − 1;
  * a count under `prev = 0` takes no bits. Every other count has the context
  * `(b, c = bitLength(prev))` and is coded with a truncated exp-Golomb code
  * (Teuhola, Information Processing Letters 1978) of the order `k ∈ [0, c]`
  * that the stream's table gives its context, applied to `x = d` or, when
  * the table's direction bit says so, to `x = prev − d`: with
  * `v = x + 2^k` and `n = bitLength(v)`, `n − k − 1` zero bits, then `v` in
  * `n` bits (its leading 1, then the rest low bit first), the leading 1
  * dropped when `n = bitLength(prev + 2^k)`, the last class the decoder can
  * meet, so a run of zeros cannot pass it: its zeros are that class's bits. Order `c` codes every count in `c` bits, the
  * bounded-integer code of Moffat & Stuiver (Information Retrieval 2000); a
  * real mask's bin-1 cell of 64 pixels holds a few pixels ≥ 0.1, which a low
  * order codes in a few bits. The writer takes each context's entry from a
  * first pass over the stream's counts, the one with the fewest bits (ties
  * to the larger order, then to `d`), so no stream is longer than the
  * bounded-integer code plus its table.
  *
  * The counts' bitstream ([[ChiIndex.Packer]], read with [[ChiIndex.count]])
  * is the table, for each bin `b ≥ 1` and each `c` from 1 to the bit length
  * of the largest cell's pixels, `k` in `bitLength(c)` bits and the
  * direction bit (none for no indexes); then the counts, cell by cell in
  * order (cx, cy), bins within a cell. Over the first 20,000 ImageNet-lite
  * masks, a slab's stream takes 84 B per 56×56 index with 8×8 cells and 10
  * bins, its key included (375 B in memory; 109 B before this code). Reading
  * rebuilds the cumulative counts and packs them as [[ChiIndex.build]] does.
  * It rejects malformed varints, keys or members past the stream, a word
  * count above the worst case, a truncated stream, a table entry with
  * `k > c`, counts past its words, bits or words after its last count, and
  * per-cell counts no mask can have ([[CellCounts.cellOk]]: a decoded `x`
  * above `prev` among them), which the writer refuses too; on disk, also
  * bytes after the stream.
  */
private[core] final class CellCounts(
    val cfg: ChiConfig,
    val w: Int,
    val h: Int,
    @transient private var ids: Array[Long],
    @transient private var lists: Array[Array[Long]],
    @transient private var packed: Array[Long],
    @transient private val base: Int,
) extends Serializable {
  import CellCounts.{bitLength, cellOk, zigzag}

  def n: Int = ids.length

  /** The keys, in slot order. */
  def keys: Array[Long] = ids

  /** Per key, the ids of the masks its index was built from; empty when not recorded. */
  def members: Array[Array[Long]] = lists

  /** The packed counts, from word 0 once read. */
  def words: Array[Long] = packed

  /** Once read, the word at which each index starts in [[words]], and the end. */
  @transient private var begins: Array[Int] = _
  def starts: Array[Int] = begins

  /** Once read, the bits of the counts' bitstream, table included. */
  @transient private var used: Long = _
  def bits: Long = used

  private def nCx: Int = ChiIndex.nCells(w, cfg.cellW)
  private def nCy: Int = ChiIndex.nCells(h, cfg.cellH)

  /** Bit length of the largest cell's pixels: the largest `c` of a context. */
  private def cMax: Int = bitLength(math.min(cfg.cellW, w) * math.min(cfg.cellH, h))

  /** Bits of the table of `n` indexes: for each bin and context `c`, `k` in `bitLength(c)` bits and a direction bit. */
  private def tableBits(n: Int): Long =
    if (n == 0) 0L else (cfg.bins - 1).toLong * (1 to cMax).map(c => bitLength(c) + 1).sum

  /** The most words the stream of `n` indexes can take: its table, and every count coded in `2 · cMax` bits. */
  private def maxWords(n: Int): Long =
    (tableBits(n) + n.toLong * nCx * nCy * (cfg.bins - 1) * 2 * cMax + 63) >>> 6

  /** Pixels of each cell, in stream order (cx, cy). */
  private def areas: Array[Int] = Array.tabulate(nCx * nCy) { i =>
    val (cx, cy) = (i / nCy, i % nCy)
    (ChiIndex.line(cx + 1, w, cfg.cellW) - ChiIndex.line(cx, w, cfg.cellW)) *
      (ChiIndex.line(cy + 1, h, cfg.cellH) - ChiIndex.line(cy, h, cfg.cellH))
  }

  private def writeObject(out: ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    write(out)
  }

  /** Write the stream: `n`, the members flag, keys, members, then the counts' word count and words. */
  def write(out: DataOutput): Unit = {
    CellCounts.putVar(out, n)
    out.writeByte(if (lists.isEmpty) 0 else 1)
    var last = 0L
    ids.foreach { k => CellCounts.putVar(out, zigzag(k - last)); last = k }
    last = 0L
    lists.foreach { ms =>
      CellCounts.putVar(out, ms.length)
      ms.foreach { m => CellCounts.putVar(out, zigzag(m - last)); last = m }
    }
    val code = new CellCounts.Code(cfg.bins, cMax)
    val plain = perCell(code)
    val bits = tableBits(n) + code.choose()
    require(bits <= 64L * (Int.MaxValue - 8), s"a CHI stream of $bits bits")
    val stream = new ChiIndex.Packer(new Array[Long](((bits + 63) >>> 6).toInt), 0)
    if (n > 0) code.putTable(stream)
    val per = cfg.bins - 1
    val top = cMax
    val cells = areas
    var p = 0L
    var s = 0
    while (s < n) {
      var i = 0
      while (i < cells.length) {
        var prev = cells(i)
        var b = 1
        while (b <= per && prev > 0) {
          val c = bitLength(prev)
          val d = ChiIndex.count(plain, p, c)
          p += c
          code.put(stream, (b - 1) * top + c - 1, prev, d)
          prev = d
          b += 1
        }
        i += 1
      }
      s += 1
    }
    stream.flush()
    out.writeInt(stream.end)
    var i = 0; while (i < stream.end) { out.writeLong(stream.words(i)); i += 1 }
  }

  /** Every per-cell count of the `n` indexes, in stream order, checked and tallied by `code`: unpacked and
    * differenced once, and kept in the bounded-integer code (each count under `prev > 0` in `bitLength(prev)` bits),
    * which [[write]] recodes once `code` has chosen its table.
    */
  private def perCell(code: CellCounts.Code): Array[Long] = {
    val per = cfg.bins - 1
    val ny = nCy
    val corners = nCx * ny
    val top = cMax
    val cells = areas
    val hs = new Array[Int](corners * per) // the index's stored counts, bin-major
    val worst = (n.toLong * corners * per * top + 63) >>> 6
    require(worst < Int.MaxValue - 8, s"$n CHIs of ${corners * per} counts of up to $top bits")
    val plain = new ChiIndex.Packer(new Array[Long](worst.toInt + 1), 0)
    var at = base
    var s = 0
    while (s < n) {
      at += ChiIndex.unpack(packed, at, corners, cfg.bins, hs)
      var i = 0
      while (i < corners) {
        val left = i >= ny // a cell before this one in x
        val up = i % ny > 0 // and in y
        var prev = cells(i)
        var b = 1
        while (b <= per) {
          val k = (b - 1) * corners + i
          var d = hs(k)
          if (left) d -= hs(k - ny)
          if (up) d -= hs(k - 1)
          if (left && up) d += hs(k - ny - 1)
          if (prev > 0) {
            if (!cellOk(d, prev)) throw CellCounts.cellError(s"CHI in slot $s of $n", i / ny, i % ny, b, d, prev, cells(i))
            val c = bitLength(prev)
            code.tally((b - 1) * top + c - 1, c, prev, d)
            plain.put(d, c)
          } else if (d != 0) throw CellCounts.cellError(s"CHI in slot $s of $n", i / ny, i % ny, b, d, prev, cells(i))
          prev = d
          b += 1
        }
        i += 1
      }
      s += 1
    }
    plain.flush()
    plain.words
  }

  private def readObject(in: ObjectInputStream): Unit = {
    in.defaultReadObject()
    // The rest of a stream found at fault is skipped: left unread, it would hide the fault.
    try read(in)
    catch {
      // The stream ends inside the counts: at a block boundary, or within a block.
      case e @ (_: EOFException | _: StreamCorruptedException) => throw new InvalidObjectException(truncated(e))
      case e: IllegalArgumentException => in.skipBytes(Int.MaxValue); throw new InvalidObjectException(e.getMessage)
      case e: InvalidObjectException => in.skipBytes(Int.MaxValue); throw e
    }
  }

  private def shape: String = s"${if (ids == null) "?" else ids.length} indexes of ${w}x$h masks and $cfg"

  private def truncated(e: Throwable) = s"truncated CHI stream: $shape expected ($e)"

  private def invalid(what: String) = new InvalidObjectException(s"CHI stream of $shape$what")

  /** Read the stream's `n`, keys, members and words, then each index's per-cell counts from them, and pack their
    * prefix sums (the last two steps of [[ChiIndex.build]]) at its bins' widths into an array grown as needed and
    * trimmed at the end. Keys and members are read into arrays grown as they arrive, so a forged length runs out of
    * stream before it can allocate.
    */
  private def read(in: DataInput): Unit = {
    val n0 = CellCounts.getVar(in, s"CHI stream of ${w}x$h masks and $cfg", "its index count")
    if (n0 > Int.MaxValue - 8) throw new InvalidObjectException(s"CHI stream of ${w}x$h masks and $cfg: $n0 indexes")
    val n = n0.toInt
    val flag = in.readByte()
    if (flag != 0 && flag != 1) throw new InvalidObjectException(s"CHI stream of ${w}x$h masks and $cfg: members flag $flag")
    val where = s"CHI stream of $n indexes of ${w}x$h masks and $cfg"
    val keys = new ArrayBuilder.ofLong
    var prev = 0L
    while (keys.length < n) { prev += CellCounts.unzigzag(CellCounts.getVar(in, where, s"key ${keys.length}")); keys += prev }
    ids = keys.result()
    lists = if (flag == 0) CellCounts.NoMembers else {
      prev = 0L
      val ls = new Array[Array[Long]](n)
      var s = 0
      while (s < n) {
        val count = CellCounts.getVar(in, where, s"the member count of slot $s")
        if (count > Int.MaxValue - 8) throw invalid(s": slot $s names $count members")
        val ms = new ArrayBuilder.ofLong
        while (ms.length < count) { prev += CellCounts.unzigzag(CellCounts.getVar(in, where, s"a member of slot $s")); ms += prev }
        ls(s) = ms.result()
        s += 1
      }
      ls
    }
    val nWords = in.readInt()
    if (w < 0 || h < 0 || (n > 0 && (w == 0 || h == 0)) || nWords < 0 || nWords > maxWords(n) ||
        n.toLong * (w / cfg.cellW + 1) * (h / cfg.cellH + 1) * cfg.bins > Int.MaxValue) {
      throw invalid(s": $nWords words, outside [0, ${maxWords(n)}]")
    }
    // One zero word past the end, so that a read at the end finds zeros.
    val stream = new Array[Long](nWords + 1)
    var i = 0; while (i < nWords) { stream(i) = in.readLong(); i += 1 }
    val (bins, nx, ny, end) = (cfg.bins, nCx, nCy, 64L * nWords)
    val corners = nx * ny
    val (code, top) = (new CellCounts.Code(bins, cMax), cMax)
    if (n > 0) {
      code.getTable(stream)
      if (code.p > end) throw invalid(s": its table runs past its $nWords words")
      if (code.bad >= 0) throw invalid(s": its table gives ${code.badWhat}")
    }
    packed = new Array[Long](n * (ChiIndex.headerWords(bins) + 1))
    begins = new Array[Int](n + 1)
    val cells = areas
    val hs = new Array[Int](corners * (bins - 1)) // H of bins 1 … bins − 1, bin-major
    val column = new Array[Int](ny * bins)
    val run = new Array[Int](bins)
    var s = 0
    while (s < n) {
      java.util.Arrays.fill(column, 0)
      var cx = 0
      while (cx < nx) {
        java.util.Arrays.fill(run, 0)
        var cy = 0
        while (cy < ny) {
          val area = cells(cx * ny + cy)
          var prev = area
          var b = 1
          while (b < bins) {
            val d = if (prev == 0) 0 else {
              val x = code.get(stream, (b - 1) * top + bitLength(prev) - 1, prev)
              if (code.p > end) throw invalid(s": its counts run past its $nWords words, in slot $s")
              math.max(math.min(x, Int.MaxValue), Int.MinValue).toInt
            }
            if (!cellOk(d, prev)) throw CellCounts.cellError(s"CHI in slot $s of $n", cx, cy, b, d, prev, area)
            column(cy * bins + b) += d
            prev = d
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
    val p = code.p
    if ((p + 63) >>> 6 < nWords) throw invalid(s": ${nWords - ((p + 63) >>> 6)} of its $nWords words lie after its last count")
    if ((p & 63) != 0 && stream(nWords - 1) >>> (p & 63) != 0) throw invalid(": non-zero bits after its last count")
    if (packed.length != begins(n)) packed = java.util.Arrays.copyOf(packed, begins(n))
    used = p
  }
}

private[core] object CellCounts {

  private[core] val NoMembers: Array[Array[Long]] = Array.empty

  /** The wire form of the `keys.length` indexes of `w × h` masks from word `base` of `words`, under `keys`, with
    * `members` (one list per key, or none).
    */
  def apply(cfg: ChiConfig, w: Int, h: Int, keys: Array[Long], members: Array[Array[Long]], words: Array[Long],
      base: Int = 0): CellCounts =
    new CellCounts(cfg, w, h, keys, members, words, base)

  /** The stream of `counts`, as bytes. */
  def bytes(counts: CellCounts): Array[Byte] = {
    val out = new ByteArrayOutputStream()
    counts.write(new DataOutputStream(out))
    out.toByteArray
  }

  /** The indexes of `w × h` masks from `bytes`, a stream and nothing after
    * it; an [[IllegalArgumentException]] that names the fault otherwise.
    */
  def read(cfg: ChiConfig, w: Int, h: Int, bytes: Array[Byte]): CellCounts = {
    val counts = new CellCounts(cfg, w, h, null, null, null, 0)
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    try counts.read(in)
    catch {
      case e: EOFException => throw new IllegalArgumentException(counts.truncated(e))
      case e: InvalidObjectException => throw new IllegalArgumentException(e.getMessage)
    }
    require(in.available() == 0, s"CHI stream of ${counts.shape}: ${in.available()} bytes after its words")
    counts
  }

  /** Bits of the largest count in [0, `v`]: the width of a count bounded by `v`. */
  def bitLength(v: Int): Int = 32 - Integer.numberOfLeadingZeros(v)

  private def bitLength(v: Long): Int = 64 - java.lang.Long.numberOfLeadingZeros(v)

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

  /** `v` as a non-negative number for [[putVar]]: 0, −1, 1, −2, … become 0, 1, 2, 3, …; [[unzigzag]] undoes it. */
  def zigzag(v: Long): Long = v << 1 ^ v >> 63
  def unzigzag(v: Long): Long = v >>> 1 ^ -(v & 1)

  /** Write `v ≥ 0` as a varint: 7 bits a byte, low bits first, the high bit set on every byte but the last. */
  def putVar(out: DataOutput, v: Long): Unit = {
    var rest = v
    while ((rest & ~0x7fL) != 0) { out.writeByte((rest & 0x7f).toInt | 0x80); rest >>>= 7 }
    out.writeByte(rest.toInt)
  }

  /** Read a varint of [[putVar]], `what` of the stream `where`: at most 64 bits in at most 10 bytes. */
  def getVar(in: DataInput, where: String, what: String): Long = {
    var v = 0L
    var shift = 0
    var b = 0x80
    while ((b & 0x80) != 0) {
      b = in.readByte() & 0xff
      if (shift == 63 && (b & 0x7e) != 0 || shift > 63)
        throw new InvalidObjectException(s"$where: malformed varint in $what, longer than 64 bits")
      v |= (b & 0x7fL) << shift
      shift += 7
    }
    v
  }

  /** The table and code of a stream's counts, for `bins` bins and contexts `c` from 1 to `cMax`: context `(b, c)` is
    * entry `t = (b − 1) · cMax + c − 1`, and each entry gives an order `k ∈ [0, c]` and a direction, `d` (`false`)
    * or `prev − d` (`true`). Until chosen or read, every entry is order `c` and `d`.
    */
  private[core] final class Code(bins: Int, cMax: Int) {
    private val size = (bins - 1) * cMax
    private def c(t: Int): Int = t % cMax + 1
    private val order = Array.tabulate(size)(c)
    private val down = new Array[Boolean](size)

    /** Per entry, the bits of the counts [[tally]] met under each choice: `2k` for `d`, `2k + 1` for `prev − d`. */
    private val costs = new Array[Array[Long]](size)

    /** Per entry of `c ≤ 8`, how often each pair `(prev, d)` occurs, at `(prev − 2^(c − 1)) · 2^c + d`, to be costed
      * once per pair by [[choose]]; allocated when used.
      */
    private val pairs = new Array[Array[Int]](size)

    /** Bits of `x` under `prev` at order `k`, `last` being `bitLength(prev + 2^k)`, the last class. */
    private def length(x: Long, k: Int, last: Int): Int = {
      val n = bitLength(x + (1L << k))
      2 * n - k - 1 - (if (n == last) 1 else 0)
    }

    /** Add the bits `times` counts `d` under `prev` take under each choice of entry `t`. */
    private def cost(t: Int, prev: Int, d: Int, times: Int): Unit = {
      var row = costs(t)
      if (row == null) { row = new Array[Long](2 * c(t) + 2); costs(t) = row }
      var k = 0
      while (k < row.length / 2) {
        val last = bitLength(prev + (1L << k))
        row(2 * k) += times.toLong * length(d, k, last)
        row(2 * k + 1) += times.toLong * length(prev - d, k, last)
        k += 1
      }
    }

    /** Count `d` under `prev` for entry `t`, of context `ct = bitLength(prev)`. */
    def tally(t: Int, ct: Int, prev: Int, d: Int): Unit =
      if (ct > 8) cost(t, prev, d, 1)
      else {
        var seen = pairs(t)
        if (seen == null) { seen = new Array[Int](1 << (2 * ct - 1)); pairs(t) = seen }
        seen((prev - (1 << (ct - 1))) << ct | d) += 1
      }

    /** Give each entry the choice with the fewest bits of the counts tallied (ties to the larger order, then to
      * `d`); return their bits.
      */
    def choose(): Long = {
      var sum = 0L
      var t = 0
      while (t < size) {
        val seen = pairs(t)
        if (seen != null) {
          val ct = c(t)
          var i = 0
          while (i < seen.length) { if (seen(i) > 0) cost(t, (i >> ct) + (1 << (ct - 1)), i & ((1 << ct) - 1), seen(i)); i += 1 }
        }
        val row = costs(t)
        if (row != null) {
          var best = 2 * c(t)
          var k = c(t)
          while (k >= 0) {
            if (row(2 * k) < row(best)) best = 2 * k
            if (row(2 * k + 1) < row(best)) best = 2 * k + 1
            k -= 1
          }
          order(t) = best / 2
          down(t) = (best & 1) == 1
          sum += row(best)
        }
        t += 1
      }
      sum
    }

    /** Write the table: per entry, its order in `bitLength(c)` bits, then its direction bit. */
    def putTable(out: ChiIndex.Packer): Unit = {
      var t = 0
      while (t < size) { out.put(order(t), bitLength(c(t))); out.put(if (down(t)) 1 else 0, 1); t += 1 }
    }

    /** Write `d` under `prev` with entry `t`. */
    def put(out: ChiIndex.Packer, t: Int, prev: Int, d: Int): Unit = {
      val k = order(t)
      val one = 1L << k
      val v = (if (down(t)) prev - d else d) + one
      val n = bitLength(v)
      val last = bitLength(prev + one)
      // The zero bits and the 1 that ends them, then v's other bits; none ends the last class's zero bits.
      if (n < last) out.put(1L << (n - k - 1) | (v - (1L << (n - 1))) << (n - k), 2 * n - k - 1)
      else out.put((v - (1L << (last - 1))) << (last - k - 1), 2 * last - k - 2)
    }

    /** The bit at which [[getTable]] and [[get]] read next. */
    var p: Long = 0L

    /** Entry of the first table entry [[getTable]] read with `k > c`, or -1. */
    var bad: Int = -1
    def badWhat: String = s"the counts of bin ${bad / cMax + 1} under ${c(bad)} bits order ${order(bad)}, above ${c(bad)}"

    /** Read the table from bit 0 of `stream`. */
    def getTable(stream: Array[Long]): Unit = {
      var t = 0
      while (t < size) {
        val bits = bitLength(c(t))
        order(t) = ChiIndex.count(stream, p, bits)
        down(t) = ChiIndex.count(stream, p + bits, 1) == 1
        p += bits + 1
        if (order(t) > c(t) && bad < 0) bad = t
        t += 1
      }
    }

    /** Read the count under `prev` with entry `t`: the count when it is one, else a value outside [0, `prev`]. */
    def get(stream: Array[Long], t: Int, prev: Int): Long = {
      val k = order(t)
      val one = 1L << k
      val last = bitLength(prev + one)
      val zeros = last - k - 1 // the zero bits of the last class, which has no closing 1
      // The code's bits, at most 2 · 31 − 1: the 64 from bit p, zeros past the stream's end.
      val at = (p >>> 6).toInt
      val shift = p.toInt & 63
      val ahead = stream(at) >>> shift | (if (at + 1 < stream.length) stream(at + 1) << 1 << (63 - shift) else 0L)
      val z = java.lang.Long.numberOfTrailingZeros(ahead | 1L << zeros)
      var n = last
      var skip = zeros
      if (z < zeros) { n = k + 1 + z; skip = z + 1 }
      val x = (1L << (n - 1)) + (ahead >>> skip & (1L << (n - 1)) - 1) - one
      p += skip + n - 1
      if (down(t)) prev - x else x
    }
  }
}
