package repro.core

import java.nio.ByteBuffer

/** CHI streams ([[CellCounts]]) taken apart and written by hand, to forge
  * what a writer that checked nothing would write.
  */
object Streams {

  private def bitLength(v: Int): Int = 32 - Integer.numberOfLeadingZeros(v)

  /** `idx`'s per-cell counts, from its `hLookup`s: per cell in order (cx, cy),
    * the pixels at or above `boundary(b)` for each bin `b = 0 … bins − 1`.
    */
  def perCell(idx: ChiIndex): IndexedSeq[IndexedSeq[Int]] = {
    val cfg = idx.cfg
    for (cx <- 0 until ChiIndex.nCells(idx.w, cfg.cellW); cy <- 0 until ChiIndex.nCells(idx.h, cfg.cellH)) yield
      (0 until cfg.bins).map(b => idx.hLookup(cx + 1, cy + 1, b) - idx.hLookup(cx, cy + 1, b) - idx.hLookup(cx + 1, cy, b) +
        idx.hLookup(cx, cy, b))
  }

  /** `parts`, each a value and its bit count, packed low bit first into words as [[ChiIndex.Packer]] packs them. */
  def pack(parts: Seq[(Int, Int)]): Array[Long] = {
    val out = new ChiIndex.Packer(new Array[Long](((parts.map(_._2.toLong).sum + 63) / 64).toInt), 0)
    parts.foreach { case (v, bits) => require(v >= 0 && v.toLong >> bits == 0, s"$v in $bits bits"); out.put(v, bits) }
    out.flush()
    out.words
  }

  /** The table of a stream of `w × h` masks' indexes with `cfg` as parts for [[pack]]: for each bin `b ≥ 1` and
    * context `c` from 1 to the bit length of the largest cell's pixels, the order `k` in `bitLength(c)` bits and the
    * direction bit, 1 for `prev − d`; `entries` gives `(k, direction)` per `(b, c)`, and every other entry is order `c`,
    * direction 0.
    */
  def table(cfg: ChiConfig, w: Int, h: Int, entries: Map[(Int, Int), (Int, Int)] = Map.empty): Seq[(Int, Int)] = {
    val cMax = bitLength(math.min(cfg.cellW, w) * math.min(cfg.cellH, h))
    for (b <- 1 until cfg.bins; c <- 1 to cMax; (k, down) = entries.getOrElse((b, c), (c, 0)); part <- Seq((k, bitLength(c)), (down, 1)))
      yield part
  }

  /** The counts' words of a stream of indexes of `w × h` masks with `cfg`
    * whose per-cell counts are `cells` (per index, per cell, bins 0 … bins − 1),
    * unchecked: the plain table, every context `(b, c)` at order `c` coding
    * `d`, then each count at the bit length of the count one bin below, the
    * bounded-integer code that order `c` is.
    */
  def plainWords(cfg: ChiConfig, w: Int, h: Int, cells: Seq[Seq[IndexedSeq[Int]]]): Array[Long] =
    pack((if (cells.isEmpty) Nil else table(cfg, w, h)) ++
      (for (index <- cells; cell <- index; b <- 1 until cfg.bins) yield (cell(b), bitLength(cell(b - 1)))))

  /** A stream's parts: the bytes before its word count (`n`, members flag, keys and members), and its words. */
  def split(stream: Array[Byte]): (Array[Byte], Array[Long]) = {
    val in = ByteBuffer.wrap(stream)
    def varint(): Long = { var (v, shift, b) = (0L, 0, 0x80); while ((b & 0x80) != 0) { b = in.get() & 0xff; v |= (b & 0x7fL) << shift; shift += 7 }; v }
    val n = varint()
    val recorded = in.get() == 1
    (0L until n).foreach(_ => varint())
    if (recorded) (0L until n).foreach(_ => (0L until varint()).foreach(_ => varint()))
    val head = stream.take(in.position())
    val nWords = in.getInt()
    require(nWords >= 0 && nWords <= in.remaining / 8, s"a stream of $nWords words in ${in.remaining} bytes")
    val words = Array.fill(nWords)(in.getLong())
    (head, words)
  }

  /** The stream of `head` ([[split]]), then the word count `n` and `words`. */
  def joined(head: Array[Byte], n: Int, words: Seq[Long]): Array[Byte] = {
    val out = ByteBuffer.allocate(head.length + 4 + 8 * words.length).put(head).putInt(n)
    words.foreach(out.putLong)
    out.array
  }

  /** `stream` with its words replaced by `edit`'s word count and words. */
  def rewords(stream: Array[Byte])(edit: Array[Long] => (Int, Seq[Long])): Array[Byte] = {
    val (head, words) = split(stream)
    val (n, ws) = edit(words)
    joined(head, n, ws)
  }

  /** The stream of `counts` with its keys, members and words as given, unchecked. */
  def written(cfg: ChiConfig, w: Int, h: Int, keys: Array[Long], members: Array[Array[Long]], words: Array[Long]): Array[Byte] =
    CellCounts.bytes(CellCounts(cfg, w, h, keys, members, words))
}
