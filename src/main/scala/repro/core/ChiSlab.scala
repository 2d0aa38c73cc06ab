package repro.core

import repro.store.CatalogRow

/** The CHIs (§3.1) of many `w × h` masks indexed with one [[ChiConfig]], in
  * one dense slab: slot `s` holds an index's counts at offset `s · stride`
  * of `low` (the low 16 bits) and of `high` (the high 16 bits, present only
  * when `w·h > 65,535`). An `Int` slot table maps a key — a mask id, or an
  * image id for aggregated masks — to its slot, so every lookup is
  * arithmetic on one array. A slab built ahead of time fills its slots in
  * key order, so slot = key for a dataset's dense mask ids; an incremental
  * session's slab fills them in the order its queries index masks.
  *
  * A slab is immutable to its readers and grows by [[append]], which returns
  * a new slab. The arrays have room beyond `size` slots (growth by half, so
  * appends cost amortised O(1) per count) and are shared with the slab
  * appended to, when that slab is the longest one using them: the older one
  * still reads only its own `size` slots, and treats a table entry at or
  * above `size` as absent. A slab serialises only its live slots and table.
  */
final class ChiSlab private (
    val cfg: ChiConfig,
    val w: Int,
    val h: Int,
    private[core] val low: Array[Char],
    private[core] val high: Array[Char],
    slots: Array[Int],
    val size: Int,
    tail: ChiSlab.Tail,
) extends Serializable {

  /** Counts per index; 0 until the first index fixes the shape. */
  val stride: Int = ChiIndex.nCells(w, cfg.cellW) * ChiIndex.nCells(h, cfg.cellH) * cfg.bins

  /** The slot of `key`'s index, or -1 when the slab holds none. */
  def slot(key: Long): Int =
    if (key < 0 || key >= slots.length) -1
    else { val s = slots(key.toInt); if (s < size) s else -1 }

  /** Offset of `key`'s counts in the slab's arrays, or -1 when it has no index. */
  def base(key: Long): Int = { val s = slot(key); if (s < 0) -1 else s * stride }

  def contains(key: Long): Boolean = slot(key) >= 0

  /** `key`'s index as a view of its slot. */
  def get(key: Long): Option[ChiIndex] = {
    val b = base(key)
    if (b < 0) None else Some(new ChiIndex(key, w, h, cfg, low, high, b))
  }

  /** Evaluate `plan` on `key`'s index for `row`; trivial bounds when it has none. */
  def eval(plan: BoundPlan, key: Long, row: CatalogRow): Unit = plan.eval(low, high, base(key), row)

  /** Every index, as views, by ascending key. */
  def indexes: Iterator[ChiIndex] = Iterator.range(0, slots.length).flatMap(k => get(k.toLong))

  /** Uncompressed bytes of the live indexes. */
  def bytes: Long = ChiIndex.countBytes(w, h).toLong * stride * size

  /** This slab with the indexes of `pieces` appended, in order. Every key
    * must be in [0, 2³¹ − 1) and new to the slab, and every piece must have
    * the slab's mask shape (the first piece fixes it for an empty slab).
    */
  def append(pieces: Seq[ChiSlab.Packed]): ChiSlab = {
    val added = pieces.filter(_.keys.nonEmpty)
    if (added.isEmpty) return this
    val (nw, nh) = if (size == 0) (added.head.w, added.head.h) else (w, h)
    added.foreach { p =>
      require(p.w == nw && p.h == nh, s"CHI of mask ${p.keys.head} is for ${p.w}x${p.h} masks, not the slab's ${nw}x$nh")
    }
    val keys = added.flatMap(_.keys).sorted
    require(keys.head >= 0 && keys.last < Int.MaxValue, s"CHI keys ${keys.head} to ${keys.last} leave [0, ${Int.MaxValue})")
    keys.iterator.zip(keys.iterator.drop(1)).foreach { case (a, b) => require(a != b, s"two CHIs for key $a") }
    keys.foreach(k => require(!contains(k), s"a CHI for key $k is already in the slab"))
    val n = size + keys.length
    val maxKey = keys.last.toInt
    val wide = ChiIndex.countBytes(nw, nh) == 4
    val st = ChiIndex.nCells(nw, cfg.cellW) * ChiIndex.nCells(nh, cfg.cellH) * cfg.bins
    tail.synchronized {
      val inPlace = size > 0 && tail.filled == size && low.length >= n * st
      val (lo, hi, t) =
        if (inPlace) (low, high, tail)
        else {
          val cap = math.max(n, size + size / 2) * st
          (java.util.Arrays.copyOf(low, cap), if (wide) java.util.Arrays.copyOf(high, cap) else ChiIndex.NoHigh,
            new ChiSlab.Tail(size))
        }
      val table =
        if (inPlace && slots.length > maxKey) slots
        else {
          val t2 = Array.fill(math.max(maxKey + 1, slots.length + slots.length / 2))(-1)
          var k = 0
          while (k < slots.length) { if (slots(k) < size) t2(k) = slots(k); k += 1 }
          t2
        }
      var s = size
      added.foreach { p =>
        System.arraycopy(p.low, 0, lo, s * st, p.low.length)
        if (wide) System.arraycopy(p.high, 0, hi, s * st, p.high.length)
        p.keys.foreach { key => table(key.toInt) = s; s += 1 }
      }
      t.filled = n
      new ChiSlab(cfg, nw, nh, lo, hi, table, n, t)
    }
  }

  /** Shared arrays hold slots past `size`, or room for more: serialise a copy that has neither. */
  private def writeReplace(): AnyRef = {
    val used = slots.lastIndexWhere(s => s >= 0 && s < size) + 1
    val clean = low.length == size * stride && slots.length == used && !slots.exists(_ >= size)
    if (clean) this
    else {
      val table = Array.tabulate(used)(k => if (slots(k) < size) slots(k) else -1)
      val n = size * stride
      new ChiSlab(cfg, w, h, java.util.Arrays.copyOf(low, n),
        if (high.length == 0) high else java.util.Arrays.copyOf(high, n), table, size, new ChiSlab.Tail(size))
    }
  }
}

object ChiSlab {

  /** How many slots of a slab's arrays some slab has filled: only the slab
    * of that size may append in place.
    */
  private[core] final class Tail(var filled: Int) extends Serializable

  def empty(cfg: ChiConfig): ChiSlab =
    new ChiSlab(cfg, 0, 0, Array.emptyCharArray, ChiIndex.NoHigh, Array.emptyIntArray, 0, new Tail(0))

  /** Indexes of `w × h` masks in storage order, as a build task returns them:
    * `keys(i)`'s counts at offset `i · stride` of `low` and `high`.
    */
  final case class Packed(keys: Array[Long], w: Int, h: Int, low: Array[Char], high: Array[Char])

  /** `indexes`, each built with `cfg`, packed under their keys. */
  def pack(cfg: ChiConfig, indexes: Iterable[(Long, ChiIndex)]): Packed =
    if (indexes.isEmpty) Packed(Array.emptyLongArray, 0, 0, Array.emptyCharArray, ChiIndex.NoHigh)
    else {
      val first = indexes.head._2
      indexes.foreach { case (_, i) =>
        require(i.cfg == cfg, s"CHI of mask ${i.maskId} was built with ${i.cfg}, not the registry's $cfg")
        require(i.w == first.w && i.h == first.h, s"CHI of mask ${i.maskId} is for ${i.w}x${i.h} masks, not ${first.w}x${first.h}")
      }
      val n = first.length
      val wide = ChiIndex.countBytes(first.w, first.h) == 4
      val low = new Array[Char](n * indexes.size)
      val high = if (wide) new Array[Char](n * indexes.size) else ChiIndex.NoHigh
      indexes.iterator.zipWithIndex.foreach { case ((_, i), s) =>
        System.arraycopy(i.low, i.base, low, s * n, n)
        if (wide) System.arraycopy(i.highs, i.base, high, s * n, n)
      }
      Packed(indexes.map(_._1).toArray, first.w, first.h, low, high)
    }
}
