package repro.core

import repro.store.CatalogRow

/** The CHIs (§3.1) of many `w × h` masks indexed with one [[ChiConfig]], in
  * one dense slab: slot `s` holds an index ([[ChiIndex]]) in the 64-bit
  * words from `starts(s)` to `starts(s + 1)` of `words`, the slots back to
  * back. Each index takes the words its bins' widths need, so slots differ
  * in size. An `Int` slot table maps a key — a mask id, or an image id for
  * aggregated masks — to its slot, so every lookup is arithmetic on one
  * array. A slab built ahead of time fills its slots in key order, so slot =
  * key for a dataset's dense mask ids; an incremental session's slab fills
  * them in the order its queries index masks.
  *
  * A slab of aggregated masks also records, per slot, the ids of the masks
  * each index was built from ([[membersOf]]), so that its bounds serve only a
  * unit of exactly those masks ([[builtFrom]]).
  *
  * A slab is immutable to its readers and grows by [[append]], which returns
  * a new slab. The arrays have room beyond `size` slots (growth by half, so
  * appends cost amortised O(1) per word) and are shared with the slab
  * appended to, when that slab is the longest one using them: the older one
  * still reads only its own `size` slots, and treats a table entry at or
  * above `size` as absent.
  *
  * A slab serialises (as a broadcast ships it) only its live slots: their
  * per-cell counts in one bitstream ([[CellCounts]], 105 B for a 56×56
  * index that holds 375 B in memory, on average over ImageNet-lite), its
  * slot table and its members. Reading it back rebuilds the same packed words and starts, and
  * rejects a slot table that names a slot at or past `size`, or one slot
  * twice.
  */
final class ChiSlab private (
    val cfg: ChiConfig,
    val w: Int,
    val h: Int,
    private[core] val words: Array[Long],
    starts: Array[Int],
    slots: Array[Int],
    members: Array[Array[Long]],
    val size: Int,
    tail: ChiSlab.Tail,
) extends Serializable {

  /** The slot of `key`'s index, or -1 when the slab holds none. */
  def slot(key: Long): Int =
    if (key < 0 || key >= slots.length) -1
    else { val s = slots(key.toInt); if (s < size) s else -1 }

  /** The word at which `key`'s counts start, or -1 when it has no index. */
  def base(key: Long): Int = { val s = slot(key); if (s < 0) -1 else starts(s) }

  def contains(key: Long): Boolean = slot(key) >= 0

  /** `key`'s index as a view of its slot. */
  def get(key: Long): Option[ChiIndex] = {
    val b = base(key)
    if (b < 0) None else Some(new ChiIndex(key, w, h, cfg, words, b))
  }

  /** Evaluate `plan` on `key`'s index over `roi` for `row`; trivial bounds when it has none. */
  def eval(plan: BoundPlan, key: Long, roi: RoiSpec, row: CatalogRow): Unit = plan.eval(words, base(key), roi, row)

  /** Evaluate `plan` on `key`'s index over the ROI `(x1, y1)–(x2, y2)`; trivial bounds when it has none. */
  def eval(plan: BoundPlan, key: Long, x1: Int, y1: Int, x2: Int, y2: Int): Unit =
    plan.eval(words, base(key), x1, y1, x2, y2)

  /** Evaluate `plan` on the index of `row`'s mask; trivial bounds per term when it has none. */
  def eval(plan: ExprPlan, row: CatalogRow): Unit = plan.eval(words, base(row.mask_id), row)

  /** The ids of the masks `key`'s index was built from, ascending, when the slab records them. */
  def membersOf(key: Long): Option[IndexedSeq[Long]] = {
    val s = slot(key)
    Option.when(s >= 0 && s < members.length)(scala.collection.immutable.ArraySeq.unsafeWrapArray(members(s)))
  }

  /** True iff the slab holds `key`'s index and records that it was built
    * from exactly the masks of `rows`.
    */
  def builtFrom(key: Long, rows: Seq[CatalogRow]): Boolean = {
    val s = slot(key)
    s >= 0 && s < members.length && members(s).length == rows.size && {
      val ids = rows.iterator.map(_.mask_id).toArray
      java.util.Arrays.sort(ids)
      java.util.Arrays.equals(ids, members(s))
    }
  }

  /** Every index, as views, by ascending key. */
  def indexes: Iterator[ChiIndex] = Iterator.range(0, slots.length).flatMap(k => get(k.toLong))

  /** Bytes of the live indexes' words: the words they hold, not the arrays' room to grow. */
  def bytes: Long = 8L * starts(size)

  /** This slab with the indexes of `pieces` appended, in order. Every key
    * must be in [0, 2³¹ − 1) and new to the slab, and every piece must have
    * the slab's config and mask shape, and record members when the slab does
    * (the first piece fixes shape and members for an empty slab).
    */
  def append(pieces: Seq[ChiSlab.Packed]): ChiSlab = {
    val added = pieces.filter(_.keys.nonEmpty)
    if (added.isEmpty) return this
    val (nw, nh) = if (size == 0) (added.head.w, added.head.h) else (w, h)
    val recorded = if (size == 0) added.head.members.nonEmpty else members.nonEmpty
    added.foreach { p =>
      require(p.cfg == cfg, s"CHI of mask ${p.keys.head} was built with ${p.cfg}, not the slab's $cfg")
      require(p.w == nw && p.h == nh, s"CHI of mask ${p.keys.head} is for ${p.w}x${p.h} masks, not the slab's ${nw}x$nh")
      require(p.members.nonEmpty == recorded,
        s"CHI of key ${p.keys.head} ${if (recorded) "does not record" else "records"} its members, unlike the slab")
    }
    val keys = added.flatMap(_.keys).sorted
    require(keys.head >= 0 && keys.last < Int.MaxValue, s"CHI keys ${keys.head} to ${keys.last} leave [0, ${Int.MaxValue})")
    keys.iterator.zip(keys.iterator.drop(1)).foreach { case (a, b) => require(a != b, s"two CHIs for key $a") }
    keys.foreach(k => require(!contains(k), s"a CHI for key $k is already in the slab"))
    val n = size + keys.length
    val maxKey = keys.last.toInt
    val used = starts(size)
    val need = used.toLong + added.map(_.words.length.toLong).sum
    require(need < Int.MaxValue, s"a CHI slab of $need words")
    tail.synchronized {
      val inPlace = size > 0 && tail.filled == size && words.length >= need && starts.length > n &&
        (!recorded || members.length >= n)
      val (ws, st, mem, t) =
        if (inPlace) (words, starts, members, tail)
        else {
          val slotsCap = math.max(n, size + size / 2)
          (java.util.Arrays.copyOf(words, math.max(need.toInt, used + used / 2)),
            java.util.Arrays.copyOf(starts, slotsCap + 1),
            if (recorded) java.util.Arrays.copyOf(members, slotsCap) else members, new ChiSlab.Tail(size))
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
      var at = used
      added.foreach { p =>
        System.arraycopy(p.words, 0, ws, at, p.words.length)
        p.keys.indices.foreach { i =>
          table(p.keys(i).toInt) = s
          st(s) = at + p.starts(i)
          if (recorded) mem(s) = p.members(i)
          s += 1
        }
        at += p.words.length
      }
      st(n) = at
      t.filled = n
      new ChiSlab(cfg, nw, nh, ws, st, table, mem, n, t)
    }
  }

  /** The live slots only: their per-cell counts, the table without slots past
    * `size`, and their members.
    */
  private def writeReplace(): AnyRef = {
    val used = slots.lastIndexWhere(s => s >= 0 && s < size) + 1
    new ChiSlab.Wire(
      Array.tabulate(used)(k => if (slots(k) < size) slots(k) else -1),
      if (members.isEmpty) members else members.take(size),
      CellCounts(cfg, w, h, size, words),
    )
  }
}

object ChiSlab {

  /** How many slots of a slab's arrays some slab has filled: only the slab
    * of that size may append in place.
    */
  private[core] final class Tail(var filled: Int)

  def empty(cfg: ChiConfig): ChiSlab =
    new ChiSlab(cfg, 0, 0, Array.emptyLongArray, Array(0), Array.emptyIntArray, NoMembers, 0, new Tail(0))

  private val NoMembers: Array[Array[Long]] = Array.empty

  /** A slab's wire form: slot table, members and per-cell counts. */
  private final class Wire(slots: Array[Int], members: Array[Array[Long]], counts: CellCounts) extends Serializable {
    private def readResolve(): AnyRef = {
      val n = counts.n
      def invalid(what: String) = new java.io.InvalidObjectException(s"CHI slab of $n indexes: $what")
      val seen = new Array[Boolean](n)
      slots.indices.foreach { k =>
        val s = slots(k)
        if (s < -1 || s >= n) throw invalid(s"key $k names slot $s, outside [0, $n)")
        if (s >= 0) { if (seen(s)) throw invalid(s"slot $s is named twice, last by key $k"); seen(s) = true }
      }
      if (members.nonEmpty && (members.length != n || members.contains(null)))
        throw invalid(s"members recorded for ${members.count(_ != null)} of them")
      new ChiSlab(counts.cfg, counts.w, counts.h, counts.words, counts.starts, slots, members, n, new Tail(n))
    }
  }

  /** Indexes of `w × h` masks in storage order, as a build task returns them:
    * `keys(i)`'s index in the words from `starts(i)` to `starts(i + 1)` of
    * `words`, back to back from word 0 to the array's end, and the ids of the
    * masks it was built from at `members(i)`, ascending, or no `members` at
    * all. Serialised as per-cell counts ([[CellCounts]]).
    */
  final case class Packed(
      cfg: ChiConfig,
      keys: Array[Long],
      w: Int,
      h: Int,
      words: Array[Long],
      starts: Array[Int],
      members: Array[Array[Long]] = NoMembers,
  ) {
    require(starts.length == keys.length + 1 && starts(0) == 0 && starts(keys.length) == words.length,
      s"packed CHIs: ${keys.length} keys, ${starts.length} starts, ${words.length} words")

    private def writeReplace(): AnyRef = new Packed.Wire(keys, members, CellCounts(cfg, w, h, keys.length, words))
  }

  object Packed {
    private final class Wire(keys: Array[Long], members: Array[Array[Long]], counts: CellCounts) extends Serializable {
      private def readResolve(): AnyRef = {
        if (keys.length != counts.n || (members.nonEmpty && (members.length != keys.length || members.contains(null))))
          throw new java.io.InvalidObjectException(s"packed CHIs: ${keys.length} keys, ${counts.n} indexes, ${members.length} members")
        Packed(counts.cfg, keys, counts.w, counts.h, counts.words, counts.starts, members)
      }
    }
  }

  /** `indexes`, each built with `cfg`, packed under their keys, with the
    * mask ids each was built from when `members` gives them (one per index).
    */
  def pack(cfg: ChiConfig, indexes: Iterable[(Long, ChiIndex)], members: Iterable[Iterable[Long]] = Nil): Packed =
    if (indexes.isEmpty) Packed(cfg, Array.emptyLongArray, 0, 0, Array.emptyLongArray, Array(0))
    else {
      require(members.isEmpty || members.size == indexes.size, s"${members.size} member lists for ${indexes.size} CHIs")
      val first = indexes.head._2
      indexes.foreach { case (_, i) =>
        require(i.cfg == cfg, s"CHI of mask ${i.maskId} was built with ${i.cfg}, not the registry's $cfg")
        require(i.w == first.w && i.h == first.h, s"CHI of mask ${i.maskId} is for ${i.w}x${i.h} masks, not ${first.w}x${first.h}")
      }
      val sizes = indexes.iterator.map(_._2.sizeBytes.toInt / 8).toArray
      val starts = sizes.scanLeft(0)(_ + _)
      val words = new Array[Long](starts.last)
      indexes.iterator.zipWithIndex.foreach { case ((_, i), s) => System.arraycopy(i.words, i.base, words, starts(s), sizes(s)) }
      Packed(cfg, indexes.map(_._1).toArray, first.w, first.h, words, starts, members.map(_.toArray.sorted).toArray)
    }
}
