package repro.core

import repro.store.CatalogRow

/** The CHIs (§3.1) of many `w × h` masks indexed with one [[ChiConfig]], in
  * one dense slab: slot `s` holds the index ([[ChiIndex]]) of key `keys(s)` —
  * a mask id, or an image id for aggregated masks — in the 64-bit words from
  * `starts(s)` to `starts(s + 1)` of `words`, the slots back to back. Each
  * index takes the words its bins' widths need, so slots differ in size. An
  * `Int` slot table maps a key to its slot, so every lookup is arithmetic on
  * one array. A slab built ahead of time fills its slots in key order, so
  * slot = key for a dataset's dense mask ids; an incremental session's slab
  * fills them in the order its queries index masks.
  *
  * A slab of aggregated masks also records, per slot, the ids of the masks
  * each index was built from ([[membersOf]]), so that its bounds serve only a
  * unit of exactly those masks ([[builtFrom]]).
  *
  * A slab is one immutable value of exactly the size it holds: build tasks
  * return one ([[ChiSlab.of]]), and [[append]] copies slabs into a new one.
  * It serialises (as a task result or a broadcast ships it) as one stream
  * ([[CellCounts]]): its keys in slot order as varint gaps, its members, and
  * its per-cell counts in one bitstream, 84 B for a 56×56 index that holds
  * 375 B in memory, on average over ImageNet-lite; no table sized by the
  * largest key. Reading it back rebuilds the same words, starts and slot
  * table, and runs the key and member checks every slab passes
  * ([[ChiSlab.checked]]).
  */
final class ChiSlab private (
    val cfg: ChiConfig,
    val w: Int,
    val h: Int,
    private[core] val keys: Array[Int],
    private[core] val words: Array[Long],
    private val starts: Array[Int],
    private[core] val members: Array[Array[Long]],
    slots: Array[Int],
) extends Serializable {

  def size: Int = keys.length

  /** The slot of `key`'s index, or -1 when the slab holds none. */
  def slot(key: Long): Int = if (key < 0 || key >= slots.length) -1 else slots(key.toInt)

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
    Option.when(s >= 0 && members.nonEmpty)(scala.collection.immutable.ArraySeq.unsafeWrapArray(members(s)))
  }

  /** True iff the slab holds `key`'s index and records that it was built
    * from exactly the masks of `rows`.
    */
  def builtFrom(key: Long, rows: Seq[CatalogRow]): Boolean = {
    val s = slot(key)
    s >= 0 && members.nonEmpty && members(s).length == rows.size && {
      val ids = rows.iterator.map(_.mask_id).toArray
      java.util.Arrays.sort(ids)
      java.util.Arrays.equals(ids, members(s))
    }
  }

  /** Bytes of the indexes' words. */
  def bytes: Long = 8L * words.length

  /** A new slab of this one's indexes, then those of `pieces`, in order, in
    * arrays of exactly the size they need. Every piece must have the slab's
    * config and mask shape, and record members when the slab does (the first
    * piece fixes shape and members for an empty slab); every key must pass
    * [[ChiSlab.checked]] and be new to the slab.
    */
  def append(pieces: Seq[ChiSlab]): ChiSlab = {
    val added = pieces.filter(_.size > 0)
    if (added.isEmpty) return this
    val parts = if (size == 0) added else this +: added
    val first = parts.head
    val recorded = first.members.nonEmpty
    added.foreach { p =>
      require(p.cfg == cfg, s"CHI of key ${p.keys(0)} was built with ${p.cfg}, not the slab's $cfg")
      require(p.w == first.w && p.h == first.h,
        s"CHI of key ${p.keys(0)} is for ${p.w}x${p.h} masks, not the slab's ${first.w}x${first.h}")
      require(p.members.nonEmpty == recorded,
        s"CHI of key ${p.keys(0)} ${if (recorded) "does not record" else "records"} its members, unlike the slab")
    }
    val need = parts.map(_.words.length.toLong).sum
    require(need < Int.MaxValue, s"a CHI slab of $need words")
    val ws = new Array[Long](need.toInt)
    val st = new Array[Int](parts.map(_.size).sum + 1)
    var s = 0
    var at = 0
    parts.foreach { p =>
      System.arraycopy(p.words, 0, ws, at, p.words.length)
      var i = 0
      while (i < p.size) { st(s + i) = at + p.starts(i); i += 1 }
      s += p.size
      at += p.words.length
    }
    st(s) = at
    ChiSlab.checked(cfg, first.w, first.h, Array.concat(parts.map(_.keys): _*), ws, st,
      if (recorded) Array.concat(parts.map(_.members): _*) else CellCounts.NoMembers, held = size)
  }

  /** One stream of its keys in slot order, its members and its per-cell counts. */
  private def writeReplace(): AnyRef = new ChiSlab.Wire(CellCounts(cfg, w, h, keys.map(_.toLong), members, words))
}

object ChiSlab {

  def empty(cfg: ChiConfig): ChiSlab =
    new ChiSlab(cfg, 0, 0, Array.emptyIntArray, Array.emptyLongArray, Array(0), CellCounts.NoMembers, Array.emptyIntArray)

  /** `key` as a slab key: in [0, 2³¹ − 1), so that a slot table of `key + 1` entries can be allocated. */
  private[core] def key(key: Long): Int = {
    require(key >= 0 && key < Int.MaxValue, s"CHI key $key leaves [0, ${Int.MaxValue})")
    key.toInt
  }

  /** The slab of `keys(s)`'s index at slot `s`, in the words from
    * `starts(s)` to `starts(s + 1)` of `words`, with `members(s)` when
    * `members` is not empty. The one place a slab's keys and members are
    * checked: every key must pass [[key]] and appear once (a key repeated
    * within the first `held` slots is one the slab appended to already held),
    * and members, when recorded, must be one list per key.
    */
  private def checked(cfg: ChiConfig, w: Int, h: Int, keys: Array[Int], words: Array[Long], starts: Array[Int],
      members: Array[Array[Long]], held: Int): ChiSlab = {
    require(members.isEmpty || (members.length == keys.length && !members.contains(null)),
      s"CHI slab of ${keys.length} indexes records ${members.count(_ != null)} member lists")
    val slots = Array.fill(keys.iterator.map(k => key(k.toLong)).maxOption.fold(0)(_ + 1))(-1)
    var s = 0
    while (s < keys.length) {
      val k = keys(s)
      require(slots(k) < 0, if (slots(k) < held) s"a CHI for key $k is already in the slab" else s"two CHIs for key $k")
      slots(k) = s
      s += 1
    }
    new ChiSlab(cfg, w, h, keys, words, starts, members, slots)
  }

  /** The slab of `counts`'s indexes under its keys, in slot order, with
    * its members when it records them: a serialised or persisted slab read
    * back, checked as every slab is.
    */
  private[core] def apply(counts: CellCounts): ChiSlab =
    checked(counts.cfg, counts.w, counts.h, counts.keys.map(key), counts.words, counts.starts, counts.members, held = 0)

  /** A slab's wire form: its stream. */
  private final class Wire(counts: CellCounts) extends Serializable {
    private def readResolve(): AnyRef =
      try ChiSlab(counts)
      catch { case e: IllegalArgumentException => throw new java.io.InvalidObjectException(e.getMessage) }
  }

  /** The slab of `indexes`, each built with `cfg`, under their keys in that
    * order, with the mask ids each was built from when `members` gives them
    * (one per index), ascending.
    */
  def of(cfg: ChiConfig, indexes: Iterable[(Long, ChiIndex)], members: Iterable[Iterable[Long]] = Nil): ChiSlab =
    if (indexes.isEmpty) empty(cfg)
    else {
      val first = indexes.head._2
      indexes.foreach { case (_, i) =>
        require(i.cfg == cfg, s"CHI of mask ${i.maskId} was built with ${i.cfg}, not the slab's $cfg")
        require(i.w == first.w && i.h == first.h, s"CHI of mask ${i.maskId} is for ${i.w}x${i.h} masks, not ${first.w}x${first.h}")
      }
      val sizes = indexes.iterator.map(_._2.sizeBytes.toInt / 8).toArray
      val starts = sizes.scanLeft(0)(_ + _)
      val words = new Array[Long](starts.last)
      indexes.iterator.zipWithIndex.foreach { case ((_, i), s) => System.arraycopy(i.words, i.base, words, starts(s), sizes(s)) }
      checked(cfg, first.w, first.h, indexes.iterator.map(e => key(e._1)).toArray, words, starts,
        members.map(_.toArray.sorted).toArray, held = 0)
    }
}
