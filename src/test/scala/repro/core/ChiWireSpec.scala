package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, InvalidObjectException, ObjectInputStream, ObjectOutputStream}

import repro.store.CatalogRow

/** Tests for the wire form of every Java-serialised CHI ([[CellCounts]]):
  * indexes and slabs, a build task's among them, read back with the same
  * keys, counts and bounds, in exactly the bits their pixels call for
  * ([[Fixtures.wireBits]]: each per-cell count at the bit length of the
  * cell's count one bin below),
  * and counts no mask can have, or a stream whose words do not frame its
  * counts, are rejected with an error that names the problem, also when
  * [[ChiRegistry.load]] reads the stream from disk. And a [[ChiConfig]]
  * serialises without its derived arrays.
  */
class ChiWireSpec extends repro.SparkSpec {
  import Fixtures._

  private def bytes(o: AnyRef): Array[Byte] = {
    val b = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(b)
    out.writeObject(o)
    out.close()
    b.toByteArray
  }

  private def read[A](bs: Array[Byte]): A = new ObjectInputStream(new ByteArrayInputStream(bs)).readObject().asInstanceOf[A]

  private def roundTrip[A <: AnyRef](a: A): A = read[A](bytes(a))

  /** `got` equals `want` in every `hLookup` and in the bounds of every ROI kind over random and bin-edge ranges. */
  private def sameIndex(got: ChiIndex, want: ChiIndex, seed: Long): Unit = {
    assert(got.maskId == want.maskId && got.w == want.w && got.h == want.h && got.cfg == want.cfg)
    val cfg = want.cfg
    for (cx <- 0 to ChiIndex.nCells(want.w, cfg.cellW); cy <- 0 to ChiIndex.nCells(want.h, cfg.cellH); b <- 0 until cfg.bins)
      assert(got.hLookup(cx, cy, b) == want.hLookup(cx, cy, b), s"H($cx, $cy)($b) of ${want.maskId}")
    val r = new java.util.Random(seed)
    for (_ <- 0 until 30) {
      val box = randomRoi(r, want.w, want.h)
      val row = CatalogRow(want.maskId, 0, 1, 1, want.w, want.h, "", box.x1, box.y1, box.x2, box.y2, 0)
      val edge = r.nextInt(cfg.bins + 1).toDouble / cfg.bins
      for (range <- Seq(randomRange(r), ValueRange(edge, 1.0), ValueRange(0.0, math.max(edge, 1e-9)));
           spec <- Seq(ConstRoi(randomRoi(r, want.w, want.h)), ObjectRoi, FullRoi)) {
        def bounds(i: ChiIndex) = {
          val plan = new BoundPlan(cfg, i.w, i.h, range)
          plan.eval(i.words, i.base, spec, row)
          (plan.lower, plan.upper)
        }
        assert(bounds(got) == bounds(want), s"$spec $range of ${want.maskId}")
      }
    }
  }

  private def sameSlab(got: ChiSlab, want: ChiSlab, keys: Seq[Long]): Unit = {
    assert(got.size == want.size && got.cfg == want.cfg && got.w == want.w && got.h == want.h)
    keys.foreach { k =>
      assert(got.contains(k) == want.contains(k), s"key $k")
      want.get(k).foreach(i => sameIndex(got.get(k).get, i, k))
      assert(got.membersOf(k) == want.membersOf(k), s"members of $k")
    }
  }

  /** Serialised bytes of `payload` bytes of block data: 1,024-byte blocks with a 5-byte header, then the rest
    * with a 2-byte header up to 255 bytes, else 5.
    */
  private def blockBytes(payload: Long): Long =
    payload + 5 * (payload / 1024) + (payload % 1024 match { case 0 => 0; case r if r <= 255 => 2; case _ => 5 })

  /** Serialised bytes of a stream of `bits` bits of counts: its word count, then its words, as block data. */
  private def streamBytes(bits: Long): Long = blockBytes(4 + 8 * ((bits + 63) / 64))

  /** What an index adds to a serialised array after one of the same shape and config, besides its stream: the
    * proxy's object and class back-reference (6 B), its mask id (8), the counts' object and class back-reference
    * (6), w, h and n (12), a back-reference to the config (5) and the end of the block data (1).
    */
  private val IndexBytes = 38L

  /** Bytes `idx` adds to a serialised array after `ref`, an index of the same shape and config. */
  private def addedBytes(ref: ChiIndex, idx: ChiIndex): Long = bytes(Array(ref, idx)).length - bytes(Array(ref)).length

  // The labels name each case's cell size by the bytes a count took when every count took 1, 2 or 4 bytes.
  // (w, h, cfg, what it covers)
  for ((w, h, cfg, what) <- Seq(
      (56, 56, ChiConfig(8, 8, 10), "ImageNet-lite: 1 byte per count"),
      (50, 37, ChiConfig(8, 8, 10), "partial last cells"),
      (300, 300, ChiConfig(64, 64, 4), "high halves, 2 bytes per count"),
      (300, 300, ChiConfig(300, 256, 3), "high halves, 4 bytes per count"),
      (56, 56, ChiConfig(16, 16, 5), "16x16 cells: 2 bytes per count"),
      (56, 56, ChiConfig(8, 8, 1), "b = 1: no per-cell payload"),
    )) {
    test(s"an index and a slab read back with every hLookup and bound: ${w}x$h $cfg ($what)") {
      val masks =
        if (w == 300) Seq(wideMask, { val r = new java.util.Random(301); Mask(301, 300, 300, Array.fill(300 * 300)(0.5f + r.nextFloat() * 0.49f)) })
        else Seq(randomMask(1, w, h, 11), quantisedMask(2, w, h, cfg.bins, 12), Mask(3, w, h, Array.fill(w * h)(0.0f)))
      masks.foreach { m =>
        val idx = ChiIndex.build(m, cfg)
        sameIndex(roundTrip(idx), idx, m.id)
      }
      val slab = slabOf(cfg, masks)
      sameSlab(roundTrip(slab), slab, masks.map(_.id) :+ 999L)
      if (w == 300) assert(roundTrip(slab).get(300L).get.counts.max > 65535)
    }
  }

  /** A `w × h` mask with every pixel in the top bin. */
  private def topBin(id: Long, w: Int, h: Int): Mask = Mask(id, w, h, Array.fill(w * h)(0.999f))

  // (what it covers, cfg, masks, the first mask's wire bits worked out by hand)
  for ((what, cfg, masks, first) <- Seq[(String, ChiConfig, Seq[Mask], Option[Long])](
      ("an all-zero mask: bin 1's widths only", ChiConfig(8, 8, 10), Seq(Mask(1, 56, 56, Array.fill(56 * 56)(0f))),
        Some(7L * 7 * 7)),
      ("an all-top-bin mask: every count at its cell's width", ChiConfig(8, 8, 10), Seq(topBin(2, 56, 56)),
        Some(7L * 7 * 9 * 7)),
      ("cells of 255 pixels", ChiConfig(15, 17, 4), Seq(topBin(3, 30, 34), randomMask(4, 30, 34, 4)), Some(2L * 2 * 3 * 8)),
      ("cells of 256 pixels", ChiConfig(16, 16, 4), Seq(topBin(5, 32, 32), randomMask(6, 32, 32, 6)), Some(2L * 2 * 3 * 9)),
      ("cells of 65,535 pixels", ChiConfig(255, 257, 3), Seq(topBin(7, 255, 257), randomMask(8, 255, 257, 8)),
        Some(2L * 16)),
      ("cells of 65,536 pixels", ChiConfig(256, 256, 3), Seq(topBin(9, 256, 256), randomMask(10, 256, 256, 10)),
        Some(2L * 17)),
      // 6·4 cells of 64 pixels (7 bits), 4 of 2·8 (5), 6 of 8·5 (6) and one of 2·5 (4), each for 9 bins.
      ("partial last cells", ChiConfig(8, 8, 10),
        Seq(topBin(11, 50, 37), randomMask(12, 50, 37, 12), quantisedMask(13, 50, 37, 10, 13)),
        Some((24L * 7 + 4 * 5 + 6 * 6 + 4) * 9)),
      ("b = 1: no payload", ChiConfig(8, 8, 1), Seq(randomMask(14, 56, 56, 14)), Some(0L)),
      ("b = 20", ChiConfig(8, 8, 20), Seq(randomMask(15, 56, 56, 15), quantisedMask(16, 56, 56, 20, 16)), None),
    )) {
    test(s"an index costs exactly the wire bits of its pixels and reads back: $what") {
      first.foreach(bits => assert(wireBits(masks.head, cfg) == bits))
      masks.foreach { m =>
        val idx = ChiIndex.build(m, cfg)
        val ref = ChiIndex.build(Mask(0, m.w, m.h, Array.fill(m.w * m.h)(0f)), cfg)
        val bits = wireBits(m, cfg)
        assert(addedBytes(ref, idx) == IndexBytes + streamBytes(bits), s"mask ${m.id}: $bits bits")
        sameIndex(roundTrip(idx), idx, m.id)
      }
    }
  }

  test("an empty slab reads back empty") {
    val cfg = ChiConfig(8, 8, 10)
    val back = roundTrip(ChiSlab.empty(cfg))
    assert(back.size == 0 && back.cfg == cfg && !back.contains(0L))
    assert(back.append(Seq(slabOf(cfg, Seq(randomMask(5, 8, 8, 1))))).contains(5L))
  }

  // A slab grown by appends holds exactly its own words, shared with no longer slab, and serialises as the slab
  // built in one piece does.
  test("a slab with growth slack, sharing arrays with a longer slab, reads back only its live slots") {
    val cfg = ChiConfig(4, 4, 4)
    val masks = (0 until 24).map(i => randomMask(i, 8, 8, 700L + i))
    val grown = (0 until 20 by 4).foldLeft(ChiSlab.empty(cfg))((s, i) => s.append(Seq(slabOf(cfg, masks.slice(i, i + 4)))))
    val longer = grown.append(Seq(slabOf(cfg, masks.slice(20, 24))))
    val back = roundTrip(grown)
    sameSlab(back, grown, (0L until 24L))
    assert(back.size == 20 && !back.contains(20L) && longer.contains(20L))
    assert(grown.words.length == slabOf(cfg, masks.take(20)).words.length && !(grown.words eq longer.words))
    assert(bytes(grown).length == bytes(slabOf(cfg, masks.take(20))).length)
    // The read slab appends like any other.
    assert(back.append(Seq(slabOf(cfg, masks.slice(20, 22)))).size == 22)
  }

  // A build task's output is a slab: keys in slot order (here not ascending) and members read back with it.
  test("packed build output reads back with its keys, counts and members") {
    val cfg = ChiConfig(8, 8, 10)
    val masks = (0 until 5).map(i => randomMask(i, 56, 56, 40L + i)).reverse
    val p = ChiSlab.of(cfg, masks.map(m => (m.id + 100) -> ChiIndex.build(m, cfg)), masks.map(m => Seq(2 * m.id + 1, 2 * m.id)))
    val back = roundTrip(p)
    assert(back.cfg == cfg && back.keys.toSeq == p.keys.toSeq && back.keys.toSeq == Seq(104, 103, 102, 101, 100))
    assert(back.w == 56 && back.h == 56 && back.words.toSeq == p.words.toSeq)
    assert(back.members.map(_.toSeq).toSeq == masks.map(m => Seq(2 * m.id, 2 * m.id + 1)))
    val slab = ChiSlab.empty(cfg).append(Seq(back))
    masks.foreach { m =>
      val i = ChiIndex.build(m, cfg)
      sameIndex(slab.get(m.id + 100).get, new ChiIndex(m.id + 100, 56, 56, cfg, i.words), m.id)
    }
    assert(slab.membersOf(100L).contains(IndexedSeq(0L, 1L)))
  }

  test("a 56x56 index with 8x8 cells and 10 bins costs at most 7·7·9 bytes plus a small constant on the wire") {
    val cfg = ChiConfig(8, 8, 10)
    val masks = (0 until 101).map(i => randomMask(i, 56, 56, 900L + i))
    val indexes = masks.map(m => ChiIndex.build(m, cfg))
    val bits = masks.map(m => wireBits(m, cfg))
    // Exactly: each further index adds its fixed fields and a stream of its own; each further slab slot adds its
    // bits to the slab's one stream, and its key (4 B).
    val added = bytes(indexes.toArray).length - bytes(indexes.take(1).toArray).length
    assert(added == bits.tail.map(b => IndexBytes + streamBytes(b)).sum)
    val slab = slabOf(cfg, masks)
    val addedSlots = bytes(slab).length - bytes(slabOf(cfg, masks.take(1))).length
    assert(addedSlots == streamBytes(bits.sum) - streamBytes(bits.head) + 4 * 100)
    // The envelope of a count per byte.
    assert(added / 100 <= 7 * 7 * 9 + 48, s"${added / 100} bytes per serialised index")
    assert(addedSlots / 100 <= 7 * 7 * 9 + 8, s"${addedSlots / 100} bytes per slab slot")
    indexes.foreach(i => sameIndex(roundTrip(i), i, i.maskId))
    sameSlab(roundTrip(slab), slab, masks.map(_.id))
  }

  /** A 16x16 all-zero mask's index with 8x8 cells and 4 bins, its counts changed by `edit`. */
  private def edited(edit: Array[Int] => Unit): ChiIndex = {
    val cfg = ChiConfig(8, 8, 4)
    val wide = ChiIndex.build(Mask(7, 16, 16, Array.fill(256)(0.0f)), cfg).counts.toArray
    edit(wide)
    // Bins 1 … 3 of the 4 corners, bin-major, packed unchecked.
    ChiIndex.packed(7, 16, 16, cfg, Array.tabulate(4 * 3)(i => wide((i % 4) * 4 + i / 4 + 1)))
  }

  /** Offset of corner `(cx, cy)`'s bin `b` in a 2x2-cell, 4-bin index. */
  private def at(cx: Int, cy: Int, b: Int): Int = ((cx - 1) * 2 + (cy - 1)) * 4 + b

  private def rejected(bs: Array[Byte]): String = intercept[InvalidObjectException](read[AnyRef](bs)).getMessage

  test("the writer rejects per-cell counts no mask can have, naming the cell and bin") {
    // Cell (0, 0) holds 64 pixels; 70 of them cannot be ≥ boundary(1), nor 3 ≥ boundary(2) when none is ≥ boundary(1).
    val outside = intercept[IllegalArgumentException](bytes(edited(c => c(at(1, 1, 1)) = 70))).getMessage
    assert(outside.contains("CHI in slot 0 of 1: cell (0, 0) has 70 pixels at bin 1, outside [0, 64]"), outside)
    val increase = intercept[IllegalArgumentException](bytes(edited(c => c(at(1, 1, 2)) = 3))).getMessage
    assert(increase.contains("cell (0, 0) has 3 pixels at bin 2 but 0 at bin 1: per-cell counts increase over bins"), increase)
    val cfg = ChiConfig(8, 8, 4)
    val bad = edited(c => c(at(2, 2, 3)) = 1)
    val slab = ChiSlab.of(cfg, Seq(6L -> ChiIndex.build(Mask(6, 16, 16, Array.fill(256)(0.0f)), cfg), 7L -> bad))
    val inSlab = intercept[IllegalArgumentException](bytes(slab)).getMessage
    assert(inSlab.contains("CHI in slot 1 of 2: cell (1, 1) has 1 pixels at bin 3 but 0 at bin 2"), inSlab)
  }

  /** `idx` serialised, with the word count and words of its stream, its last block data, replaced by `edit`'s: what
    * a writer that checked nothing would write. The new stream must fit in one short block (at most 31 words).
    */
  private def restreamed(idx: ChiIndex)(edit: Array[Long] => (Int, Seq[Long])): Array[Byte] = {
    import java.nio.ByteBuffer
    val bs = bytes(idx)
    def count(q: Int) = ByteBuffer.wrap(bs, q + 2, 4).getInt
    val q = (bs.length - 7 to 0 by -1)
      .find(q => bs(q) == 0x77 && q + 3 + (bs(q + 1) & 0xff) == bs.length && (bs(q + 1) & 0xff) == 4 + 8 * count(q)).get
    val (n, words) = edit(Array.tabulate(count(q))(i => ByteBuffer.wrap(bs, q + 6 + 8 * i, 8).getLong))
    val stream = ByteBuffer.allocate(4 + 8 * words.length).putInt(n)
    words.foreach(stream.putLong)
    bs.take(q) ++ Array[Byte](0x77, (4 + 8 * words.length).toByte) ++ stream.array :+ 0x78.toByte
  }

  /** A 16x16 mask whose only pixels above 0 are two of cell (0, 0) in bin 2 of 4, and its index with 8x8 cells. */
  private val twoInBin2Mask = Mask(7, 16, 16, Array.tabulate(256)(i => if (i < 2) 0.6f else 0.0f))
  private val twoInBin2: ChiIndex = ChiIndex.build(twoInBin2Mask, ChiConfig(8, 8, 4))

  /** The all-zero index of [[edited]]: four cells of 64 pixels at 7 bits each for bin 1, none above, in one word. */
  private val allZero: ChiIndex = edited(_ => ())

  test("a stream holds each count at the bit length of its cell's count one bin below, and nothing else") {
    // Cell (0, 0): 2 at bin 1 (7 bits, under 64), 2 at bin 2 (2 bits, under 2), 0 at bin 3 (2 bits); then three
    // cells with 0 at bin 1 (7 bits each) and nothing above.
    assert(restreamed(twoInBin2) { ws => assert(ws.toSeq == Seq(2L | 2L << 7)); (1, ws.toSeq) }.toSeq == bytes(twoInBin2).toSeq)
    assert(restreamed(allZero) { ws => assert(ws.toSeq == Seq(0L)); (1, ws.toSeq) }.toSeq == bytes(allZero).toSeq)
    assert(wireBits(twoInBin2Mask, twoInBin2.cfg) == 7 + 2 + 2 + 3 * 7)
  }

  test("the reader rejects a per-cell count outside [0, the cell's pixels]") {
    // Cell (0, 0) holds 64 pixels; 70 of them cannot be ≥ boundary(1), and 70 fits in bin 1's 7 bits.
    val e = rejected(restreamed(allZero)(ws => (1, Seq(ws(0) | 70L))))
    assert(e.contains("cell (0, 0) has 70 pixels at bin 1, outside [0, 64]"), e)
  }

  test("the reader rejects per-cell counts that increase over bins") {
    // Bin 2's 2 bits of cell (0, 0), from bit 7, read 3 over bin 1's 2.
    val e = rejected(restreamed(twoInBin2)(ws => (1, Seq(ws(0) | 1L << 7))))
    assert(e.contains("cell (0, 0) has 3 pixels at bin 2 but 2 at bin 1: per-cell counts increase over bins"), e)
  }

  test("the reader rejects a word count above the worst case before allocating") {
    // The worst case is 4 cells × 3 bins × 7 bits = 84 bits, 2 words: two words pass this check and fail the next.
    assert(rejected(restreamed(allZero)(ws => (2, Seq(ws(0), 0L)))).contains("after its last count"))
    for (n <- Seq(3, Int.MaxValue, -1)) {
      val e = rejected(restreamed(allZero)(ws => (n, ws.toSeq)))
      assert(e.contains(s"CHI stream of 1 indexes of 16x16 masks and ${allZero.cfg}: $n words, outside [0, 2]"), e)
    }
  }

  test("the reader rejects non-zero bits after the last count") {
    // The counts take bits 0–27 of the one word.
    for (bit <- Seq(28, 63)) {
      val e = rejected(restreamed(allZero)(ws => (1, Seq(ws(0) | 1L << bit))))
      assert(e.contains("non-zero bits after its last count"), s"bit $bit: $e")
    }
  }

  test("the reader rejects words after the last count, and counts past the last word") {
    val after = rejected(restreamed(allZero)(ws => (2, Seq(ws(0), 0L))))
    assert(after.contains("1 of its 2 words lie after its last count"), after)
    val past = rejected(restreamed(allZero)(_ => (0, Nil)))
    assert(past.contains("its counts run past its 0 words, in slot 0"), past)
  }

  private val fiveMasks = (0 until 5).map(i => randomMask(i, 8, 8, i))

  /** A serialised slab of keys 0–4 in slot order, whose key array (0, 1, 2, 3, 4) has its last entry set to `key`. */
  private def slabWithLastKey(key: Int): Array[Byte] = {
    val bs = bytes(slabOf(ChiConfig(4, 4, 4), fiveMasks))
    val keys = java.nio.ByteBuffer.allocate(20)
    (0 until 5).foreach(keys.putInt)
    val at = bs.indexOfSlice(keys.array.toSeq)
    assert(at >= 0 && bs.indexOfSlice(keys.array.toSeq, at + 1) < 0, "key array not found once in the stream")
    java.nio.ByteBuffer.wrap(bs).putInt(at + 16, key)
    bs
  }

  // The wire carries keys in slot order: a key at or past the slab's size is a sparse key, whose index is the last
  // slot's; a key outside [0, 2³¹ − 1) is rejected.
  test("the reader rejects a slot-table entry at or past the slab's size") {
    val want = ChiIndex.build(fiveMasks(4), ChiConfig(4, 4, 4)).counts.toSeq
    for (k <- Seq(4, 5, 39999)) {
      val back = read[ChiSlab](slabWithLastKey(k))
      assert(back.size == 5 && back.slot(k.toLong) == 4 && back.get(k.toLong).get.counts.toSeq == want, s"key $k")
      assert(k == 4 || !back.contains(4L))
    }
    for (bad <- Seq(-1, Int.MaxValue)) {
      val e = rejected(slabWithLastKey(bad))
      assert(e.contains(s"CHI key $bad leaves [0, ${Int.MaxValue})"), e)
    }
  }

  test("the reader rejects a slot table that names one slot twice") {
    val e = rejected(slabWithLastKey(1))
    assert(e.contains("two CHIs for key 1"), e)
  }

  test("one index serialises to the same bytes under key 0 and key 39,999, alone or in a sparse slab") {
    val cfg = ChiConfig(8, 8, 10)
    val idx = ChiIndex.build(randomMask(7, 56, 56, 7), cfg)
    val (low, high) = (ChiSlab.of(cfg, Seq(0L -> idx)), ChiSlab.of(cfg, Seq(39999L -> idx)))
    assert(bytes(low).length == bytes(high).length)
    assert(roundTrip(high).get(39999L).get.counts.toSeq == idx.counts.toSeq && !roundTrip(high).contains(0L))
    // An incremental snapshot's slab: two appends, the second of a key far above the first.
    val other = ChiIndex.build(randomMask(8, 56, 56, 8), cfg)
    def appended(k: Long) = ChiSlab.empty(cfg).append(Seq(ChiSlab.of(cfg, Seq(1L -> other)))).append(Seq(ChiSlab.of(cfg, Seq(k -> idx))))
    assert(bytes(appended(2L)).length == bytes(appended(39999L)).length)
  }

  test("the reader rejects a truncated stream") {
    val cfg = ChiConfig(8, 8, 10)
    val masks = (0 until 20).map(i => randomMask(i, 56, 56, i))
    val bs = bytes(slabOf(cfg, masks))
    // The stream opens with a 1,024-byte block's header and its word count.
    val bits = masks.map(wireBits(_, cfg)).sum
    val head = java.nio.ByteBuffer.allocate(9).put(0x7a.toByte).putInt(1024).putInt(((bits + 63) / 64).toInt).array.toSeq
    val start = bs.indexOfSlice(head)
    assert(start >= 0 && bs.indexOfSlice(head, start + 1) < 0, "stream not found once")
    for (cut <- Seq(bs.length / 3, bs.length / 2, bs.length - 600)) {
      assert(cut > start + head.length && cut < start + streamBytes(bits), s"cut $cut outside the counts")
      val e = rejected(bs.take(cut))
      assert(e.contains("truncated CHI stream: 20 indexes of 56x56 masks"), e)
    }
  }

  /** `idx` saved alone at `path`, its stream's words replaced by `edit`'s, then loaded. */
  private def loadedWith(idx: ChiIndex, path: String)(edit: Array[Long] => (Int, Seq[Long])): ChiRegistry = {
    ChiRegistry.save(spark, registryOf(idx.cfg, Seq(idx)), path)
    Persisted.editWords(spark, path, "masks")(edit)
    ChiRegistry.load(spark, path)
  }

  test("fromCounts accepts the counts of a built index, and rejects a bin 0 that is not the rectangle's area") {
    // Bin 0 is not stored: every loaded bin-0 count is its rectangle's area.
    for (idx <- Seq(allZero, twoInBin2)) {
      val back = loadedWith(idx, "target/testdata/chi-wire-load")(ws => (ws.length, ws.toSeq)).get(7L).get
      assert(back.counts.toSeq == idx.counts.toSeq)
      for (cx <- 0 to 2; cy <- 0 to 2)
        assert(back.hLookup(cx, cy, 0) == ChiIndex.line(cx, 16, 8) * ChiIndex.line(cy, 16, 8), s"corner ($cx, $cy)")
    }
  }

  test("fromCounts rejects per-cell counts that increase over bins") {
    val path = "target/testdata/chi-wire-increase"
    val e = intercept[IllegalArgumentException](loadedWith(twoInBin2, path)(ws => (1, Seq(ws(0) | 1L << 7))))
    assert(e.getMessage.contains(s"CHI registry at $path, masks slab: CHI in slot 0 of 1: cell (0, 0) has 3 pixels at bin 2 " +
      "but 2 at bin 1: per-cell counts increase over bins"), e.getMessage)
  }

  test("fromCounts rejects a per-cell count outside its cell") {
    val e = intercept[IllegalArgumentException](loadedWith(allZero, "target/testdata/chi-wire-outside")(ws => (1, Seq(ws(0) | 70L))))
    assert(e.getMessage.contains("cell (0, 0) has 70 pixels at bin 1, outside [0, 64]"), e.getMessage)
  }

  test("a serialised ChiConfig carries no derived arrays, and reads back with every bin decision unchanged") {
    assert(bytes(ChiConfig(8, 8, 10)).length == 76) // class descriptor and three ints
    for (bins <- Seq(10, 20, 1 << 19)) {
      val cfg = ChiConfig(8, 8, bins)
      val back = roundTrip(cfg)
      assert(back == cfg && !(back eq cfg))
      for (b <- 0 to bins) {
        val e = cfg.boundary(b)
        val f = e.toFloat
        for (v <- Seq(Math.nextDown(f), f, Math.nextUp(f)) if v >= 0f && v < 1f)
          assert(back.binOf(v) == cfg.binOf(v), s"binOf($v), b = $bins")
        for (x <- Seq(Math.nextDown(e), e, Math.nextUp(e), Math.nextDown(f).toDouble, f.toDouble, Math.nextUp(f).toDouble)) {
          assert(back.binAtOrBelow(x) == cfg.binAtOrBelow(x), s"binAtOrBelow($x), b = $bins")
          assert(back.binAtOrAbove(x) == cfg.binAtOrAbove(x), s"binAtOrAbove($x), b = $bins")
        }
      }
    }
    // Its fields end the stream, `bins` first: a config of 0 bins is refused on read.
    val bs = bytes(ChiConfig(8, 8, 10))
    bs(bs.length - 9) = 0
    val e = intercept[IllegalArgumentException](read[ChiConfig](bs))
    assert(e.getMessage.contains("bad CHI config ChiConfig(8,8,0)"), e.getMessage)
  }
}
