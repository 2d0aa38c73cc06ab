package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, InvalidObjectException, ObjectInputStream, ObjectOutputStream}

import org.scalatest.funsuite.AnyFunSuite

import repro.store.CatalogRow

/** Tests for the wire form of every Java-serialised CHI ([[CellCounts]]):
  * indexes, slabs and packed build output read back with the same counts and
  * bounds, at one byte per per-cell count for small cells, and a stream no
  * mask can have is rejected with an error that names the problem. Also the
  * same validity rule on the Parquet load path ([[ChiIndex.fromCounts]]).
  */
class ChiWireSpec extends AnyFunSuite {
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
      if (w == 300) assert(roundTrip(slab).get(300L).get.wideCounts.max > 65535)
    }
  }

  test("an empty slab reads back empty") {
    val cfg = ChiConfig(8, 8, 10)
    val back = roundTrip(ChiSlab.empty(cfg))
    assert(back.size == 0 && back.cfg == cfg && !back.contains(0L))
    assert(back.append(Seq(ChiSlab.pack(cfg, Seq(5L -> ChiIndex.build(randomMask(5, 8, 8, 1), cfg))))).contains(5L))
  }

  test("a slab with growth slack, sharing arrays with a longer slab, reads back only its live slots") {
    val cfg = ChiConfig(4, 4, 4)
    val masks = (0 until 24).map(i => randomMask(i, 8, 8, 700L + i))
    def packed(ms: Seq[Mask]) = Seq(ChiSlab.pack(cfg, ms.map(m => m.id -> ChiIndex.build(m, cfg))))
    val grown = (0 until 20 by 4).foldLeft(ChiSlab.empty(cfg))((s, i) => s.append(packed(masks.slice(i, i + 4))))
    val longer = grown.append(packed(masks.slice(20, 24)))
    val back = roundTrip(grown)
    sameSlab(back, grown, (0L until 24L))
    assert(back.size == 20 && !back.contains(20L) && longer.contains(20L))
    assert(bytes(grown).length == bytes(slabOf(cfg, masks.take(20))).length)
    // The read slab appends like any other.
    assert(back.append(packed(masks.slice(20, 22))).size == 22)
  }

  test("packed build output reads back with its keys, counts and members") {
    val cfg = ChiConfig(8, 8, 10)
    val masks = (0 until 5).map(i => randomMask(i, 56, 56, 40L + i))
    val p = ChiSlab.pack(cfg, masks.map(m => (m.id + 100) -> ChiIndex.build(m, cfg)), masks.map(m => Seq(2 * m.id + 1, 2 * m.id)))
    val back = roundTrip(p)
    assert(back.cfg == cfg && back.keys.toSeq == p.keys.toSeq && back.w == 56 && back.h == 56)
    assert(back.words.toSeq == p.words.toSeq)
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
    val perIndex = (bytes(indexes.toArray).length - bytes(indexes.take(1).toArray).length) / 100
    assert(perIndex <= 7 * 7 * 9 + 48, s"$perIndex bytes per serialised index")
    val perSlot = (bytes(slabOf(cfg, masks)).length - bytes(slabOf(cfg, masks.take(1))).length) / 100
    assert(perSlot <= 7 * 7 * 9 + 8, s"$perSlot bytes per slab slot")
  }

  /** A 16x16 all-zero mask's index with 8x8 cells and 4 bins, its counts changed by `edit`. */
  private def edited(edit: Array[Int] => Unit): ChiIndex = {
    val cfg = ChiConfig(8, 8, 4)
    val wide = ChiIndex.build(Mask(7, 16, 16, Array.fill(256)(0.0f)), cfg).wideCounts
    edit(wide)
    // Bins 1 … 3 of the 4 corners, bin-major, packed unchecked.
    ChiIndex.packed(7, 16, 16, cfg, Array.tabulate(4 * 3)(i => wide((i % 4) * 4 + i / 4 + 1)))
  }

  /** Offset of corner `(cx, cy)`'s bin `b` in a 2x2-cell, 4-bin index. */
  private def at(cx: Int, cy: Int, b: Int): Int = ((cx - 1) * 2 + (cy - 1)) * 4 + b

  private def rejected(bs: Array[Byte]): String = intercept[InvalidObjectException](read[AnyRef](bs)).getMessage

  test("the reader rejects a per-cell count outside [0, the cell's pixels]") {
    // Cell (0, 0) holds 64 pixels; 70 of them cannot be ≥ boundary(1).
    val e = rejected(bytes(edited(c => c(at(1, 1, 1)) = 70)))
    assert(e.contains("cell (0, 0) has 70 pixels at bin 1, outside [0, 64]"), e)
  }

  test("the reader rejects per-cell counts that increase over bins") {
    val e = rejected(bytes(edited(c => c(at(1, 1, 2)) = 3)))
    assert(e.contains("cell (0, 0) has 3 pixels at bin 2 but 0 at bin 1: per-cell counts increase over bins"), e)
  }

  /** A serialised slab of keys 0–4 whose slot table (0, 1, 2, 3, 4) has its last entry set to `slot`. */
  private def slabWithLastSlot(slot: Int): Array[Byte] = {
    val cfg = ChiConfig(4, 4, 4)
    val bs = bytes(slabOf(cfg, (0 until 5).map(i => randomMask(i, 8, 8, i))))
    val table = java.nio.ByteBuffer.allocate(20)
    (0 until 5).foreach(table.putInt)
    val at = bs.indexOfSlice(table.array.toSeq)
    assert(at >= 0 && bs.indexOfSlice(table.array.toSeq, at + 1) < 0, "slot table not found once in the stream")
    java.nio.ByteBuffer.wrap(bs).putInt(at + 16, slot)
    bs
  }

  test("the reader rejects a slot-table entry at or past the slab's size") {
    assert(read[ChiSlab](slabWithLastSlot(4)).get(4L).isDefined)
    for (bad <- Seq(5, 9)) {
      val e = rejected(slabWithLastSlot(bad))
      assert(e.contains(s"key 4 names slot $bad, outside [0, 5)"), e)
    }
  }

  test("the reader rejects a slot table that names one slot twice") {
    val e = rejected(slabWithLastSlot(1))
    assert(e.contains("slot 1 is named twice, last by key 4"), e)
  }

  test("the reader rejects a truncated stream") {
    val cfg = ChiConfig(8, 8, 10)
    val bs = bytes(slabOf(cfg, (0 until 20).map(i => randomMask(i, 56, 56, i))))
    for (cut <- Seq(bs.length / 3, bs.length / 2, bs.length - 600)) {
      val e = rejected(bs.take(cut))
      assert(e.contains("truncated CHI stream: 20 indexes of 56x56 masks"), e)
    }
  }

  test("fromCounts accepts the counts of a built index, and rejects a bin 0 that is not the rectangle's area") {
    val idx = edited(_ => ())
    assert(ChiIndex.fromCounts(7, 16, 16, idx.cfg, idx.wideCounts).wideCounts.toSeq == idx.wideCounts.toSeq)
    val bad = idx.wideCounts.updated(at(2, 1, 0), 100)
    val e = intercept[IllegalArgumentException](ChiIndex.fromCounts(7, 16, 16, idx.cfg, bad))
    assert(e.getMessage.contains("bin 0 holds 100 pixels at corner (2, 1), not the 128 of its rectangle"), e.getMessage)
  }

  test("fromCounts rejects per-cell counts that increase over bins") {
    val bad = edited(_ => ()).wideCounts.updated(at(1, 1, 2), 3)
    val e = intercept[IllegalArgumentException](ChiIndex.fromCounts(7, 16, 16, ChiConfig(8, 8, 4), bad))
    assert(e.getMessage.contains("CHI of mask 7: cell (0, 0) has 3 pixels at bin 2 but 0 at bin 1"), e.getMessage)
  }

  test("fromCounts rejects a per-cell count outside its cell") {
    // 5 pixels of cell (0, 0) at bin 1 make cell (0, 1), whose corner still reads 0, hold -5.
    val bad = edited(_ => ()).wideCounts.updated(at(1, 1, 1), 5)
    val e = intercept[IllegalArgumentException](ChiIndex.fromCounts(7, 16, 16, ChiConfig(8, 8, 4), bad))
    assert(e.getMessage.contains("CHI of mask 7: cell (0, 1) has -5 pixels at bin 1, outside [0, 64]"), e.getMessage)
  }
}
