package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import org.scalatest.funsuite.AnyFunSuite

import repro.store.CatalogRow

/** Tests for the dense CHI slab and the compiled bounds over it: every view a
  * slab hands out is the index [[ChiIndex.build]] gives, the plans equal
  * [[Fixtures.referenceBounds]] on every ROI kind, and appends copy into
  * exactly sized arrays and never change what an older slab holds.
  */
class ChiSlabSpec extends AnyFunSuite {
  import Fixtures._

  private def roundTrip[A](a: A): A = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(a)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[A]
  }

  /** Every bin edge and its float neighbours, plus the ends of [0, 1]. */
  private def edgeValues(bins: Int): Seq[Double] =
    (0 to bins).flatMap { b =>
      val e = b.toDouble / bins
      Seq(e, Math.nextDown(e), Math.nextUp(e), e.toFloat.toDouble)
    }.filter(v => v >= 0 && v <= 1).distinct

  /** Views of `slab` equal locally built indexes of `masks` in counts and
    * `cHist` on every available region, and their bounds on random and
    * bin-edge queries equal [[Fixtures.referenceBounds]] on the local index.
    */
  private def checkViews(cfg: ChiConfig, masks: Seq[Mask], slab: ChiSlab, seed: Long): Unit = {
    val r = new java.util.Random(seed)
    val edges = edgeValues(cfg.bins)
    masks.foreach { m =>
      val local = ChiIndex.build(m, cfg)
      val view = slab.get(m.id).getOrElse(fail(s"no view for ${m.id}"))
      assert(view.counts == local.counts, s"counts of ${m.id}")
      assert(view.counts.toSeq == local.counts.toSeq)
      for (x1 <- 1 to m.w by cfg.cellW; y1 <- 1 to m.h by cfg.cellH) {
        val roi = Roi(x1, y1, m.w, m.h)
        assert(cHist(view, roi).toSeq == cHist(local, roi).toSeq, s"cHist of ${m.id} on $roi")
      }
      for (_ <- 0 until 40) {
        val roi = randomRoi(r, m.w, m.h)
        val lv = edges(r.nextInt(edges.size))
        val uv = edges(r.nextInt(edges.size))
        val range = if (lv <= uv) ValueRange(lv, uv) else ValueRange(uv, lv)
        for (q <- Seq(range, randomRange(r))) {
          val b = view.bounds(roi, q)
          assert(b == referenceBounds(local, roi, q), s"bounds of ${m.id} on $roi $q")
          val exact = m.cp(roi, q)
          assert(b.lower <= exact && exact <= b.upper, s"mask ${m.id} $roi $q: $b vs $exact")
        }
      }
    }
  }

  test("slab views give the bounds and cHist of ChiIndex.build, on bin-edge ranges too") {
    val cfg = ChiConfig(6, 5, 10)
    val masks = (0 until 12).map(i => if (i % 2 == 0) randomMask(i, 24, 17, 50L + i) else quantisedMask(i, 24, 17, 10, 70L + i))
    checkViews(cfg, masks, slabOf(cfg, masks), seed = 1)
  }

  test("slab views of 300x300 masks keep every 17-bit count") {
    val cfg = ChiConfig(64, 64, 4)
    val other = { val r = new java.util.Random(301); Mask(301, 300, 300, Array.fill(300 * 300)(0.5f + r.nextFloat() * 0.49f)) }
    val masks = Seq(wideMask, other)
    val slab = slabOf(cfg, masks)
    // A header word, then 5×5 corners × bins 1…3 at the bit length of each bin's total:
    // 17 + 16 + 15 bits (1,200 bits, 19 words) for mask 300 and 17 + 17 + 16 (1,250 bits, 20 words) for mask 301.
    assert(slab.get(300L).get.counts.max > 65535 && slab.get(301L).get.counts.max > 65535)
    assert(masks.map(packedBytes(_, cfg)) == Seq(160L, 168L))
    assert(slab.get(300L).get.sizeBytes == 160L && slab.get(301L).get.sizeBytes == 168L && slab.bytes == 160L + 168L)
    assert(slab.base(300L) == 0 && slab.base(301L) == 20 && cfg.sizeBytes(300, 300) == 168L)
    checkViews(cfg, masks, slab, seed = 2)
  }

  test("compiled plans equal referenceBounds for constant, object and full-mask ROIs") {
    val cfg = ChiConfig(4, 4, 8)
    val masks = (0 until 10).map(i => randomMask(i, 20, 20, 90L + i))
    val slab = slabOf(cfg, masks)
    val r = new java.util.Random(5)
    for (_ <- 0 until 30) {
      val box = randomRoi(r, 20, 20)
      val range = randomRange(r)
      for (spec <- Seq(ConstRoi(randomRoi(r, 20, 20)), ObjectRoi, FullRoi)) {
        val plan = new BoundPlan(cfg, 20, 20, range)
        masks.foreach { m =>
          val row = CatalogRow(m.id, m.id, 1, 1, 20, 20, "", box.x1, box.y1, box.x2, box.y2, 0)
          slab.eval(plan, m.id, spec, row)
          val want = referenceBounds(ChiIndex.build(m, cfg), spec.resolve(row), range)
          assert(CpBounds(plan.lower, plan.upper) == want, s"$spec $range mask ${m.id}")
        }
      }
    }
  }

  test("a key the slab does not hold gets the trivial bounds") {
    val cfg = ChiConfig(4, 4, 8)
    val slab = slabOf(cfg, Seq(randomMask(3, 20, 20, 1)))
    val plan = new ExprPlan(CpExpr.term(ObjectRoi, 0.2, 0.6), slab)
    for (id <- Seq(-1L, 0L, 4L, 1L << 40)) {
      slab.eval(plan, CatalogRow(id, 0, 1, 1, 20, 20, "", 2, 3, 9, 7, 0))
      assert(plan.lower == 0.0 && plan.upper == 8.0 * 5, s"id $id")
      assert(!slab.contains(id) && slab.get(id).isEmpty)
    }
  }

  test("appending never changes what an older slab holds, also when two slabs append to one") {
    val cfg = ChiConfig(4, 4, 4)
    val masks = (0 until 12).map(i => randomMask(i, 8, 8, 300L + i))
    def piece(ms: Seq[Mask]) = Seq(slabOf(cfg, ms))
    val a = ChiSlab.empty(cfg).append(piece(masks.take(4)))
    val b = a.append(piece(masks.slice(4, 6)))
    val c = b.append(piece(masks.slice(6, 8)))
    val d = b.append(piece(masks.slice(8, 12))) // a second append to b
    assert(a.size == 4 && b.size == 6 && c.size == 8 && d.size == 10)
    assert((4 until 12).forall(k => !a.contains(k)))
    assert((6 until 12).forall(k => !b.contains(k)))
    assert((8 until 12).forall(k => !c.contains(k)) && (6 until 8).forall(k => !d.contains(k)))
    for ((slab, held) <- Seq(a -> (0 until 4), b -> (0 until 6), c -> (0 until 8), d -> ((0 until 6) ++ (8 until 12))))
      held.foreach(k => assert(slab.get(k).get.counts.toSeq == ChiIndex.build(masks(k), cfg).counts.toSeq, s"key $k"))
  }

  test("append rejects a key already held, a repeated key and another mask shape") {
    val cfg = ChiConfig(4, 4, 4)
    val slab = slabOf(cfg, Seq(randomMask(1, 8, 8, 1), randomMask(2, 8, 8, 2)))
    val held = intercept[IllegalArgumentException](slab.append(Seq(slabOf(cfg, Seq(randomMask(2, 8, 8, 3))))))
    assert(held.getMessage.contains("key 2 is already"), held.getMessage)
    val twice = intercept[IllegalArgumentException](
      slab.append(Seq(slabOf(cfg, Seq(randomMask(5, 8, 8, 3))), slabOf(cfg, Seq(randomMask(5, 8, 8, 4))))))
    assert(twice.getMessage.contains("two CHIs for key 5"), twice.getMessage)
    val shape = intercept[IllegalArgumentException](slab.append(Seq(slabOf(cfg, Seq(randomMask(6, 8, 12, 3))))))
    assert(shape.getMessage.contains("8x12"), shape.getMessage)
    assert(slab.size == 2)
  }

  // Appends copy into arrays of exactly the size they need: a slab grown by ten appends holds, and serialises as,
  // what one built in a single piece does.
  test("a slab with room to grow serialises only its live slots and round-trips") {
    val cfg = ChiConfig(4, 4, 4)
    val masks = (0 until 40).map(i => randomMask(i, 8, 8, 500L + i))
    def piece(ms: Seq[Mask]) = Seq(slabOf(cfg, ms))
    val grown = (0 until 40 by 4).foldLeft(ChiSlab.empty(cfg))((s, i) => s.append(piece(masks.slice(i, i + 4))))
    val older = grown.append(piece(Seq(randomMask(40, 8, 8, 9)))).append(piece(Seq(randomMask(41, 8, 8, 9))))
    val exact = slabOf(cfg, masks)
    assert(grown.words.length == exact.words.length && 8L * grown.words.length == grown.bytes, "no room to grow")
    def bytes(o: AnyRef) = { val b = new ByteArrayOutputStream(); val out = new ObjectOutputStream(b); out.writeObject(o); out.close(); b.size }
    assert(bytes(grown) == bytes(exact), "live slots and table only")
    val back = roundTrip(grown)
    assert(back.size == 40 && !back.contains(40))
    masks.foreach(m => assert(back.get(m.id).get.counts.toSeq == exact.get(m.id).get.counts.toSeq))
    assert(older.size == 42)
  }

  test("a view serialises its own counts, not the slab") {
    val cfg = ChiConfig(4, 4, 4)
    val slab = slabOf(cfg, (0 until 50).map(i => randomMask(i, 8, 8, i)))
    val view = slab.get(17L).get
    val back = roundTrip(view)
    assert(back.counts.toSeq == view.counts.toSeq && back.maskId == 17L)
    val b = new ByteArrayOutputStream(); val out = new ObjectOutputStream(b); out.writeObject(view); out.close()
    assert(b.size < 2 * view.length + 1024, s"${b.size} bytes for one view")
  }
}
