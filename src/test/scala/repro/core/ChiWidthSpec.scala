package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import org.scalatest.funsuite.AnyFunSuite

/** Tests for the bit-packed CHI layout at the edges of its width: counts are
  * packed at the bit length of `w·h`, so each shape below sits on one side of
  * a width step, packs counts across a 64-bit word boundary, or stores
  * nothing at all (`b = 1`). At each, every `hLookup` equals a brute-force
  * count, every bound equals [[Fixtures.referenceBounds]], and an index and a
  * slab read back from the wire, and a slab appended to, hold the same.
  */
class ChiWidthSpec extends AnyFunSuite {
  import Fixtures._

  private def roundTrip[A](a: A): A = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(a)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[A]
  }

  private def pack(cfg: ChiConfig, masks: Seq[Mask]): ChiSlab.Packed =
    ChiSlab.pack(cfg, masks.map(m => m.id -> ChiIndex.build(m, cfg)))

  /** `H(cx, cy)(b)` of `m` by brute force: per-bin prefix sums of `v ≥ boundary(b)`, decided as CP decides it. */
  private def bruteH(m: Mask, cfg: ChiConfig): (Int, Int, Int) => Long = {
    val (w, h) = (m.w, m.h)
    val sums = Array.ofDim[Long](cfg.bins, w + 1, h + 1)
    for (b <- 0 until cfg.bins; x <- 1 to w; y <- 1 to h) {
      val in = if (m(x, y) >= cfg.boundary(b)) 1L else 0L
      sums(b)(x)(y) = in + sums(b)(x - 1)(y) + sums(b)(x)(y - 1) - sums(b)(x - 1)(y - 1)
    }
    (cx, cy, b) => sums(b)(ChiIndex.line(cx, w, cfg.cellW))(ChiIndex.line(cy, h, cfg.cellH))
  }

  /** Every range edge of `cfg`'s bins, and random ranges. */
  private def ranges(cfg: ChiConfig, r: java.util.Random): Seq[ValueRange] =
    Seq.fill(4)(randomRange(r)) ++ Seq(
      ValueRange(cfg.boundary(r.nextInt(cfg.bins + 1)), 1.0),
      ValueRange(0.0, math.max(cfg.boundary(r.nextInt(cfg.bins + 1)), 1e-9)),
    )

  /** `idx` equals brute force in every `hLookup`, and `reference`'s bounds on random ROIs and ranges. */
  private def check(idx: ChiIndex, m: Mask, seed: Long): Unit = {
    val cfg = idx.cfg
    val brute = bruteH(m, cfg)
    for (cx <- 0 to ChiIndex.nCells(m.w, cfg.cellW); cy <- 0 to ChiIndex.nCells(m.h, cfg.cellH); b <- 0 until cfg.bins)
      assert(idx.hLookup(cx, cy, b) == brute(cx, cy, b), s"H($cx, $cy)($b) of ${m.id}")
    val r = new java.util.Random(seed)
    for (_ <- 0 until 40; range <- ranges(cfg, r)) {
      val roi = randomRoi(r, m.w, m.h)
      val b = idx.bounds(roi, range)
      assert(b == referenceBounds(idx, roi, range), s"$roi $range of ${m.id}")
      val exact = m.cp(roi, range)
      assert(b.lower <= exact && exact <= b.upper, s"$roi $range of ${m.id}: $b vs $exact")
    }
  }

  // (w, h, cfg, bits per count, what it covers)
  for ((w, h, cfg, bits, what) <- Seq(
      (1, 1, ChiConfig(1, 1, 4), 1, "w·h = 1"),
      (15, 17, ChiConfig(4, 4, 6), 8, "w·h = 255, the last 8-bit shape"),
      (16, 16, ChiConfig(4, 4, 6), 9, "w·h = 256, the first 9-bit shape"),
      (255, 257, ChiConfig(64, 64, 3), 16, "w·h = 65,535, the last 16-bit shape"),
      (256, 256, ChiConfig(64, 64, 3), 17, "w·h = 65,536, the first 17-bit shape"),
      (300, 300, ChiConfig(64, 64, 4), 17, "300x300"),
      (56, 56, ChiConfig(8, 8, 10), 12, "12-bit counts straddling 64-bit words"),
      (56, 56, ChiConfig(8, 8, 1), 12, "b = 1: no count stored"),
    )) {
    test(s"packed counts at $bits bits: ${w}x$h $cfg ($what)") {
      assert(ChiIndex.bits(w, h) == bits)
      val stored = ChiIndex.nCells(w, cfg.cellW) * ChiIndex.nCells(h, cfg.cellH) * (cfg.bins - 1)
      assert(ChiIndex.slotWords(w, h, cfg) == (stored * bits + 63) / 64)
      assert(cfg.sizeBytes(w, h) == 8L * ChiIndex.slotWords(w, h, cfg))
      if (bits % 8 != 0 && stored * bits > 64)
        assert((0 until stored).exists(i => i * bits % 64 + bits > 64), "no count straddles a word")
      val masks = Seq(
        randomMask(1, w, h, 11),
        quantisedMask(2, w, h, cfg.bins, 12),
        Mask(3, w, h, Array.fill(w * h)(0.0f)),
        Mask(4, w, h, Array.fill(w * h)(Math.nextDown(1.0f))), // every count at its maximum
      )
      masks.foreach { m =>
        val idx = ChiIndex.build(m, cfg)
        assert(idx.sizeBytes == cfg.sizeBytes(w, h))
        check(idx, m, m.id)
        check(roundTrip(idx), m, m.id)
        assert(ChiIndex.fromCounts(m.id, w, h, cfg, idx.wideCounts).counts == idx.counts)
      }
      // A slab grown by two appends, and read back, holds every index at its word-aligned slot.
      val slab = ChiSlab.empty(cfg).append(Seq(pack(cfg, masks.take(2)))).append(Seq(pack(cfg, masks.drop(2))))
      assert(slab.size == 4 && slab.stride == ChiIndex.slotWords(w, h, cfg) && slab.bytes == 4 * cfg.sizeBytes(w, h))
      for (s <- Seq(slab, roundTrip(slab)); m <- masks) {
        assert(s.base(m.id) == s.slot(m.id) * s.stride)
        check(s.get(m.id).get, m, m.id + 10)
      }
    }
  }
}
