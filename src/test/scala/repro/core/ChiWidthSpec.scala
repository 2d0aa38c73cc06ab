package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

/** Tests for the bit-packed CHI layout at the edges of its widths: each bin
  * is packed at the bit length of its total, at most that of `w·h`, so each
  * shape below sits on one side of a width step, packs counts across a 64-bit
  * word boundary, or stores nothing at all (`b = 1`), and each mask built to
  * order puts bin totals of 0, 1, 2^k − 1, 2^k and `w·h` side by side. At
  * each, every `hLookup` equals a brute-force count, every bound equals
  * [[Fixtures.referenceBounds]], and an index and a slab read back from the
  * wire, a registry saved and loaded, and a slab appended to, hold the same.
  */
class ChiWidthSpec extends repro.SparkSpec {
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
      val header = if (cfg.bins == 1) 0 else 1
      assert(cfg.sizeBytes(w, h) == 8L * (header + (stored * bits + 63) / 64))
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
        assert(idx.sizeBytes == packedBytes(m, cfg) && idx.sizeBytes <= cfg.sizeBytes(w, h))
        if (m.id == 3) assert(idx.sizeBytes == 8L * header, "an all-zero mask stores its header only")
        if (m.id == 4) assert(idx.sizeBytes == cfg.sizeBytes(w, h), "every bin full is the worst case")
        check(idx, m, m.id)
        check(roundTrip(idx), m, m.id)
      }
      val loaded = saveLoad(cfg, masks)
      masks.foreach(m => assert(loaded.get(m.id).get.counts == ChiIndex.build(m, cfg).counts, s"mask ${m.id}"))
      // A slab grown by two appends, and read back, holds every index at its word-aligned slot, after the ones before it.
      val slab = ChiSlab.empty(cfg).append(Seq(pack(cfg, masks.take(2)))).append(Seq(pack(cfg, masks.drop(2))))
      assert(slab.size == 4 && slab.bytes == masks.map(packedBytes(_, cfg)).sum)
      for (s <- Seq(slab, roundTrip(slab)); m <- masks) {
        assert(s.base(m.id) == masks.take(s.slot(m.id)).map(packedBytes(_, cfg) / 8).sum)
        check(s.get(m.id).get, m, m.id + 10)
      }
    }
  }

  /** A registry of the indexes of `masks`, saved and loaded. */
  private def saveLoad(cfg: ChiConfig, masks: Seq[Mask]): ChiRegistry = {
    val path = "target/testdata/chi-width"
    ChiRegistry.save(spark, ChiRegistry.empty(cfg) ++ masks.map(ChiIndex.build(_, cfg)), path)
    ChiRegistry.load(spark, path)
  }

  /** A `w × h` mask whose pixels at or above `boundary(b)` number `totals(b − 1)`, for bins 1 … bins − 1, at random places. */
  private def withTotals(id: Long, w: Int, h: Int, cfg: ChiConfig, totals: Seq[Int], seed: Long): Mask = {
    require(totals.length == cfg.bins - 1 && (w * h +: totals :+ 0).sliding(2).forall(p => p(0) >= p(1)))
    val perBin = (w * h +: totals :+ 0).sliding(2).map(p => p(0) - p(1)).toSeq // pixels in bin 0 … bins − 1
    val values = perBin.zipWithIndex.flatMap { case (n, b) => Seq.fill(n)(((b + 0.5) / cfg.bins).toFloat) }
    val r = new java.util.Random(seed)
    Mask(id, w, h, scala.util.Random.javaRandomToRandom(r).shuffle(values).toArray)
  }

  private def bitLength(v: Int): Int = 32 - Integer.numberOfLeadingZeros(v)

  // (w, h, cfg, bin totals, words the index holds, what it covers)
  for ((w, h, cfg, totals, words, what) <- Seq(
      (16, 16, ChiConfig(4, 4, 6), Seq(256, 128, 127, 1, 0), 8, "w·h, 2^7, 2^7 − 1, 1 and 0: 9, 8, 7, 1 and 0 bits"),
      (300, 300, ChiConfig(64, 64, 4), Seq(90000, 65536, 65535), 21, "300x300: w·h, 2^16 and 2^16 − 1"),
      (12, 12, ChiConfig(3, 3, 20), Seq(144, 128, 127, 64, 63, 32, 31, 16, 15, 8, 7, 4, 3, 2, 1, 1, 0, 0, 0), 20,
        "b = 20: two header words, bins 13 to 15 in the second"),
      (16, 16, ChiConfig(4, 4, 3), Seq(15, 0), 2, "a last bin of width 0 that starts at the index's end"),
      (8, 8, ChiConfig(4, 4, 1), Seq(), 0, "b = 1: no header, no count"),
    )) {
    test(s"bins at their own widths: ${w}x$h $cfg ($what)") {
      val corners = ChiIndex.nCells(w, cfg.cellW) * ChiIndex.nCells(h, cfg.cellH)
      val m = withTotals(1, w, h, cfg, totals, w * 31L + cfg.bins)
      val idx = ChiIndex.build(m, cfg)
      assert(ChiIndex.headerWords(cfg.bins) == math.ceil((cfg.bins - 1) / 12.0).toInt)
      assert((1 until cfg.bins).map(ChiIndex.width(idx.words, 0, _)) == totals.map(bitLength))
      assert(idx.words.length == words && idx.sizeBytes == 8L * words && packedBytes(m, cfg) == 8L * words)
      assert(idx.sizeBytes <= cfg.sizeBytes(w, h))
      // Bin b's counts start where bin b − 1's end, after the header.
      for (b <- 1 until cfg.bins)
        assert(ChiIndex.binStart(idx.words, 0, corners, cfg.bins, b) ==
          64L * ChiIndex.headerWords(cfg.bins) + corners.toLong * totals.take(b - 1).map(bitLength).sum)
      val straddles = for {
        b <- 1 until cfg.bins
        bits = bitLength(totals(b - 1))
        k <- 0 until corners
        p = ChiIndex.binStart(idx.words, 0, corners, cfg.bins, b) + k.toLong * bits
        if bits > 0 && p % 64 + bits > 64
      } yield (b, k)
      if (totals.exists(t => t > 0 && 64 % bitLength(t) != 0)) assert(straddles.nonEmpty, "no count straddles a word")
      check(idx, m, 1)
      check(roundTrip(idx), m, 2)
      assert(roundTrip(idx).words.toSeq == idx.words.toSeq)
      val back = saveLoad(cfg, Seq(m)).get(m.id).get
      assert(back.words.slice(back.base, back.base + words).toSeq == idx.words.toSeq && back.counts == idx.counts)
      check(back, m, 3)
    }
  }

  test("a slab appended piecewise holds indexes of mixed sizes, also where appends share arrays") {
    val cfg = ChiConfig(4, 4, 6)
    val masks = Seq(
      withTotals(0, 16, 16, cfg, Seq(256, 128, 127, 1, 0), 1),
      randomMask(1, 16, 16, 2),
      quantisedMask(2, 16, 16, cfg.bins, 3),
      Mask(3, 16, 16, Array.fill(256)(Math.nextDown(1.0f))),
      withTotals(4, 16, 16, cfg, Seq(3, 2, 1, 1, 1), 4),
      Mask(5, 16, 16, Array.fill(256)(0.0f)),
      withTotals(6, 16, 16, cfg, Seq(200, 150, 100, 50, 0), 5),
      withTotals(7, 16, 16, cfg, Seq(64, 63, 0, 0, 0), 6),
    )
    val sizes = masks.map(packedBytes(_, cfg) / 8)
    assert(sizes.distinct.size >= 5, s"slot sizes $sizes")
    val a = ChiSlab.empty(cfg).append(Seq(pack(cfg, masks.take(2)), pack(cfg, masks.slice(2, 4))))
    val b = a.append(Seq(pack(cfg, masks.slice(4, 5)))) // grows by half: room to spare
    val c = b.append(Seq(pack(cfg, masks.slice(5, 6)))) // in place, in b's arrays
    val d = b.append(Seq(pack(cfg, masks.slice(6, 8)))) // b is no longer the longest: copies
    val e = c.append(Seq(pack(cfg, masks.slice(6, 7)))) // in place again, after c's slot
    assert(c.words eq b.words, "c appends in place")
    assert(!(d.words eq b.words), "d copies")
    for ((slab, held) <- Seq(a -> Seq(0, 1, 2, 3), b -> (0 to 4), c -> (0 to 5), d -> Seq(0, 1, 2, 3, 4, 6, 7), e -> (0 to 6))) {
      assert(slab.size == held.size && slab.bytes == 8L * held.map(sizes).sum, s"slab of ${held.mkString(",")}")
      assert((0 until 8).filterNot(held.contains).forall(k => !slab.contains(k)))
      for (s <- Seq(slab, roundTrip(slab)); k <- held) {
        assert(s.base(k) == held.takeWhile(_ != k).map(sizes).sum, s"base of $k")
        check(s.get(k).get, masks(k), 20L + k)
      }
    }
  }
}
