package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean

import repro.store.CatalogRow

/** ScalaCheck property suite for the CHI bound math — generator-driven
  * counterpart of the hand-rolled randomized loops in [[ChiBoundsSpec]].
  */
object ChiProperties extends Properties("CHI") {

  private val genMaskAndCfg: Gen[(Mask, ChiConfig)] = for {
    w <- Gen.choose(4, 28)
    h <- Gen.choose(4, 28)
    cw <- Gen.choose(2, 10)
    ch <- Gen.choose(2, 10)
    bins <- Gen.choose(2, 16)
    seed <- Gen.choose(0L, 1_000_000L)
  } yield (Fixtures.randomMask(seed, w, h, seed), ChiConfig(cw, ch, bins))

  /** A quantised mask ([[Fixtures.quantisedMask]]) with an index of the
    * same bin count, including the b = 10 and b = 20 of the benchmarks.
    */
  private val genQuantised: Gen[(Mask, ChiConfig)] = for {
    w <- Gen.choose(4, 28)
    h <- Gen.choose(4, 28)
    cw <- Gen.choose(2, 10)
    ch <- Gen.choose(2, 10)
    bins <- Gen.oneOf(Gen.choose(2, 20), Gen.oneOf(10, 20))
    seed <- Gen.choose(0L, 1_000_000L)
  } yield (Fixtures.quantisedMask(seed, w, h, bins, seed), ChiConfig(cw, ch, bins))

  /** A range whose edges are bin edges `i / bins`. */
  private def genBinRange(bins: Int): Gen[ValueRange] = for {
    i <- Gen.choose(0, bins); j <- Gen.choose(i, bins)
  } yield ValueRange(i.toDouble / bins, j.toDouble / bins)

  private def genRoi(w: Int, h: Int): Gen[Roi] = for {
    x1 <- Gen.choose(1, w); x2 <- Gen.choose(x1, w)
    y1 <- Gen.choose(1, h); y2 <- Gen.choose(y1, h)
  } yield Roi(x1, y1, x2, y2)

  private val genRange: Gen[ValueRange] = for {
    a <- Gen.choose(0.0, 1.0); b <- Gen.choose(0.0, 1.0)
  } yield ValueRange(math.min(a, b), math.max(a, b))

  /** A mask with every pixel in the top bin: every per-cell count equals the one a bin below. */
  private val genTopBin: Gen[(Mask, ChiConfig)] = for {
    w <- Gen.choose(4, 28)
    h <- Gen.choose(4, 28)
    cw <- Gen.choose(2, 10)
    ch <- Gen.choose(2, 10)
    bins <- Gen.choose(2, 16)
    seed <- Gen.choose(0L, 1_000_000L)
  } yield (Mask(seed, w, h, Array.fill(w * h)(0.999f)), ChiConfig(cw, ch, bins))

  property("no stream is longer than the bounded-integer code plus its table") =
    Prop.forAll(Gen.oneOf(genMaskAndCfg, genQuantised, genTopBin)) { case (mask, cfg) =>
      val idx = ChiIndex.build(mask, cfg)
      val back = CellCounts.read(cfg, mask.w, mask.h,
        CellCounts.bytes(CellCounts(cfg, mask.w, mask.h, Array(mask.id), CellCounts.NoMembers, idx.words)))
      val bound = Fixtures.plainBits(mask, cfg) + Fixtures.tableBits(cfg, mask.w, mask.h)
      (back.bits <= bound) :| s"${back.bits} bits over $bound" &&
        (back.bits == Fixtures.wireBits(mask, cfg)) :| s"${back.bits} bits, ${Fixtures.wireBits(mask, cfg)} worked out" &&
        back.words.sameElements(idx.words) :| "words"
    }

  property("bounds contain the exact CP value") = Prop.forAll(genMaskAndCfg) {
    case (mask, cfg) =>
      val idx = ChiIndex.build(mask, cfg)
      Prop.forAll(genRoi(mask.w, mask.h), genRange) { (roi, range) =>
        val exact = mask.cp(roi, range)
        val b = idx.bounds(roi, range)
        b.lower <= exact && exact <= b.upper
      }
  }

  property("bounds contain the exact CP value on quantised masks and bin-edge ranges") =
    Prop.forAll(genQuantised) { case (mask, cfg) =>
      val idx = ChiIndex.build(mask, cfg)
      Prop.forAll(genRoi(mask.w, mask.h), genBinRange(cfg.bins)) { (roi, range) =>
        val exact = mask.cp(roi, range)
        val b = idx.bounds(roi, range)
        (b.lower <= exact && exact <= b.upper) :| s"range=$range exact=$exact bounds=$b"
      }
    }

  property("CP is additive over horizontal splits") = Prop.forAll(genMaskAndCfg) {
    case (mask, _) =>
      Prop.forAll(genRoi(mask.w, mask.h), genRange) { (roi, range) =>
        (roi.x2 > roi.x1) ==> {
          val mid = (roi.x1 + roi.x2) / 2
          mask.cp(roi, range) ==
            mask.cp(roi.copy(x2 = mid), range) + mask.cp(roi.copy(x1 = mid + 1), range)
        }
      }
  }

  property("cHist of the full mask counts all pixels at bin 0") = Prop.forAll(genMaskAndCfg) {
    case (mask, cfg) =>
      val idx = ChiIndex.build(mask, cfg)
      Fixtures.cHist(idx, Roi.full(mask.w, mask.h))(0) == mask.w * mask.h
  }

  property("outer region covers roi; inner region is covered by roi") =
    Prop.forAll(genMaskAndCfg) { case (mask, cfg) =>
      val idx = ChiIndex.build(mask, cfg)
      Prop.forAll(genRoi(mask.w, mask.h)) { roi =>
        val o = Fixtures.outerRegion(idx, roi)
        val coverOk = o.x1 <= roi.x1 && o.y1 <= roi.y1 && o.x2 >= roi.x2 && o.y2 >= roi.y2
        val innerOk = Fixtures.innerRegion(idx, roi).forall(i =>
          i.x1 >= roi.x1 && i.y1 >= roi.y1 && i.x2 <= roi.x2 && i.y2 <= roi.y2 && Fixtures.isAvailable(idx, i))
        coverOk && Fixtures.isAvailable(idx, o) && innerOk
      }
    }

  property("interval arithmetic is sound for two-term expressions") =
    Prop.forAll(genMaskAndCfg) { case (mask, cfg) =>
      val slab = Fixtures.slabOf(cfg, Seq(mask.copy(id = 0)))
      val row = CatalogRow(0, 0, 1, 1, mask.w, mask.h, "", 1, 1, mask.w, mask.h, 0)
      Prop.forAll(genRoi(mask.w, mask.h), genRange, genRange) { (roi, r1, r2) =>
        val expr = CpSub(
          CpTermExpr(CpTerm(ConstRoi(roi), r1)),
          CpScale(0.5, CpTermExpr(CpTerm(ConstRoi(roi), r2))),
        )
        val exact = expr.eval(t => mask.cp(t.roi.asInstanceOf[ConstRoi].roi, t.range))
        val (lo, hi) = Fixtures.planBounds(expr, slab, row)
        (lo <= exact && exact <= hi) :| s"exact=$exact bounds=[$lo, $hi]"
      }
    }
}
