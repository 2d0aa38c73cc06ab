package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.store.CatalogRow

/** Tests for the CP-expression AST, the interval arithmetic of [[ExprPlan]]
  * against the reference in [[Fixtures]], and the filter-stage
  * classification (§3.2.1 step 2, §3.3).
  */
class PredicateSpec extends AnyFunSuite {
  import Fixtures._

  private def row(id: Long, w: Int = 6, h: Int = 6): CatalogRow =
    CatalogRow(id, id, 1, 1, w, h, s"/tmp/$id.bin", 2, 2, 4, 5, 0)

  test("RoiSpec resolution") {
    val r = row(1)
    assert(ConstRoi(Roi(1, 1, 3, 3)).resolve(r) == Roi(1, 1, 3, 3))
    assert(ObjectRoi.resolve(r) == Roi(2, 2, 4, 5))
    assert(FullRoi.resolve(r) == Roi(1, 1, 6, 6))
  }

  test("CpExpr.terms flattens the tree") {
    val e = CpSub(CpExpr.term(FullRoi, 0.1, 0.5), CpScale(2.0, CpExpr.term(ObjectRoi, 0.5, 0.9)))
    assert(e.terms.size == 2)
  }

  test("CpExpr.eval: arithmetic over CP terms") {
    val t1 = CpExpr.term(FullRoi, 0, 0.5)
    val t2 = CpExpr.term(FullRoi, 0.5, 1.0)
    val cp: CpTerm => Long = t => if (t.range.lv == 0) 10L else 4L
    assert(CpAdd(t1, t2).eval(cp) == 14.0)
    assert(CpSub(t1, t2).eval(cp) == 6.0)
    assert(CpScale(0.5, t1).eval(cp) == 5.0)
    assert(CpScale(-1.0, t2).eval(cp) == -4.0)
  }

  test("ExprPlan: interval arithmetic for Add/Sub/Scale") {
    // The reference, on given term bounds.
    val t1 = CpExpr.term(FullRoi, 0, 0.5)
    val t2 = CpExpr.term(FullRoi, 0.5, 1.0)
    val b: CpTerm => CpBounds = t => if (t.range.lv == 0) CpBounds(2, 5) else CpBounds(1, 3)
    assert(referenceInterval(CpAdd(t1, t2), b) == ((3.0, 8.0)))
    assert(referenceInterval(CpSub(t1, t2), b) == ((-1.0, 4.0)))
    assert(referenceInterval(CpScale(2.0, t1), b) == ((4.0, 10.0)))
    assert(referenceInterval(CpScale(-1.0, t1), b) == ((-5.0, -2.0)))
    // The plan, on Figure 4's index: CP(full, [0.5, 1)) is exactly 9, and
    // CP(((3,3),(5,5)), [0.5, 1)) lies in [2, 7] (Figure 6).
    val slab = slabOf(fig4Cfg, Seq(fig4Mask))
    val r = row(0)
    val whole = CpExpr.term(FullRoi, 0.5, 1.0)
    val box = CpExpr.term(ConstRoi(Roi(3, 3, 5, 5)), 0.5, 1.0)
    assert(planBounds(whole, slab, r) == ((9.0, 9.0)) && planBounds(box, slab, r) == ((2.0, 7.0)))
    assert(planBounds(CpAdd(whole, box), slab, r) == ((11.0, 16.0)))
    assert(planBounds(CpSub(whole, box), slab, r) == ((2.0, 7.0)))
    assert(planBounds(CpSub(box, whole), slab, r) == ((-7.0, -2.0)))
    assert(planBounds(CpScale(2.0, box), slab, r) == ((4.0, 14.0)))
    assert(planBounds(CpScale(-1.0, box), slab, r) == ((-7.0, -2.0)))
  }

  test("classification for cp > T (paper cases 1–3)") {
    val p = Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Gt, 10)
    assert(p.classify(11, 20) == FilterOutcome.Pass)      // lower > T
    assert(p.classify(0, 10) == FilterOutcome.Fail)       // upper ≤ T
    assert(p.classify(5, 15) == FilterOutcome.Uncertain)  // lower ≤ T < upper
    assert(p.classify(10, 11) == FilterOutcome.Uncertain) // boundary: lower = T
  }

  test("classification for cp < T (§3.3 mirror)") {
    val p = Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Lt, 10)
    assert(p.classify(0, 9) == FilterOutcome.Pass)        // upper < T
    assert(p.classify(10, 20) == FilterOutcome.Fail)      // lower ≥ T
    assert(p.classify(5, 15) == FilterOutcome.Uncertain)
  }

  test("classifyRow with an index uses CHI bounds; without, trivial bounds") {
    val m = fig4Mask
    val idx = ChiIndex.build(m, fig4Cfg)
    val r = row(0)
    // Exact CP on full mask ≥0.5 is 9 (aligned ⇒ bounds exact): fail at T=20.
    val pFail = Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Gt, 20)
    assert(pFail.classifyRow(r, Some(idx)) == FilterOutcome.Fail)
    // Without an index the same predicate is classified from [0, 36]: uncertain.
    assert(pFail.classifyRow(r, None) == FilterOutcome.Uncertain)
    // Guaranteed pass: full range over full mask > 10.
    val pPass = Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, 10)
    assert(pPass.classifyRow(r, Some(idx)) == FilterOutcome.Pass)
  }

  test("evalExact matches direct CP computation") {
    val m = fig4Mask
    val r = row(0)
    val p = Predicate(CpExpr.term(ConstRoi(Roi(3, 3, 5, 5)), 0.5, 1.0), Gt, 5)
    assert(p.evalExact(r, m)) // exact = 6 > 5
    val p2 = p.copy(threshold = 6)
    assert(!p2.evalExact(r, m))
  }

  test("generic predicate: ratio-style difference of two CP terms is sound") {
    // CP(obj, hi) − 0.5·CP(full, hi) > T : monotone combination (§3.3).
    val m = randomMask(1, 16, 16, seed = 12)
    val cfg = ChiConfig(4, 4, 8)
    val r = row(1, 16, 16).copy(ox1 = 3, oy1 = 3, ox2 = 10, oy2 = 12)
    val e = CpSub(CpExpr.term(ObjectRoi, 0.5, 1.0), CpScale(0.5, CpExpr.term(FullRoi, 0.5, 1.0)))
    val exact = e.eval(t => m.cp(t.roi.resolve(r), t.range))
    val (lo, hi) = planBounds(e, slabOf(cfg, Seq(m)), r)
    assert(lo <= exact && exact <= hi)
  }

  test("ExprPlan without an index is [0, |roi|] per term") {
    val r = row(1)
    val e = CpExpr.term(FullRoi, 0.2, 0.8)
    for (slab <- Seq(ChiSlab.empty(fig4Cfg), slabOf(fig4Cfg, Seq(fig4Mask)))) // the second holds mask 0 only
      assert(planBounds(e, slab, r) == ((0.0, 36.0)))
    val (lo, hi) = planBounds(CpSub(e, CpScale(-2.0, CpExpr.term(ConstRoi(Roi(1, 1, 2, 3)), 0.2, 0.8))), ChiSlab.empty(fig4Cfg), r)
    assert((lo, hi) == ((0.0, 36.0 + 2 * 6)))
  }

  test("classifyRow equals ExprPlan over the registry slab on random masks and generic predicates") {
    val cfg = ChiConfig(6, 5, 10)
    val masks = (0 until 24).map(i => if (i % 3 == 0) quantisedMask(i, 24, 17, 10, 40L + i) else randomMask(i, 24, 17, 60L + i))
    val registry = new ChiRegistry(cfg, slabOf(cfg, masks), ChiSlab.empty(cfg))
    val r = new java.util.Random(11)
    def term(): CpExpr = {
      val roi = r.nextInt(3) match { case 0 => ConstRoi(randomRoi(r, 24, 17)); case 1 => ObjectRoi; case _ => FullRoi }
      CpTermExpr(CpTerm(roi, randomRange(r)))
    }
    // Every shape of §3.3 combination, each with a negative scale somewhere.
    def exprs(): Seq[CpExpr] = Seq(
      CpScale(-1.5, term()),
      CpAdd(term(), CpScale(-0.5, term())),
      CpSub(CpScale(2.0, term()), CpScale(-1.0, CpAdd(term(), term()))),
      CpSub(term(), CpSub(CpScale(-0.25, term()), term())),
    )
    val seen = scala.collection.mutable.Set.empty[(CmpOp, Int)]
    for (_ <- 0 until 12; expr <- exprs(); op <- Seq(Gt, Lt); m <- masks) {
      val box = randomRoi(r, 24, 17)
      val rw = CatalogRow(m.id, m.id, 1, 1, 24, 17, "", box.x1, box.y1, box.x2, box.y2, 0)
      val (lo, hi) = planBounds(expr, registry.masks, rw)
      assert((lo, hi) == referenceRowInterval(expr, rw, Some(ChiIndex.build(m, cfg))), s"$expr on mask ${m.id}")
      val exact = expr.exact(rw, m)
      assert(lo <= exact && exact <= hi, s"$expr on mask ${m.id}: [$lo, $hi] vs $exact")
      // Thresholds on both sides of the interval, at its ends and inside it.
      for (t <- Seq(lo - 1, lo, (lo + hi) / 2, hi, hi + 1)) {
        val pred = Predicate(expr, op, t)
        val want = pred.classify(lo, hi)
        assert(pred.classifyRow(rw, registry.get(m.id)) == want, s"$pred on mask ${m.id}")
        seen += op -> want
      }
      // A mask the registry does not hold: both give every term [0, |roi|].
      val absent = rw.copy(mask_id = 1000)
      val (tlo, thi) = planBounds(expr, registry.masks, absent)
      assert((tlo, thi) == referenceRowInterval(expr, absent, None))
      val pred = Predicate(expr, op, (tlo + thi) / 2)
      assert(pred.classifyRow(absent, registry.get(1000)) == pred.classify(tlo, thi))
    }
    assert(seen.size == 6, s"outcomes seen: $seen")
  }
}
