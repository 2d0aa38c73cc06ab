package repro.core

import org.apache.spark.sql.functions.expr

import repro.SparkSpec
import repro.baseline.ScanBaseline
import repro.catalyst.MaskSearchSession
import repro.store.{MaskDatasetDef, MaskGen, MaskStore}

/** Engines on masks whose pixels are all quantised to `k / 10` (as floats),
  * indexed with b = 10: every pixel sits on a bin edge, and 0.7f and 0.9f
  * lie just below their double edges. Queries whose ranges have edges at
  * 0.3, 0.6, 0.7 and 0.9 must return exactly what the scan baseline returns.
  */
class QuantisedMasksSpec extends SparkSpec {

  private val ds = MaskDatasetDef("quant", nImages = 20, nModels = 2, w = 32, h = 32, seed = 23)
  private val cfg = ChiConfig(8, 8, 10)

  private lazy val (store, catalog) = {
    val s = MaskStore(spark, "target/testdata/quant")
    ds.maskIds.foreach { id =>
      val m = MaskGen.generate(ds, id)
      s.write(m.copy(data = m.data.map(v => ((v * 10).toInt.toDouble / 10).toFloat)))
    }
    (s, MaskStore.catalogDF(spark, ds, s).cache())
  }
  private lazy val chiBc = ChiRegistry.broadcast(spark, ChiRegistry.build(spark, catalog, store, cfg))

  private val ranges = Seq((0.3, 0.7), (0.6, 0.9), (0.7, 1.0), (0.0, 0.7), (0.7, 0.9), (0.3, 0.6), (0.9, 1.0))
  private val rois = Seq(FullRoi, ObjectRoi, ConstRoi(Roi(9, 9, 24, 24)), ConstRoi(Roi(5, 3, 28, 30)))

  /** Every (term, threshold) pair, the threshold being the median exact value. */
  private lazy val cases: Seq[(CpExpr, Double)] = {
    val rows = MaskStore.asRows(catalog).collect().toSeq
    val masks = rows.map(r => r -> store.loadPath(r.path))
    for (roi <- rois; (lv, uv) <- ranges) yield {
      val e = CpExpr.term(roi, lv, uv)
      val vs = masks.map { case (r, m) => e.exact(r, m) }.sorted
      (e, vs(vs.size / 2))
    }
  }

  test("quantised masks: FilterVerify equals the scan baseline on bin-edge ranges") {
    for ((e, t) <- cases; op <- Seq(Gt, Lt)) {
      val pred = Predicate(e, op, t)
      val got = FilterVerify.execute(catalog, pred, store, chiBc).maskIds.toSeq
      assert(got == ScanBaseline.filterMasks(catalog, pred, store).maskIds.toSeq, s"$pred")
    }
  }

  test("quantised masks: TopK equals the scan baseline on bin-edge ranges") {
    for ((e, _) <- cases; desc <- Seq(true, false)) {
      val got = TopK.masks(catalog, e, 5, desc, store, chiBc).rows.map { case (r, v) => (r.mask_id, v) }.toSeq
      val base = ScanBaseline.topKMasks(catalog, e, 5, desc, store).rows.map { case (r, v) => (r.mask_id, v) }.toSeq
      assert(got == base, s"$e descending=$desc")
    }
  }

  test("quantised masks: SQL cp_mask with the rewrite equals the scan baseline") {
    MaskSearchSession.registerFunctions(spark, store)
    MaskSearchSession.enableRule(spark, chiBc)
    try {
      for ((e @ CpTermExpr(CpTerm(roi, range)), t) <- cases) {
        val box = roi match {
          case ConstRoi(r) => s"${r.x1}, ${r.y1}, ${r.x2}, ${r.y2}"
          case ObjectRoi   => "ox1, oy1, ox2, oy2"
          case FullRoi     => s"1, 1, ${ds.w}, ${ds.h}"
        }
        val call = s"cp_mask(mask_id, path, $box, ${range.lv}, ${range.uv})"
        for ((sql, op) <- Seq(s"$call > $t" -> Gt, s"$call < $t" -> Lt)) {
          val got = catalog.filter(expr(sql)).select("mask_id").collect().map(_.getLong(0)).sorted.toSeq
          assert(got == ScanBaseline.filterMasks(catalog, Predicate(e, op, t), store).maskIds.toSeq, sql)
        }
      }
    } finally MaskSearchSession.disableRule(spark)
  }
}
