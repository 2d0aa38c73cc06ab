package repro.store

import java.nio.{ByteBuffer, ByteOrder}
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.functions.expr

import repro.{SparkSpec, TestData}
import repro.baseline.ScanBaseline
import repro.catalyst.MaskSearchSession
import repro.core._

/** Mask files that do not match what the catalog says about them: a
  * truncated or padded file, a header with a non-positive side, a file whose
  * header names another mask or another shape, and a file deleted after the
  * catalog named it. Each must fail with an error that names the file or the
  * mask, never answer for the wrong pixels.
  */
class MaskIntegritySpec extends SparkSpec {
  import TestData._

  private val base = "target/testdata/integrity"

  /** A scratch store holding a copy of mask `id` of the unit dataset. */
  private def scratch(id: Long): (MaskStore, String) = {
    val s = MaskStore(spark, base)
    s.write(MaskGen.generate(ds, id))
    (s, s.pathFor(id))
  }

  /** A raw file: a header of (id, w, h) followed by `pixels` float bytes. */
  private def header(id: Long, w: Int, h: Int, pixels: Int): Array[Byte] = {
    val buf = ByteBuffer.allocate(16 + 4 * pixels).order(ByteOrder.LITTLE_ENDIAN)
    buf.putLong(id).putInt(w).putInt(h)
    buf.array()
  }

  /** Every message along the cause chain, so errors raised in tasks are seen. */
  private def messages(e: Throwable): String =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" | ")

  test("loadPath rejects a truncated file and names its path") {
    val (s, path) = scratch(0)
    val bytes = Files.readAllBytes(Paths.get(path))
    for (n <- Seq(bytes.length - 4, bytes.length - 1, 10, 0)) {
      Files.write(Paths.get(path), bytes.take(n))
      val e = intercept[IllegalArgumentException](s.loadPath(path))
      assert(e.getMessage.contains(path), e.getMessage)
    }
  }

  test("loadPath rejects a file longer than its header says") {
    val (s, path) = scratch(1)
    Files.write(Paths.get(path), Files.readAllBytes(Paths.get(path)) ++ Array[Byte](0, 0, 0, 0))
    val e = intercept[IllegalArgumentException](s.loadPath(path))
    assert(e.getMessage.contains(path) && e.getMessage.contains("bytes"), e.getMessage)
  }

  test("loadPath rejects a header whose w or h is not positive") {
    val (s, path) = scratch(2)
    // (0, 32) and (32, 0) have the length a 0-pixel file has; (-2, -2) that of a 4-pixel one.
    for ((w, h, pixels) <- Seq((0, 32, 0), (32, 0, 0), (-2, -2, 4))) {
      Files.write(Paths.get(path), header(2, w, h, pixels))
      val e = intercept[IllegalArgumentException](s.loadPath(path))
      assert(e.getMessage.contains(path) && e.getMessage.contains(s"${w}x$h"), e.getMessage)
    }
  }

  test("verification rejects a file whose header names another mask") {
    val row = MaskStore.asRows(catalogM1).collect().minBy(_.mask_id)
    val other = store.pathFor(row.mask_id + 1)
    val df = spark.createDataFrame(Seq(row.copy(path = other)))
    val emptyBc = ChiRegistry.broadcast(spark, ChiRegistry.empty(cfg))
    val pred = Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Gt, 10)
    val e = intercept[Exception](FilterVerify.execute(df, pred, store, emptyBc))
    assert(messages(e).contains(s"holds mask ${row.mask_id + 1}"), messages(e))
  }

  test("verification rejects a file whose shape is not the catalog row's") {
    val row = MaskStore.asRows(catalogM1).collect().minBy(_.mask_id)
    val df = spark.createDataFrame(Seq(row.copy(w = ds.w / 2, h = ds.h / 2, ox1 = 1, oy1 = 1, ox2 = 4, oy2 = 4)))
    val emptyBc = ChiRegistry.broadcast(spark, ChiRegistry.empty(cfg))
    val pred = Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Gt, 10)
    val e = intercept[Exception](FilterVerify.execute(df, pred, store, emptyBc))
    assert(messages(e).contains(s"${ds.w}x${ds.h}"), messages(e))
  }

  test("an incremental session rejects a file whose header names another mask") {
    val row = MaskStore.asRows(catalogM1).collect().minBy(_.mask_id)
    val s = new IncrementalSession(spark, store, cfg)
    val pred = Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Gt, 10)
    val e = intercept[Exception](s.runFilter(Seq(row.copy(path = store.pathFor(row.mask_id + 1))), pred))
    assert(messages(e).contains(s"holds mask ${row.mask_id + 1}"), messages(e))
    assert(s.indexedCount == 0, "nothing is indexed from a mismatched file")
  }

  /** The first model-1 catalog row, and a one-row catalog of it whose path is mask `id + 1`'s file. */
  private def misplaced(): (CatalogRow, org.apache.spark.sql.DataFrame) = {
    val row = MaskStore.asRows(catalogM1).collect().minBy(_.mask_id)
    (row, spark.createDataFrame(Seq(row.copy(path = store.pathFor(row.mask_id + 1)))))
  }

  test("SQL cp_mask rejects a file whose header names another mask, with and without the rule") {
    val (row, df) = misplaced()
    MaskSearchSession.registerFunctions(spark, store)
    val emptyBc = ChiRegistry.broadcast(spark, ChiRegistry.empty(cfg))
    for (ruleOn <- Seq(false, true)) {
      if (ruleOn) MaskSearchSession.enableRule(spark, emptyBc) else MaskSearchSession.disableRule(spark)
      try {
        val e = intercept[Exception](df.filter(expr("cp_mask(mask_id, path, 1, 1, 8, 8, 0.5, 1.0) > 10")).collect())
        assert(messages(e).contains(s"holds mask ${row.mask_id + 1}, not mask ${row.mask_id}"), s"rule $ruleOn: ${messages(e)}")
      } finally MaskSearchSession.disableRule(spark)
    }
  }

  test("the scan baseline rejects a file whose header names another mask, per mask and per group") {
    val (row, df) = misplaced()
    val pred = Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Gt, 10)
    val e = intercept[Exception](ScanBaseline.filterMasks(df, pred, store))
    assert(messages(e).contains(s"holds mask ${row.mask_id + 1}"), messages(e))
    val value = ScalarAggValue(MaxAgg, CpExpr.term(FullRoi, 0.5, 1.0))
    val g = intercept[Exception](ScanBaseline.topKGroups(df, value, 1, descending = true, store))
    assert(messages(g).contains(s"holds mask ${row.mask_id + 1}"), messages(g))
  }

  /** A one-row catalog of model-1 mask `id`, whose path is a scratch copy of its file, and that copy deleted. */
  private def deleted(id: Long): (CatalogRow, MaskStore, org.apache.spark.sql.DataFrame) = {
    val (s, path) = scratch(id)
    val row = MaskStore.asRows(catalogM1).collect().find(_.mask_id == id).get.copy(path = path)
    Files.delete(Paths.get(path))
    (row, s, spark.createDataFrame(Seq(row)))
  }

  test("verification names the mask and its path when its file is deleted after the catalog named it") {
    val id = MaskStore.asRows(catalogM1).collect().map(_.mask_id).min
    val (row, s, df) = deleted(id)
    val emptyBc = ChiRegistry.broadcast(spark, ChiRegistry.empty(cfg))
    val pred = Predicate(CpExpr.term(FullRoi, 0.5, 1.0), Gt, 10)
    val e = intercept[Exception](FilterVerify.execute(df, pred, s, emptyBc))
    assert(messages(e).contains(s"cannot read mask $id from ${row.path}"), messages(e))
  }

  test("SQL cp_mask names the mask and its path when its file is deleted after the catalog named it, with and without the rule") {
    val id = MaskStore.asRows(catalogM1).collect().map(_.mask_id).max
    val (row, s, df) = deleted(id)
    MaskSearchSession.registerFunctions(spark, s)
    val emptyBc = ChiRegistry.broadcast(spark, ChiRegistry.empty(cfg))
    try
      for (ruleOn <- Seq(false, true)) {
        if (ruleOn) MaskSearchSession.enableRule(spark, emptyBc) else MaskSearchSession.disableRule(spark)
        try {
          val e = intercept[Exception](df.filter(expr("cp_mask(mask_id, path, 1, 1, 8, 8, 0.5, 1.0) > 10")).collect())
          assert(messages(e).contains(s"cannot read mask $id from ${row.path}"), s"rule $ruleOn: ${messages(e)}")
        } finally MaskSearchSession.disableRule(spark)
      }
    finally MaskSearchSession.registerFunctions(spark, store)
  }
}
