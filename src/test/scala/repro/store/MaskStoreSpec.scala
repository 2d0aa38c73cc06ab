package repro.store

import repro.{SparkSpec, TestData}
import repro.core.Roi

/** Tests for the on-disk mask store and the synthetic mask generator. */
class MaskStoreSpec extends SparkSpec {
  import TestData._

  test("materialize writes one file per mask") {
    val paths = catalog.select("path").collect().map(_.getString(0))
    assert(paths.length == ds.nMasks)
    assert(paths.forall(p => new java.io.File(p).isFile))
  }

  test("write/load roundtrip preserves id, shape and pixels") {
    val m = MaskGen.generate(ds, 17)
    val loaded = store.load(17)
    assert(loaded.id == 17 && loaded.w == ds.w && loaded.h == ds.h)
    assert(loaded.data.toSeq == m.data.toSeq)
  }

  test("loads are counted by the accumulator, including driver-side loads") {
    val before = store.loads.value
    store.load(3); store.load(4)
    assert(store.loads.value == before + 2)
  }

  test("loads are counted across executor tasks") {
    val spark0 = spark
    import spark0.implicits._
    val before = store.loads.value
    val s = store
    val n = spark.createDataset(Seq(0L, 1L, 2L, 3L, 4L)).mapPartitions { ids =>
      ids.map(id => s.load(id).w)
    }.collect().length
    assert(n == 5)
    assert(store.loads.value == before + 5)
  }

  test("mask generation is deterministic") {
    val a = MaskGen.generate(ds, 23)
    val b = MaskGen.generate(ds, 23)
    assert(a.data.toSeq == b.data.toSeq)
  }

  test("different masks differ") {
    val a = MaskGen.generate(ds, 1)
    val b = MaskGen.generate(ds, 2)
    assert(a.data.toSeq != b.data.toSeq)
  }

  test("pixel values are within [0, 1)") {
    for (id <- 0 until 10) {
      val m = MaskGen.generate(ds, id)
      assert(m.data.forall(v => v >= 0f && v < 1f), s"mask $id out of range")
    }
  }

  test("two models of the same image share the object bbox but differ in pixels") {
    val a = MaskGen.generate(ds, 0) // image 0, model 1
    val b = MaskGen.generate(ds, 1) // image 0, model 2
    assert(a.data.toSeq != b.data.toSeq)
    val rows = catalog.filter("image_id = 0").collect()
    assert(rows.length == 2)
    assert(rows.map(r => (r.getAs[Int]("ox1"), r.getAs[Int]("oy1"), r.getAs[Int]("ox2"), r.getAs[Int]("oy2"))).distinct.length == 1)
  }

  test("object bbox lies within the mask") {
    val rows = MaskGen.catalog(ds, store)
    rows.foreach { r =>
      val roi = Roi(r.ox1, r.oy1, r.ox2, r.oy2)
      assert(roi.within(ds.w, ds.h), s"bbox $roi of image ${r.image_id}")
    }
  }

  test("concentrated masks are saliency-dense inside the object bbox") {
    // For non-dispersed masks, the mean value inside the bbox should exceed
    // the mean outside by a clear margin.
    val samples = (0 until ds.nMasks).filterNot(id => MaskGen.isDispersed(ds, id)).take(20)
    samples.foreach { id =>
      val m = MaskGen.generate(ds, id)
      val box = MaskGen.objectBox(ds, ds.imageOf(id))
      val inBox = for (x <- box.x1 to box.x2; y <- box.y1 to box.y2) yield m(x, y).toDouble
      val all = m.data.map(_.toDouble)
      assert(inBox.sum / inBox.size > all.sum / all.length, s"mask $id")
    }
  }

  test("a nontrivial fraction of masks is dispersed") {
    val n = (0 until ds.nMasks).count(id => MaskGen.isDispersed(ds, id))
    assert(n > ds.nMasks / 20 && n < ds.nMasks / 2)
  }

  test("catalog columns match the MasksDatabaseView schema + extensions") {
    assert(catalog.columns.toSet == Set(
      "mask_id", "image_id", "model_id", "mask_type", "w", "h", "path",
      "ox1", "oy1", "ox2", "oy2", "pred_class"))
    assert(catalog.count() == ds.nMasks)
    assert(catalog.select("mask_id").distinct().count() == ds.nMasks)
  }

  test("the catalog DataFrame holds MaskGen.catalog's rows in order, built in tasks") {
    val df = MaskStore.catalogDF(spark, ds, store)
    assert(MaskStore.asRows(df).collect().toSeq == MaskGen.catalog(ds, store))
    val plan = df.queryExecution.analyzed
    assert(plan.collectLeaves().forall(_.isInstanceOf[org.apache.spark.sql.catalyst.plans.logical.Range]), plan.toString)
  }

  test("model ids are 1-based and image ids group nModels masks") {
    val byModel = catalog.groupBy("model_id").count().collect()
      .map(r => r.getAs[Int]("model_id") -> r.getAs[Long]("count")).toMap
    assert(byModel == Map(1 -> ds.nImages.toLong, 2 -> ds.nImages.toLong))
  }

  test("materialize is idempotent (marker prevents rewrite)") {
    val f = new java.io.File(store.pathFor(0))
    val mtime = f.lastModified()
    val (_, again) = MaskStore.materialize(spark, ds, "target/testdata/unit")
    assert(again.count() == ds.nMasks)
    assert(f.lastModified() == mtime)
  }

  test("resetLoads zeroes the counter") {
    store.load(0)
    store.resetLoads()
    assert(store.loads.value == 0)
  }

  test("write rejects NaN and pixel values outside [0, 1)") {
    val s = MaskStore(spark, "target/testdata/domain")
    for ((bad, id) <- Seq(Float.NaN, 1.0f, 1.5f, -0.1f).zipWithIndex) {
      val m = repro.core.Mask(id.toLong, 2, 2, Array(0.2f, 0.4f, bad, 0.6f))
      val e = intercept[IllegalArgumentException](s.write(m))
      assert(e.getMessage.contains("outside [0, 1)"), e.getMessage)
      assert(!new java.io.File(s.pathFor(id.toLong)).exists)
    }
  }
}
