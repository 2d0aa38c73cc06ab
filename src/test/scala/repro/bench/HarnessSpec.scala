package repro.bench

import java.nio.file.Files

import scala.reflect.runtime.universe.TypeTag

import repro.{SparkSpec, TestData}
import repro.bench.Harness._
import repro.store.DiskThrottle

/** The harness's Spark side: the JSON rows the bench suites commit, and the
  * mask loads of the Figure 10 runner, on the unit-test dataset.
  */
class HarnessSpec extends SparkSpec {

  test("writeJson rows read back with spark.read.json: fields plus cores and disk bandwidth") {
    val dir = Files.createTempDirectory("harness-json")
    def roundTrip[T <: Product: TypeTag](row: T, fields: Set[String]): Unit = {
      val path = dir.resolve(row.productPrefix + ".json").toString
      DiskThrottle.setBandwidthMiBps(125)
      try Harness.writeJson(spark, path, Seq(row))
      finally DiskThrottle.setBandwidthMiBps(0)
      val df = spark.read.json(path)
      assert(df.columns.toSet == fields ++ Set("cores", "diskMiBps"), row.productPrefix)
      val back = df.collect().toSeq
      assert(back.size == 1)
      assert(back.head.getAs[Long]("cores") == spark.sparkContext.defaultParallelism)
      assert(back.head.getAs[Double]("diskMiBps") == 125.0)
    }
    roundTrip(QueryRun("d", "Q1", "MaskSearch", 3, 10, 7, 2),
      Set("dataset", "query", "system", "masksLoaded", "nTargeted", "timeMs", "resultSize"))
    roundTrip(TypeBox("d", "Top-K", 5, Dist(1, 2, 3, 4, 5), 0.25),
      Set("dataset", "qtype", "nQueries", "timeMs", "medianFml"))
    roundTrip(FmlScatter("d", 0.9, Seq(0.0, 0.5), Seq(10L, 60L)),
      Set("dataset", "pearsonR", "fml", "timeMs"))
    roundTrip(BoundsRow("d", "fine", 0.3, 0.1, 0.6, 1.0, 0.02, 0.1, 0.2, 0.3),
      Set("dataset", "cfgLabel", "indexRatio", "wireRatio", "lv", "uv", "meanRelWidth", "fmlAtQ1", "fmlAtMedian", "fmlAtQ3"))
    roundTrip(WorkloadCurves("d", 0.5, 2, Seq(1L, 2L), Seq(3L, 4L), Seq(5L, 6L)),
      Set("dataset", "pSeen", "nQueries", "cumScan", "cumMs", "cumMsii"))

    val box = spark.read.json(dir.resolve("TypeBox.json").toString).selectExpr("timeMs.*")
    assert(box.columns.toSet == Set("min", "p25", "median", "p75", "max"))
    assert(box.collect().head.getAs[Long]("median") == 3)
  }

  test("runFig10 loads each sample mask once per index config and once per value range") {
    val bd = BenchDataset(TestData.ds, TestData.cfg, "target/testdata/unit")
    val loaded = BenchData.Loaded(bd, TestData.store, TestData.catalog, TestData.registry, TestData.chiBc)
    val sample = 20
    val loads0 = TestData.store.loads.value
    val rows = Harness.runFig10(spark, loaded, sample)
    // Three index builds (coarse, default, fine) and one exact pass per range.
    assert(TestData.store.loads.value - loads0 == (3 + 2) * sample)
    assert(rows.map(r => (r.cfgLabel, r.lv, r.uv)) ==
      Seq("coarse", "default", "fine").flatMap(c => Seq((c, 0.6, 1.0), (c, 0.8, 1.0))))
    assert(rows.forall(r => r.indexRatio > 0 && r.wireRatio > 0))
  }
}
