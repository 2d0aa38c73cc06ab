package repro.core

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.{SparkSpec, TestData}
import repro.store.MaskStore

/** The filter stage runs on the driver: a query the CHI bounds decide runs no
  * Spark job, a query with Case 3 units runs one job over those units only,
  * the units of a cached DataFrame are read once and dropped on `unpersist`,
  * and the loads a query reports are the masks of the units it verified.
  */
class DriverFilterSpec extends SparkSpec {
  import TestData._

  /** `body`'s result and the number of tasks of each job it started. */
  private def jobs[T](body: => T): (T, Seq[Int]) = {
    val sc = spark.sparkContext
    ListenerBusDrain.drain(sc)
    val started = new ConcurrentLinkedQueue[Int]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.add(e.stageInfos.map(_.numTasks).sum)
    }
    sc.addSparkListener(listener)
    try {
      val out = body
      ListenerBusDrain.drain(sc)
      (out, started.asScala.toSeq)
    } finally sc.removeSparkListener(listener)
  }

  private val everything = Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, -1)
  private val nothing = Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, ds.w * ds.h + 1.0)
  private val selective = Predicate(CpExpr.term(ObjectRoi, 0.8, 1.0), Gt, 40)

  test("a query the bounds decide entirely runs no Spark job") {
    FilterVerify.execute(catalogM1, everything, store, chiBc) // holds the units of catalogM1
    for (pred <- Seq(everything, nothing)) {
      val (res, started) = jobs(FilterVerify.execute(catalogM1, pred, store, chiBc))
      assert(res.stats.nUncertain == 0 && res.stats.masksLoaded == 0)
      assert(started.isEmpty, s"$pred ran jobs of ${started.mkString(", ")} tasks")
    }
    val (bounds, started) = jobs(FilterVerify.boundsPerMask(catalogM1, selective.expr, chiBc))
    assert(bounds.length == ds.nImages && started.isEmpty)
  }

  test("a query with Case 3 units runs one job, over those units only") {
    FilterVerify.execute(catalogM1, everything, store, chiBc)
    val s2 = MaskStore(spark, "target/testdata/unit")
    val (res, started) = jobs(FilterVerify.execute(catalogM1, selective, s2, chiBc))
    val open = res.stats.nUncertain
    assert(open > 1 && open < ds.nImages, s"$open uncertain masks")
    assert(started == Seq(math.min(open, spark.sparkContext.defaultParallelism.toLong max open / 256).toInt),
      s"jobs of ${started.mkString(", ")} tasks for $open units")
    assert(s2.loads.value == open)
  }

  test("an uncached DataFrame is read again on every call") {
    val df = catalog.filter("model_id = 2")
    for (_ <- 0 until 2) {
      val (res, started) = jobs(FilterVerify.execute(df, everything, store, chiBc))
      assert(res.rows.length == ds.nImages && started.size == 1, s"${started.size} jobs")
    }
  }

  test("the units of a cached DataFrame are held until it is unpersisted") {
    val df = catalog.filter("model_id = 2").cache()
    val held0 = Units.heldEntries
    val (_, first) = jobs(FilterVerify.execute(df, everything, store, chiBc))
    assert(first.nonEmpty && Units.heldEntries == held0 + 1)
    val (_, second) = jobs(FilterVerify.execute(df, everything, store, chiBc))
    assert(second.isEmpty)
    df.unpersist(blocking = true)
    val (res, third) = jobs(FilterVerify.execute(df, everything, store, chiBc))
    assert(res.rows.length == ds.nImages && third.nonEmpty, "read again once it is no longer cached")
    assert(Units.heldEntries == held0, "the unpersisted entry's units are dropped")
  }

  test("loads reported from the verified units agree with the store's accumulator") {
    val s2 = MaskStore(spark, "target/testdata/unit")
    def check(what: String)(stats: => QueryStats): Unit = {
      val before = s2.loads.value
      val st = stats
      assert(st.masksLoaded > 0, s"$what loaded nothing")
      assert(s2.loads.value - before == st.masksLoaded, what)
    }
    val meanCp = ScalarAggValue(AvgAgg, CpExpr.term(ObjectRoi, 0.8, 1.0))
    val intersectCp = IntersectCpValue(ObjectRoi, ValueRange(0.8, 1.0))
    check("filter")(FilterVerify.execute(catalogM1, selective, s2, chiBc).stats)
    check("top-k")(TopK.masks(catalogM1, CpExpr.term(ObjectRoi, 0.6, 1.0), 10, descending = true, s2, chiBc).stats)
    check("group filter")(Aggregation.filterGroups(catalog, meanCp, Gt, 30, s2, chiBc).stats)
    check("group top-k")(Aggregation.topKGroups(catalog, meanCp, 10, descending = true, s2, chiBc).stats)
    check("intersect top-k")(Aggregation.topKGroups(catalog, intersectCp, 10, descending = true, s2, chiBc).stats)
    check("incremental")(new IncrementalSession(spark, s2, cfg).runFilter(
      MaskStore.asRows(catalogM1).collect().toSeq, selective).stats)
  }
}
