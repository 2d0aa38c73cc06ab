package repro.bench

import org.scalatest.Ignore

import repro.SparkSpec
import repro.store.CatalogRow

/** One-off probe (ignored by default) used to calibrate Q1/Q2 thresholds:
  * prints quantiles of the exact CP distributions behind Q1 and Q2, with the
  * ROIs and ranges those queries use.
  */
@Ignore
class CalibrationProbe extends SparkSpec {

  test("print CP quantiles for Q1/Q2 on both datasets") {
    BenchData.all.foreach { bd =>
      val loaded = BenchData.load(spark, bd)
      repro.store.DiskThrottle.setBandwidthMiBps(0)
      import spark.implicits._
      val filters = Queries.forDataset(bd, Queries.paperSideFor(bd)).collect { case q: Queries.FilterQuery => q }
      val exprs = filters.map(_.pred.expr)
      val store = loaded.store
      val vals = loaded.catalog.filter("model_id = 1").as[CatalogRow].map { r =>
        val m = store.loadPath(r.path)
        exprs.map(_.exact(r, m))
      }.collect()
      def q(xs: Seq[Double]): String = {
        val ss = xs.sorted
        Seq(0.5, 0.8, 0.9, 0.95, 0.99).map(p => f"p${(p * 100).toInt}=${ss(((ss.size - 1) * p).toInt)}%.0f").mkString(" ")
      }
      filters.zipWithIndex.foreach { case (f, i) =>
        println(s"### ${bd.name} ${f.id} ${f.description}: ${q(vals.map(_(i)).toSeq)}")
      }
    }
  }
}
