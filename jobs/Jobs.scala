package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench._

/** Shared SparkSession factory for the spark-submit entrypoints. */
object JobSession {
  def create(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

/** Reproduces Table 2 and Figure 7: individual query performance (Q1–Q5). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("masksearch-table2")
    try {
      val runs = BenchData.all.flatMap(bd => Harness.runTable2Fig7(spark, BenchData.load(spark, bd)))
      val buildMs = BenchData.all.map(bd => bd.name -> BenchData.load(spark, bd).buildMs).toMap
      Harness.printTable2Fig7(runs, buildMs)
    } finally spark.stop()
  }
}

/** Reproduces Figure 8: query-time distributions per query type. */
object Fig8Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("masksearch-fig8")
    val n = args.headOption.map(_.toInt).getOrElse(15)
    try {
      val runs = BenchData.all.flatMap(bd => Harness.runFig8(spark, BenchData.load(spark, bd), n, seed = 8))
      Harness.printFig8(runs)
    } finally spark.stop()
  }
}

/** Reproduces Figure 9: query time vs fraction of masks loaded. */
object Fig9Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("masksearch-fig9")
    val n = args.headOption.map(_.toInt).getOrElse(40)
    try BenchData.all.foreach { bd =>
      val (pts, r) = Harness.runFig9(spark, BenchData.load(spark, bd), n, seed = 9)
      Harness.printFig9(bd.name, pts, r)
    } finally spark.stop()
  }
}

/** Reproduces Figure 10: bound-distribution analysis across index sizes. */
object Fig10Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("masksearch-fig10")
    val sample = args.headOption.map(_.toInt).getOrElse(500)
    try {
      val rows = BenchData.all.flatMap(bd => Harness.runFig10(spark, BenchData.load(spark, bd), sample))
      Harness.printFig10(rows)
    } finally spark.stop()
  }
}

/** Reproduces Figure 11: multi-query workloads (MS vs MS-II vs scan). */
object Fig11Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.create("masksearch-fig11")
    try {
      val pSeens = Seq(0.2, 0.5, 0.8, 1.0)
      val curves =
        pSeens.map(p => Harness.runWorkload(spark, BenchData.load(spark, BenchData.wilds), 40, p, seed = 11)) ++
          pSeens.map(p => Harness.runWorkload(spark, BenchData.load(spark, BenchData.imagenet), 15, p, seed = 12))
      Harness.printFig11(curves)
    } finally spark.stop()
  }
}
