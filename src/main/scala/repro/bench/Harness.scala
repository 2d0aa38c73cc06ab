package repro.bench

import java.io.{ObjectOutputStream, OutputStream}
import java.nio.file.{Files, Paths}

import scala.reflect.runtime.universe.TypeTag

import org.apache.spark.sql.{Encoders, SparkSession}
import org.apache.spark.sql.functions.lit

import repro.baseline.ScanBaseline
import repro.core._
import repro.store.{CatalogRow, DiskThrottle}
import repro.workload.Workloads

/** Shared benchmark harness: runs the experiments behind the paper's Table 2
  * and Figures 7–11 for the `bench/` suites, which write their rows with
  * [[writeJson]]. Each runner also cross-checks MaskSearch results against
  * the scan baseline, so a bench run doubles as an integration test at
  * benchmark scale.
  */
object Harness {

  final case class QueryRun(
      dataset: String,
      query: String,
      system: String,
      masksLoaded: Long,
      nTargeted: Long,
      timeMs: Long,
      resultSize: Int,
  )

  /** Write `rows` to `path` as JSON lines, one object per row with the row's
    * fields plus the run's core count (`cores`, Spark's default parallelism)
    * and simulated disk bandwidth (`diskMiBps`, 0 when unthrottled).
    */
  def writeJson[T <: Product: TypeTag](spark: SparkSession, path: String, rows: Seq[T]): Unit = {
    val lines = spark.createDataset(rows)(Encoders.product[T])
      .withColumn("cores", lit(spark.sparkContext.defaultParallelism))
      .withColumn("diskMiBps", lit(DiskThrottle.bandwidthMiBps))
      .toJSON.collect()
    val p = Paths.get(path)
    Option(p.getParent).foreach(Files.createDirectories(_))
    Files.write(p, lines.mkString("", "\n", "\n").getBytes("UTF-8"))
  }

  // ---------------------------------------------------------------- Table 2 / Fig 7

  /** Run Q1–Q5 with MaskSearch and the scan baseline (the stand-in for
    * PostgreSQL / TileDB / NumPy, which all load every targeted mask) on one
    * dataset. Returns one row per (query, system).
    */
  def runTable2Fig7(spark: SparkSession, loaded: BenchData.Loaded): Seq[QueryRun] = {
    val bd = loaded.bd
    val queries = Queries.forDataset(bd, Queries.paperSideFor(bd))
    val m1 = loaded.catalog.filter("model_id = 1").cache()
    val nM1 = m1.count()

    // Warm up codegen/JIT on both engines so the first timed query is not
    // inflated by one-time compilation cost.
    val warm = m1.limit(64).cache(); warm.count()
    FilterVerify.execute(warm, Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, Double.MaxValue), loaded.store, loaded.chiBc)
    ScanBaseline.filterMasks(warm, Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, 1.0), loaded.store)
    warm.unpersist()

    queries.flatMap { q =>
      // The masks the query targets, then MaskSearch's and the scan's (answer, stats).
      val (nTargeted, ms, base) = q match {
        case Queries.FilterQuery(_, _, pred) =>
          val ms = FilterVerify.execute(m1, pred, loaded.store, loaded.chiBc)
          val base = ScanBaseline.filterMasks(m1, pred, loaded.store)
          (nM1, (ms.maskIds.toSeq, ms.stats), (base.maskIds.toSeq, base.stats))
        case Queries.TopKQuery(_, _, expr, k, desc) =>
          val ms = TopK.masks(m1, expr, k, desc, loaded.store, loaded.chiBc)
          val base = ScanBaseline.topKMasks(m1, expr, k, desc, loaded.store)
          (nM1, (ms.maskIds.toSeq, ms.stats), (base.maskIds.toSeq, base.stats))
        case Queries.GroupTopKQuery(_, _, value, k, desc) =>
          val ms = Aggregation.topKGroups(loaded.catalog, value, k, desc, loaded.store, loaded.chiBc)
          val base = ScanBaseline.topKGroups(loaded.catalog, value, k, desc, loaded.store)
          // Group queries target all masks of the dataset (2 per image).
          (bd.ds.nMasks.toLong, (ms.groupIds.toSeq, ms.stats), (base.groupIds.toSeq, base.stats))
      }
      require(ms._1 == base._1, s"${q.id} result mismatch")
      Seq("MaskSearch" -> ms, "Scan(PG/TDB/NP)" -> base).map { case (system, (ids, stats)) =>
        QueryRun(bd.name, q.id, system, stats.masksLoaded, nTargeted, stats.elapsedMs, ids.size)
      }
    }
  }

  // ---------------------------------------------------------------- Fig 8 / Fig 9

  final case class TypedQueryRun(dataset: String, qtype: String, timeMs: Long, fml: Double)

  /** §4.3: randomized queries of the three types, MaskSearch only (the paper
    * notes baselines behave like their §4.2 counterparts regardless of
    * parameters).
    */
  def runFig8(spark: SparkSession, loaded: BenchData.Loaded, nPerType: Int, seed: Long): Seq[TypedQueryRun] = {
    val bd = loaded.bd
    val r = new scala.util.Random(seed)
    val m1 = loaded.catalog.filter("model_id = 1").cache()
    m1.count()
    val side = bd.ds.w
    val maskPixels = side.toLong * bd.ds.h

    // Random ROI with sides of at least two index cells. The paper draws
    // "any rectangle"; at lite mask sizes a sub-cell rectangle carries no
    // index information at all, so the draw is floored at the analyst-scale
    // two-cell side (the equivalent of 128 px on the paper's 448² masks).
    def randRoi(): Roi = {
      val minSide = 2 * bd.cfg.cellW
      val x1 = 1 + r.nextInt(side - minSide); val y1 = 1 + r.nextInt(side - minSide)
      Roi(
        x1, y1,
        x1 + minSide - 1 + r.nextInt(side - x1 - minSide + 2),
        y1 + minSide - 1 + r.nextInt(side - y1 - minSide + 2),
      )
    }

    val filter = (0 until nPerType).map { _ =>
      val pred = Workloads.randomFilterPredicate(r, maskPixels)
      val res = FilterVerify.execute(m1, pred, loaded.store, loaded.chiBc)
      TypedQueryRun(bd.name, "Filter", res.stats.elapsedMs, res.stats.fml)
    }
    val topk = (0 until nPerType).map { _ =>
      val (lv, uv) = Workloads.randomRange(r)
      val res = TopK.masks(m1, CpExpr.term(ConstRoi(randRoi()), lv, uv), 25, r.nextBoolean(), loaded.store, loaded.chiBc)
      TypedQueryRun(bd.name, "Top-K", res.stats.elapsedMs, res.stats.fml)
    }
    val agg = (0 until nPerType).map { _ =>
      val (lv, uv) = Workloads.randomRange(r)
      val value = ScalarAggValue(AvgAgg, CpExpr.term(ConstRoi(randRoi()), lv, uv))
      val res = Aggregation.topKGroups(loaded.catalog, value, 25, r.nextBoolean(), loaded.store, loaded.chiBc)
      // FML relative to all masks of the dataset.
      TypedQueryRun(bd.name, "Aggregation", res.stats.elapsedMs, res.stats.masksLoaded.toDouble / bd.ds.nMasks)
    }
    filter ++ topk ++ agg
  }

  final case class Dist(min: Long, p25: Long, median: Long, p75: Long, max: Long)

  def dist(xs: Seq[Long]): Dist = {
    val s = xs.sorted
    def q(p: Double): Long = s(math.min(s.size - 1, (p * (s.size - 1)).round.toInt))
    Dist(s.head, q(0.25), q(0.5), q(0.75), s.last)
  }

  /** One box of Figure 8: the time distribution of one query type's runs on
    * one dataset, and their median FML.
    */
  final case class TypeBox(dataset: String, qtype: String, nQueries: Int, timeMs: Dist, medianFml: Double)

  def boxes(runs: Seq[TypedQueryRun]): Seq[TypeBox] =
    runs.map(r => (r.dataset, r.qtype)).distinct.map { case (ds, t) =>
      val sel = runs.filter(r => r.dataset == ds && r.qtype == t)
      val fmls = sel.map(_.fml).sorted
      TypeBox(ds, t, sel.size, dist(sel.map(_.timeMs)), fmls(fmls.size / 2))
    }

  /** Pearson correlation coefficient. */
  def pearson(xs: Seq[Double], ys: Seq[Double]): Double = {
    val n = xs.size
    val mx = xs.sum / n; val my = ys.sum / n
    val cov = xs.zip(ys).map { case (x, y) => (x - mx) * (y - my) }.sum
    val sx = math.sqrt(xs.map(x => (x - mx) * (x - mx)).sum)
    val sy = math.sqrt(ys.map(y => (y - my) * (y - my)).sum)
    if (sx == 0 || sy == 0) 0.0 else cov / (sx * sy)
  }

  /** Figure 9 on one dataset: each Filter query's FML and time, and their
    * Pearson r.
    */
  final case class FmlScatter(dataset: String, pearsonR: Double, fml: Seq[Double], timeMs: Seq[Long])

  /** §4.4 / Fig 9: query time vs fraction of masks loaded for Filter queries. */
  def runFig9(spark: SparkSession, loaded: BenchData.Loaded, nQueries: Int, seed: Long): FmlScatter = {
    val r = new scala.util.Random(seed)
    val m1 = loaded.catalog.filter("model_id = 1").cache()
    m1.count()
    val maskPixels = loaded.bd.ds.w.toLong * loaded.bd.ds.h
    val stats = (0 until nQueries).map { _ =>
      val pred = Workloads.randomFilterPredicate(r, maskPixels)
      FilterVerify.execute(m1, pred, loaded.store, loaded.chiBc).stats
    }
    val (fml, timeMs) = (stats.map(_.fml), stats.map(_.elapsedMs))
    FmlScatter(loaded.bd.name, pearson(fml, timeMs.map(_.toDouble)), fml, timeMs)
  }

  // ---------------------------------------------------------------- Fig 10

  final case class BoundsRow(
      dataset: String,
      cfgLabel: String,
      indexRatio: Double,
      wireRatio: Double,
      lv: Double,
      uv: Double,
      meanRelWidth: Double,
      fmlAtQ1: Double,
      fmlAtMedian: Double,
      fmlAtQ3: Double,
  )

  /** §4.4 / Fig 10: distribution of CHI bounds (and the FML they induce) for
    * a sample of masks, across index granularities and value ranges. The
    * object bounding box is the ROI, as in the paper. Each row gives the
    * sample registry's size over the raw bytes of its masks twice: as the
    * words it holds (`indexRatio`) and Java-serialised, as a broadcast ships
    * it (`wireRatio`).
    */
  def runFig10(spark: SparkSession, loaded: BenchData.Loaded, sampleSize: Int): Seq[BoundsRow] = {
    import spark.implicits._
    val bd = loaded.bd
    val sample = loaded.catalog.filter(s"model_id = 1 AND image_id < $sampleSize").cache()
    sample.count()
    val coarse = ChiConfig(bd.cfg.cellW * 2, bd.cfg.cellH * 2, math.max(2, bd.cfg.bins / 2))
    val fine = ChiConfig(math.max(2, bd.cfg.cellW / 2), math.max(2, bd.cfg.cellH / 2), bd.cfg.bins)
    val configs = Seq(("coarse", coarse), ("default", bd.cfg), ("fine", fine))
    val ranges = Seq((0.6, 1.0), (0.8, 1.0))

    val areas = sample.as[CatalogRow].collect().map(r => r.mask_id -> ObjectRoi.resolve(r).area).toMap
    // Exact values, per range, to place the example thresholds at the quartiles.
    val store = loaded.store
    val exactsOf = ranges.map { case (lv, uv) =>
      (lv, uv) -> sample.as[CatalogRow].map { r =>
        val m = store.loadRow(r)
        m.cp(Roi(r.ox1, r.oy1, r.ox2, r.oy2), ValueRange(lv, uv)).toDouble
      }.collect().sorted
    }.toMap

    configs.flatMap { case (label, cfg) =>
      val registry = ChiRegistry.build(spark, sample, loaded.store, cfg)
      // The words the sample's indexes hold, and their serialised bytes, over the float32 bytes of their masks.
      val rawBytes = 4.0 * bd.ds.w * bd.ds.h * registry.size
      val (indexRatio, wireRatio) = (registry.totalBytes / rawBytes, serializedBytes(registry) / rawBytes)
      val reg = ChiRegistry.broadcast(spark, registry)
      ranges.map { case (lv, uv) =>
        val rows = FilterVerify.boundsPerMask(sample, CpExpr.term(ObjectRoi, lv, uv), reg)
          .map { case (id, lo, hi) => (lo, hi, areas(id)) }
        val exacts = exactsOf((lv, uv))
        def fmlAt(t: Double): Double =
          rows.count { case (lo, hi, _) => lo <= t && t < hi }.toDouble / rows.length
        val relWidths = rows.map { case (lo, hi, area) => (hi - lo) / math.max(1.0, area.toDouble) }
        BoundsRow(
          bd.name, label, indexRatio, wireRatio,
          lv, uv,
          relWidths.sum / relWidths.length,
          fmlAt(exacts((exacts.length * 0.25).toInt)),
          fmlAt(exacts(exacts.length / 2)),
          fmlAt(exacts((exacts.length * 0.75).toInt)),
        )
      }
    }
  }

  /** Bytes of `o` Java-serialised, counted as they are written. */
  private def serializedBytes(o: AnyRef): Long = {
    var n = 0L
    val out = new ObjectOutputStream(new OutputStream {
      def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    })
    out.writeObject(o)
    out.close()
    n
  }

  // ---------------------------------------------------------------- Fig 11

  final case class WorkloadCurves(
      dataset: String,
      pSeen: Double,
      nQueries: Int,
      cumScan: Seq[Long],
      cumMs: Seq[Long],   // index build charged before query 1
      cumMsii: Seq[Long],
  )

  /** §4.5: one multi-query workload executed by the scan baseline (NumPy
    * stand-in), MaskSearch with ahead-of-time indexing (MS), and MaskSearch
    * with incremental indexing (MS-II). Cumulative total time includes index
    * building, as in the paper's Figure 11.
    */
  def runWorkload(
      spark: SparkSession,
      loaded: BenchData.Loaded,
      nQueries: Int,
      pSeen: Double,
      seed: Long,
  ): WorkloadCurves = {
    import spark.implicits._
    val rows = loaded.catalog.as[CatalogRow].collect().toIndexedSeq.sortBy(_.mask_id)
    val queries = Workloads.generate(rows, nQueries, pSeen, seed)

    // MS: pay a fresh full-index build up front (timed), then query.
    val t0 = System.nanoTime()
    val fullRegistry = ChiRegistry.build(spark, loaded.catalog, loaded.store, loaded.bd.cfg)
    val buildMs = (System.nanoTime() - t0) / 1_000_000
    val msSession = new IncrementalSession(spark, loaded.store, loaded.bd.cfg, fullRegistry)
    val msiiSession = new IncrementalSession(spark, loaded.store, loaded.bd.cfg)

    var cumScan = Vector.empty[Long]; var accScan = 0L
    var cumMs = Vector.empty[Long]; var accMs = buildMs
    var cumMsii = Vector.empty[Long]; var accMsii = 0L

    queries.foreach { q =>
      val targetDf = spark.createDataFrame(q.target)
      val tS = System.nanoTime()
      val scanRes = ScanBaseline.filterMasks(targetDf, q.pred, loaded.store)
      accScan += (System.nanoTime() - tS) / 1_000_000

      val tM = System.nanoTime()
      val msRes = msSession.runFilter(q.target, q.pred)
      accMs += (System.nanoTime() - tM) / 1_000_000

      val tI = System.nanoTime()
      val msiiRes = msiiSession.runFilter(q.target, q.pred)
      accMsii += (System.nanoTime() - tI) / 1_000_000

      require(msRes.maskIds.toSeq == scanRes.maskIds.toSeq, "MS result mismatch")
      require(msiiRes.maskIds.toSeq == scanRes.maskIds.toSeq, "MS-II result mismatch")

      cumScan :+= accScan; cumMs :+= accMs; cumMsii :+= accMsii
    }
    WorkloadCurves(loaded.bd.name, pSeen, nQueries, cumScan, cumMs, cumMsii)
  }
}
