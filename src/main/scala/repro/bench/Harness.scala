package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baseline.ScanBaseline
import repro.core._
import repro.store.CatalogRow
import repro.workload.Workloads

/** Shared benchmark harness: runs the experiments behind the paper's Table 2
  * and Figures 7–11 and prints their rows. Used both by the `bench/` test
  * suites and the `jobs/` spark-submit entrypoints. Each runner also
  * cross-checks MaskSearch results against the scan baseline, so a bench run
  * doubles as an integration test at benchmark scale.
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

  private val resultsDir = "target/bench-results"

  def appendTsv(file: String, header: String, lines: Seq[String]): Unit = {
    Files.createDirectories(Paths.get(resultsDir))
    val p = Paths.get(resultsDir, file)
    val content = (header +: lines).mkString("", "\n", "\n")
    Files.write(p, content.getBytes, StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
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
    m1.count()

    // Warm up codegen/JIT on both engines so the first timed query is not
    // inflated by one-time compilation cost.
    val warm = m1.limit(64).cache(); warm.count()
    FilterVerify.execute(warm, Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, Double.MaxValue), loaded.store, loaded.chiBc)
    ScanBaseline.filterMasks(warm, Predicate(CpExpr.term(FullRoi, 0.0, 1.0), Gt, 1.0), loaded.store)
    warm.unpersist()
    loaded.store.resetLoads()

    queries.flatMap {
      case Queries.FilterQuery(id, _, pred) =>
        loaded.store.resetLoads()
        val ms = FilterVerify.execute(m1, pred, loaded.store, loaded.chiBc)
        loaded.store.resetLoads()
        val base = ScanBaseline.filterMasks(m1, pred, loaded.store)
        require(ms.maskIds.toSeq == base.maskIds.toSeq, s"$id result mismatch")
        Seq(
          QueryRun(bd.name, id, "MaskSearch", ms.stats.masksLoaded, ms.stats.nTargeted, ms.stats.elapsedMs, ms.rows.length),
          QueryRun(bd.name, id, "Scan(PG/TDB/NP)", base.stats.masksLoaded, base.stats.nTargeted, base.stats.elapsedMs, base.rows.length),
        )
      case Queries.TopKQuery(id, _, expr, k, desc) =>
        loaded.store.resetLoads()
        val ms = TopK.masks(m1, expr, k, desc, loaded.store, loaded.chiBc)
        loaded.store.resetLoads()
        val base = ScanBaseline.topKMasks(m1, expr, k, desc, loaded.store)
        require(ms.maskIds.toSeq == base.maskIds.toSeq, s"$id result mismatch")
        Seq(
          QueryRun(bd.name, id, "MaskSearch", ms.stats.masksLoaded, ms.stats.nTargeted, ms.stats.elapsedMs, ms.rows.length),
          QueryRun(bd.name, id, "Scan(PG/TDB/NP)", base.stats.masksLoaded, base.stats.nTargeted, base.stats.elapsedMs, base.rows.length),
        )
      case Queries.GroupTopKQuery(id, _, value, k, desc) =>
        loaded.store.resetLoads()
        val ms = Aggregation.topKGroups(loaded.catalog, value, k, desc, loaded.store, loaded.chiBc)
        loaded.store.resetLoads()
        val base = ScanBaseline.topKGroups(loaded.catalog, value, k, desc, loaded.store)
        require(ms.groupIds.toSeq == base.groupIds.toSeq, s"$id result mismatch")
        // Group queries target all masks of the dataset (2 per image).
        val targeted = bd.ds.nMasks.toLong
        Seq(
          QueryRun(bd.name, id, "MaskSearch", ms.stats.masksLoaded, targeted, ms.stats.elapsedMs, ms.groups.length),
          QueryRun(bd.name, id, "Scan(PG/TDB/NP)", base.stats.masksLoaded, targeted, base.stats.elapsedMs, base.groups.length),
        )
    }
  }

  def printTable2Fig7(runs: Seq[QueryRun], buildMsByDataset: Map[String, Long]): Unit = {
    println()
    println("== Table 2: number of masks loaded during query execution ==")
    println(f"${"dataset"}%-14s ${"system"}%-16s ${"Q1"}%9s ${"Q2"}%9s ${"Q3"}%9s ${"Q4"}%9s ${"Q5"}%9s")
    for {
      ds <- runs.map(_.dataset).distinct
      sys <- Seq("MaskSearch", "Scan(PG/TDB/NP)")
    } {
      val row = Seq("Q1", "Q2", "Q3", "Q4", "Q5").map { q =>
        runs.find(r => r.dataset == ds && r.query == q && r.system == sys).map(_.masksLoaded).getOrElse(-1L)
      }
      println(f"$ds%-14s $sys%-16s ${row(0)}%9d ${row(1)}%9d ${row(2)}%9d ${row(3)}%9d ${row(4)}%9d")
    }
    println()
    println("== Figure 7 (as table): end-to-end individual query time (ms) ==")
    println(f"${"dataset"}%-14s ${"system"}%-16s ${"Q1"}%9s ${"Q2"}%9s ${"Q3"}%9s ${"Q4"}%9s ${"Q5"}%9s")
    for {
      ds <- runs.map(_.dataset).distinct
      sys <- Seq("MaskSearch", "Scan(PG/TDB/NP)")
    } {
      val row = Seq("Q1", "Q2", "Q3", "Q4", "Q5").map { q =>
        runs.find(r => r.dataset == ds && r.query == q && r.system == sys).map(_.timeMs).getOrElse(-1L)
      }
      println(f"$ds%-14s $sys%-16s ${row(0)}%9d ${row(1)}%9d ${row(2)}%9d ${row(3)}%9d ${row(4)}%9d")
    }
    buildMsByDataset.foreach { case (ds, ms) =>
      println(f"  (one-time CHI build for $ds: ${ms} ms — excluded from query times, as in the paper)")
    }
    appendTsv(
      "table2_fig7.tsv",
      "dataset\tquery\tsystem\tmasks_loaded\tn_targeted\ttime_ms\tresult_size",
      runs.map(r => s"${r.dataset}\t${r.query}\t${r.system}\t${r.masksLoaded}\t${r.nTargeted}\t${r.timeMs}\t${r.resultSize}"),
    )
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

    def randRange(): (Double, Double) = {
      val lv = (1 + r.nextInt(8)) / 10.0
      val uv = (math.round(lv * 10).toInt + 1 + r.nextInt(9 - math.round(lv * 10).toInt)) / 10.0
      (lv, uv)
    }
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
      loaded.store.resetLoads()
      val res = FilterVerify.execute(m1, pred, loaded.store, loaded.chiBc)
      TypedQueryRun(bd.name, "Filter", res.stats.elapsedMs, res.stats.fml)
    }
    val topk = (0 until nPerType).map { _ =>
      val (lv, uv) = randRange()
      loaded.store.resetLoads()
      val res = TopK.masks(m1, CpExpr.term(ConstRoi(randRoi()), lv, uv), 25, r.nextBoolean(), loaded.store, loaded.chiBc)
      TypedQueryRun(bd.name, "Top-K", res.stats.elapsedMs, res.stats.fml)
    }
    val agg = (0 until nPerType).map { _ =>
      val (lv, uv) = randRange()
      val value = ScalarAggValue(AvgAgg, CpExpr.term(ConstRoi(randRoi()), lv, uv))
      loaded.store.resetLoads()
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

  def printFig8(runs: Seq[TypedQueryRun]): Unit = {
    println()
    println("== Figure 8 (as table): MaskSearch query-time distribution (ms) per query type ==")
    println(f"${"dataset"}%-14s ${"type"}%-12s ${"min"}%7s ${"p25"}%7s ${"median"}%7s ${"p75"}%7s ${"max"}%7s   ${"medFML"}%8s")
    for (ds <- runs.map(_.dataset).distinct; t <- Seq("Filter", "Top-K", "Aggregation")) {
      val sel = runs.filter(x => x.dataset == ds && x.qtype == t)
      val d = dist(sel.map(_.timeMs))
      val fmls = sel.map(_.fml).sorted
      println(f"$ds%-14s $t%-12s ${d.min}%7d ${d.p25}%7d ${d.median}%7d ${d.p75}%7d ${d.max}%7d   ${fmls(fmls.size / 2)}%8.4f")
    }
    appendTsv(
      "fig8.tsv",
      "dataset\tqtype\ttime_ms\tfml",
      runs.map(r => s"${r.dataset}\t${r.qtype}\t${r.timeMs}\t${r.fml}"),
    )
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

  /** §4.4 / Fig 9: query time vs fraction of masks loaded for Filter queries. */
  def runFig9(spark: SparkSession, loaded: BenchData.Loaded, nQueries: Int, seed: Long): (Seq[(Double, Long)], Double) = {
    val r = new scala.util.Random(seed)
    val m1 = loaded.catalog.filter("model_id = 1").cache()
    m1.count()
    val maskPixels = loaded.bd.ds.w.toLong * loaded.bd.ds.h
    val pts = (0 until nQueries).map { _ =>
      val pred = Workloads.randomFilterPredicate(r, maskPixels)
      loaded.store.resetLoads()
      val res = FilterVerify.execute(m1, pred, loaded.store, loaded.chiBc)
      (res.stats.fml, res.stats.elapsedMs)
    }
    (pts, pearson(pts.map(_._1), pts.map(_._2.toDouble)))
  }

  def printFig9(dataset: String, pts: Seq[(Double, Long)], r: Double): Unit = {
    println()
    println(s"== Figure 9 (as table): query time vs FML on $dataset ==")
    println(f"  Pearson r(FML, time) = $r%.3f over ${pts.size} Filter queries")
    val byBucket = pts.groupBy(p => (p._1 * 10).toInt / 10.0)
    byBucket.toSeq.sortBy(_._1).foreach { case (b, ps) =>
      println(f"  FML ∈ [$b%.1f, ${b + 0.1}%.1f): n=${ps.size}%3d  mean time ${ps.map(_._2).sum / ps.size}%6d ms")
    }
    appendTsv(s"fig9_$dataset.tsv", "fml\ttime_ms", pts.map(p => s"${p._1}\t${p._2}"))
  }

  // ---------------------------------------------------------------- Fig 10

  final case class BoundsRow(
      dataset: String,
      cfgLabel: String,
      indexRatio: Double,
      lv: Double,
      uv: Double,
      meanRelWidth: Double,
      fmlAtQ1: Double,
      fmlAtMedian: Double,
      fmlAtQ3: Double,
  )

  /** §4.4 / Fig 10: distribution of CHI bounds (and the FML they induce) for
    * a sample of masks, across index granularities and value ranges. The
    * object bounding box is the ROI, as in the paper.
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

    configs.flatMap { case (label, cfg) =>
      val reg = ChiRegistry.broadcast(spark, ChiRegistry.build(spark, sample, loaded.store, cfg))
      ranges.map { case (lv, uv) =>
        val rows = FilterVerify.boundsPerMask(sample, CpExpr.term(ObjectRoi, lv, uv), reg)
          .map { case (id, lo, hi) => (lo, hi, areas(id)) }
        // Exact values to place the example thresholds at the quartiles.
        val store = loaded.store
        val exacts = sample.as[CatalogRow].map { r =>
          val m = store.loadPath(r.path)
          m.cp(Roi(r.ox1, r.oy1, r.ox2, r.oy2), ValueRange(lv, uv)).toDouble
        }.collect().sorted
        def fmlAt(t: Double): Double =
          rows.count { case (lo, hi, _) => lo <= t && t < hi }.toDouble / rows.length
        val relWidths = rows.map { case (lo, hi, area) => (hi - lo) / math.max(1.0, area.toDouble) }
        BoundsRow(
          bd.name, label, cfg.sizeBytes(bd.ds.w, bd.ds.h).toDouble / (4.0 * bd.ds.w * bd.ds.h),
          lv, uv,
          relWidths.sum / relWidths.length,
          fmlAt(exacts((exacts.length * 0.25).toInt)),
          fmlAt(exacts(exacts.length / 2)),
          fmlAt(exacts((exacts.length * 0.75).toInt)),
        )
      }
    }
  }

  def printFig10(rows: Seq[BoundsRow]): Unit = {
    println()
    println("== Figure 10 (as table): CHI bound tightness and induced FML ==")
    println(f"${"dataset"}%-14s ${"index"}%-8s ${"size%"}%6s ${"(lv,uv)"}%-10s ${"relWidth"}%9s ${"FML@q1"}%8s ${"FML@med"}%8s ${"FML@q3"}%8s")
    rows.foreach { r =>
      println(f"${r.dataset}%-14s ${r.cfgLabel}%-8s ${r.indexRatio * 100}%5.1f%% (${r.lv}%.1f,${r.uv}%.1f)  ${r.meanRelWidth}%9.4f ${r.fmlAtQ1}%8.4f ${r.fmlAtMedian}%8.4f ${r.fmlAtQ3}%8.4f")
    }
    appendTsv(
      "fig10.tsv",
      "dataset\tcfg\tindex_ratio\tlv\tuv\tmean_rel_width\tfml_q1\tfml_med\tfml_q3",
      rows.map(r => s"${r.dataset}\t${r.cfgLabel}\t${r.indexRatio}\t${r.lv}\t${r.uv}\t${r.meanRelWidth}\t${r.fmlAtQ1}\t${r.fmlAtMedian}\t${r.fmlAtQ3}"),
    )
  }

  // ---------------------------------------------------------------- Fig 11

  final case class WorkloadCurves(
      dataset: String,
      pSeen: Double,
      nQueries: Int,
      cumScan: Seq[Long],
      cumMs: Seq[Long],   // index build charged before query 1
      cumMsii: Seq[Long],
  ) {
    def ratioMsiiOverMs: Seq[Double] =
      cumMsii.zip(cumMs).map { case (a, b) => a.toDouble / math.max(1L, b) }
  }

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
    val msSession = new IncrementalSession(spark, loaded.store, loaded.bd.cfg)
    msSession.preload(fullRegistry)
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

  def printFig11(curves: Seq[WorkloadCurves]): Unit = {
    println()
    println("== Figure 11 (as table): multi-query workloads — cumulative total time (ms) ==")
    curves.foreach { c =>
      val checkpoints = Seq(1, 5, 10, 20, c.nQueries).distinct.filter(_ <= c.nQueries)
      println(f"-- ${c.dataset} workload p_seen=${c.pSeen}%.1f (${c.nQueries} Filter queries) --")
      println(f"   ${"after query"}%-12s ${checkpoints.map(q => f"$q%8d").mkString}")
      def row(name: String, xs: Seq[Long]): Unit =
        println(f"   $name%-12s ${checkpoints.map(q => f"${xs(q - 1)}%8d").mkString}")
      row("Scan(NumPy)", c.cumScan)
      row("MS", c.cumMs)
      row("MS-II", c.cumMsii)
      val ratios = c.ratioMsiiOverMs
      println(f"   MS-II/MS ratio: peak ${ratios.max}%.2f at query ${ratios.indexOf(ratios.max) + 1}, final ${ratios.last}%.2f")
    }
    appendTsv(
      "fig11.tsv",
      "dataset\tp_seen\tquery\tcum_scan_ms\tcum_ms_ms\tcum_msii_ms",
      curves.flatMap(c => (0 until c.nQueries).map(i =>
        s"${c.dataset}\t${c.pSeen}\t${i + 1}\t${c.cumScan(i)}\t${c.cumMs(i)}\t${c.cumMsii(i)}")),
    )
  }
}
