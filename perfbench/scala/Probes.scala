package perfbench

import scala.util.Random

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baseline.ScanBaseline
import repro.bench.{BenchData, BenchDataset, Queries}
import repro.core._
import repro.store.{CatalogRow, DiskThrottle, MaskStore}

/** Per-layer probes of the traced run. Each replays a query's inputs through
  * one public layer function and records its cost as a sample; each runs
  * inside a `probe.*` span. Probe loads go through `probeStore`, whose
  * counter no reported metric reads, and run with the throttle off.
  */
final class Probes(
    spark: SparkSession,
    trace: Trace,
    samples: Samples,
    probeStore: MaskStore,
    bd: BenchDataset,
) {
  import PerfBench._

  /** Results of probed calls land here so the JIT cannot drop the calls. */
  @volatile var sink: Long = 0L

  def add(name: String, v: Double): Unit = samples.add(name, v)

  /** Mask I/O, exact CP, INTERSECT and CHI build on a sample of the query's
    * targeted masks.
    */
  def maskLayers(rows: Seq[CatalogRow], terms: Seq[CpTerm]): Unit = if (rows.nonEmpty) {
    val masks = trace.span("probe.store.load") {
      val t0 = nowNs
      val ms = rows.map(r => probeStore.loadPath(r.path))
      add("store.load_us", (nowNs - t0) / 1e3 / rows.size)
      ms
    }
    trace.span("probe.mask.cp") {
      var acc = 0L
      val t0 = nowNs
      masks.zip(rows).foreach { case (m, r) => terms.foreach(t => acc += m.cp(t.roi.resolve(r), t.range)) }
      add("mask.cp_us", (nowNs - t0) / 1e3 / (masks.size * terms.size))
      sink += acc
    }
    val pairs = masks.grouped(2).filter(_.size == 2).toSeq
    if (pairs.nonEmpty) trace.span("probe.mask.intersect") {
      var acc = 0L
      val t0 = nowNs
      pairs.foreach(p => acc += Mask.intersect(p).data.length)
      add("mask.intersect_us", (nowNs - t0) / 1e3 / pairs.size)
      sink += acc
    }
    trace.span("probe.chi.build") {
      var acc = 0L
      val t0 = nowNs
      masks.foreach(m => acc += ChiIndex.build(m, bd.cfg).counts.length)
      add("chi.build_us", (nowNs - t0) / 1e3 / masks.size)
      sink += acc
    }
  }

  /** CHI bound evaluation per (mask, term) and predicate classification per
    * row, on the driver, over rows the registry indexes.
    */
  def boundLayers(rows: Seq[CatalogRow], pred: Predicate, reg: ChiRegistry): Unit = {
    val indexed = rows.flatMap(r => reg.get(r.mask_id).map(idx => (r, idx)))
    if (indexed.nonEmpty) {
      val terms = pred.expr.terms
      trace.span("probe.chi.bounds") {
        var acc = 0L
        val t0 = nowNs
        indexed.foreach { case (r, idx) => terms.foreach(t => acc += idx.bounds(t.roi.resolve(r), t.range).upper) }
        add("chi.bounds_ns", (nowNs - t0).toDouble / (indexed.size * terms.size))
        sink += acc
      }
      trace.span("probe.predicate.classify") {
        var acc = 0L
        val t0 = nowNs
        indexed.foreach { case (r, _) => acc += pred.classifyRow(r, reg.get(r.mask_id)) }
        add("predicate.classify_ns", (nowNs - t0).toDouble / indexed.size)
        sink += acc
      }
    }
  }

  /** The filter stage alone: bounds for every targeted mask as a Spark job. */
  def filterStage(target: DataFrame, expr: CpExpr, bc: Broadcast[ChiRegistry]): Unit =
    trace.span("probe.engine.filter_stage") {
      val t0 = nowNs
      sink += FilterVerify.boundsPerMask(target, expr, bc).length
      add("engine.filter_stage_ms", msSince(t0))
    }

  /** Optimise a SQL query's plan and record whether the CHI rewrite fired. */
  def catalystPlan(df: DataFrame): Unit = trace.span("probe.catalyst.optimize") {
    val t0 = nowNs
    val plan = df.queryExecution.optimizedPlan
    add("catalyst.optimize_ms", msSince(t0))
    val text = plan.toString
    add("catalyst.rewrite_rate", if (text.contains("chi_lower") && text.contains("chi_upper")) 1.0 else 0.0)
  }

  /** Fixed Spark costs: a no-op job over nproc partitions, and collecting
    * the target catalog rows to the driver.
    */
  def sparkFixed(target: DataFrame): Unit = {
    val sc = spark.sparkContext
    trace.span("probe.spark.empty_job") {
      for (_ <- 0 until 10) {
        val t0 = nowNs
        sc.parallelize(0 until nproc, nproc).foreach(_ => ())
        add("spark.empty_job_ms", msSince(t0))
      }
    }
    trace.span("probe.spark.collect") {
      for (_ <- 0 until 5) {
        val t0 = nowNs
        sink += MaskStore.asRows(target).collect().length
        add("spark.collect_ms", msSince(t0))
      }
    }
  }

  /** The paper's Table 2 queries Q1–Q5 on one dataset (Q1–Q3 over the
    * model-1 masks `m1`, Q4–Q5 over the whole `catalog`), each answer checked
    * against the scan baseline. Returns (answers checked, answers wrong).
    */
  def table2(
      label: String,
      ds: BenchDataset,
      catalog: DataFrame,
      m1: DataFrame,
      store: MaskStore,
      bc: Broadcast[ChiRegistry],
      check: MaskStore,
  ): (Int, Int) = trace.span(s"probe.table2.$label") {
    var failed = 0
    val queries = Queries.forDataset(ds, Queries.paperSideFor(ds))
    queries.foreach { q =>
      val ok =
        try {
          val (loads, got, want) = q match {
            case Queries.FilterQuery(_, _, pred) =>
              val r = FilterVerify.execute(m1, pred, store, bc)
              (r.stats.masksLoaded, r.maskIds, ScanBaseline.filterMasks(m1, pred, check).maskIds)
            case Queries.TopKQuery(_, _, e, k, desc) =>
              val r = TopK.masks(m1, e, k, desc, store, bc)
              (r.stats.masksLoaded, r.maskIds, ScanBaseline.topKMasks(m1, e, k, desc, check).maskIds)
            case Queries.GroupTopKQuery(_, _, v, k, desc) =>
              val r = Aggregation.topKGroups(catalog, v, k, desc, store, bc)
              (r.stats.masksLoaded, r.groupIds, ScanBaseline.topKGroups(catalog, v, k, desc, check).groupIds)
          }
          add(s"table2.$label.${q.id.toLowerCase}_loads", loads.toDouble)
          got.sameElements(want)
        } catch {
          case scala.util.control.NonFatal(e) => Console.err.println(s"table2 $label ${q.id}: $e"); false
        }
      if (!ok) {
        failed += 1
        Console.err.println(s"table2 $label ${q.id}: answer differs from the scan baseline")
      }
    }
    (queries.size, failed)
  }

  /** Table 2 on a dataset whose registry the run has not built: materialise
    * its catalog, build and broadcast a fresh registry (recording the build
    * as a registry sample when `recordBuild`), then run [[table2]]. Called
    * with the throttle off.
    */
  def table2Fresh(label: String, ds: BenchDataset, dataDir: String, recordBuild: Boolean): (Int, Int) = {
    val dir = datasetDir(dataDir, ds)
    val (store, cat0) = MaskStore.materialize(spark, ds.ds, dir)
    val catalog = cat0.cache()
    catalog.count()
    val m1 = catalog.filter("model_id = 1").cache()
    m1.count()
    // The build reads at the simulated disk's rate, as it does in set-up.
    val t0 = nowNs
    val reg = trace.span(s"probe.table2.$label.build") {
      DiskThrottle.setBandwidthMiBps(BenchData.DiskMiBps)
      try ChiRegistry.buildWithAggregates(spark, catalog, store, ds.cfg)
      finally DiskThrottle.setBandwidthMiBps(0)
    }
    val buildS = (nowNs - t0) / 1e9
    val t1 = nowNs
    val bc = trace.span(s"probe.table2.$label.broadcast") {
      val b = ChiRegistry.broadcast(spark, reg)
      spark.sparkContext.parallelize(0 until nproc, nproc).map(_ => b.value.size).collect()
      b
    }
    if (recordBuild) {
      add("registry.build_s", buildS)
      add("registry.broadcast_ms", msSince(t1))
    }
    try table2(label, ds, catalog, m1, store, bc, MaskStore(spark, dir))
    finally {
      bc.destroy()
      m1.unpersist()
      catalog.unpersist()
    }
  }
}

object Probes {
  /** A deterministic sample of at most `n` elements. */
  def sample[A](xs: IndexedSeq[A], n: Int, seed: Long): IndexedSeq[A] =
    if (xs.size <= n) xs
    else new Random(seed).shuffle(xs.indices.toVector).take(n).sorted.map(xs)
}
