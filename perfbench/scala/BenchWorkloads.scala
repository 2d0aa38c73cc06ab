package perfbench

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baseline.ScanBaseline
import repro.bench.{BenchData, BenchDataset}
import repro.catalyst.MaskSearchSession
import repro.core._
import repro.store.{CatalogRow, MaskStore}
import repro.workload.{WorkloadQuery, Workloads}

/** One query of imagenet-filter: a predicate and the path it takes. */
final case class FilterIn(kind: String, pred: Predicate)

/** imagenet-filter: §4.3 random Filter predicates (`roi = object`) over the
  * 20,000 model-1 masks of ImageNet-lite with the full CHI built,
  * alternating between `FilterVerify.execute` and the same predicate issued
  * as SQL `cp_mask(...) > T` with `ChiPushdownRule` on. Most queries resolve
  * from bounds, so time goes to bound evaluation, the filter-stage Spark
  * job, collecting rows and the Catalyst rewrite.
  */
final class FilterWorkload(cfg: Config, trace: Trace) extends Workload {
  import PerfBench._

  type In = FilterIn

  val bd: BenchDataset = BenchData.imagenet
  private val View = "masks_model1"

  var store: MaskStore = _
  private var spark: SparkSession = _
  private var catalog: DataFrame = _
  private var target: DataFrame = _
  private var nTarget = 0L
  private var registry: ChiRegistry = _
  private var bc: Broadcast[ChiRegistry] = _
  private var build: Option[(Double, Double)] = None
  private var targetRows: IndexedSeq[CatalogRow] = IndexedSeq.empty
  private var unindexed = 0L

  def setup(s: SparkSession): Unit = {
    spark = s
    trace.span("setup.catalog") {
      val (st, cat0) = MaskStore.materialize(s, bd.ds, datasetDir(cfg.dataDir, bd))
      store = st
      catalog = cat0.cache()
      catalog.count()
      target = catalog.filter("model_id = 1").cache()
      nTarget = target.count()
      target.createOrReplaceTempView(View)
    }
    val t0 = nowNs
    registry = trace.span("setup.registry.build")(ChiRegistry.buildWithAggregates(s, catalog, store, bd.cfg))
    val buildS = (nowNs - t0) / 1e9
    val t1 = nowNs
    bc = trace.span("setup.registry.broadcast") {
      val b = ChiRegistry.broadcast(s, registry)
      s.sparkContext.parallelize(0 until nproc, nproc).map(_ => b.value.size).collect()
      b
    }
    build = Some((buildS, msSince(t1)))
    MaskSearchSession.registerFunctions(s, store)
    MaskSearchSession.enableRule(s, bc)
  }

  def lastBuild: Option[(Double, Double)] = build

  def inputs(seed: Long): Iterator[FilterIn] = {
    val r = new Random(seed)
    val pixels = bd.ds.w.toLong * bd.ds.h
    Iterator.from(0).map { i =>
      FilterIn(if (i % 2 == 0) "filter" else "sql", Workloads.randomFilterPredicate(r, pixels))
    }
  }

  /** The seed code's rate is about five queries a second. */
  def queryCount(seconds: Double): Int = math.max(1, math.round(seconds * 5.0).toInt)

  def kind(in: FilterIn): String = in.kind

  def execute(in: FilterIn, engine: Int): (Array[Long], Option[QueryStats], Long, Long) = in.kind match {
    case "filter" =>
      val r = FilterVerify.execute(target, in.pred, store, bc)
      (r.maskIds, Some(r.stats), r.stats.nTargeted, unindexed)
    case _ =>
      val ids = spark.sql(sqlText(View, in.pred)).collect().map(_.getLong(0)).sorted
      (ids, None, nTarget, unindexed)
  }

  def warmupEngine(): Int = {
    targetRows = MaskStore.asRows(target).collect().toIndexedSeq
    unindexed = targetRows.count(r => !registry.contains(r.mask_id)).toLong
    0
  }

  def afterWarmup(traced: Boolean): Unit = ()

  def expected(in: FilterIn, check: MaskStore): Array[Long] =
    ScanBaseline.filterMasks(target, in.pred, check).maskIds

  def probe(in: FilterIn, ex: Exec, i: Int, p: Probes): Unit = {
    p.maskLayers(Probes.sample(targetRows, 256, cfg.seed * 7919L + i), in.pred.expr.terms)
    p.boundLayers(Probes.sample(targetRows, 2000, cfg.seed * 7907L + i), in.pred, registry)
    p.filterStage(target, in.pred.expr, bc)
    if (in.kind == "sql") {
      p.catalystPlan(spark.sql(sqlText(View, in.pred)))
      p.add("catalyst.loads_per_query", ex.loads.toDouble)
    }
  }

  def endProbes(p: Probes): (Int, Int) = {
    p.sparkFixed(target)
    val check = MaskStore(spark, datasetDir(cfg.dataDir, bd))
    val (a1, f1) = p.table2("imagenet", bd, catalog, target, store, bc, check)
    val (a2, f2) = p.table2Fresh("wilds", BenchData.wilds, cfg.dataDir, recordBuild = false)
    (a1 + a2, f1 + f2)
  }

  def indexSize(): (Long, Long, Long) = (serializedBytes(registry), bd.rawBytes, registry.size.toLong)

  def context: Map[String, Any] = Map(
    "dataset" -> bd.name,
    "target" -> "model_id = 1",
    "target_masks" -> nTarget,
    "query_mix" -> "alternating FilterVerify.execute / SQL cp_mask(...) > T with ChiPushdownRule",
    "predicates" -> "Workloads.randomFilterPredicate, roi = object",
    "index" -> "ChiRegistry.buildWithAggregates, fresh each set-up",
  )
}

/** One query of imagenet-incremental; `first` starts a new episode. */
final case class EpisodeQuery(first: Boolean, q: WorkloadQuery)

/** imagenet-incremental: the paper's Workload 3 (p_seen = 0.8) over all
  * 40,000 ImageNet-lite masks on an `IncrementalSession` that starts empty.
  * Every query loads and indexes its unseen masks and classifies the rest on
  * the driver: the write path beside the reads.
  *
  * After about twenty queries every mask is indexed and queries stop
  * writing, so the stream is a sequence of episodes of [[EpisodeQueries]]
  * queries (the length the Figure 11 job uses on ImageNet-lite), each
  * generated from its own seed and run on a session that starts empty.
  */
final class IncrementalWorkload(cfg: Config, trace: Trace) extends Workload {
  import PerfBench._

  type In = EpisodeQuery

  val bd: BenchDataset = BenchData.imagenet
  val PSeen = 0.8
  val EpisodeQueries = 15

  private val View = "masks_target"
  private val WarmupEngine = 2

  var store: MaskStore = _
  private var spark: SparkSession = _
  private var catalog: DataFrame = _
  private var rows: IndexedSeq[CatalogRow] = IndexedSeq.empty
  private val sessions = mutable.Map.empty[Int, IncrementalSession]
  private val recent = mutable.Queue.empty[WorkloadQuery]

  def setup(s: SparkSession): Unit = {
    spark = s
    trace.span("setup.catalog") {
      val (st, cat0) = MaskStore.materialize(s, bd.ds, datasetDir(cfg.dataDir, bd))
      store = st
      catalog = cat0.cache()
      catalog.count()
      rows = MaskStore.asRows(catalog).collect().sortBy(_.mask_id).toIndexedSeq
    }
    sessions.clear()
    sessions(0) = new IncrementalSession(s, store, bd.cfg)
  }

  def lastBuild: Option[(Double, Double)] = None

  def inputs(seed: Long): Iterator[EpisodeQuery] =
    Iterator.from(0).flatMap { e =>
      Workloads.generate(rows, EpisodeQueries, PSeen, seed * 1_000_003L + e).iterator.zipWithIndex.map {
        case (q, i) => EpisodeQuery(i == 0, q)
      }
    }

  /** Whole episodes at the seed code's rate of about three queries a second. */
  def queryCount(seconds: Double): Int =
    EpisodeQueries * math.max(1, math.ceil(seconds * 3.0 / EpisodeQueries).toInt)

  def kind(in: EpisodeQuery): String = "incremental"

  def execute(in: EpisodeQuery, engine: Int): (Array[Long], Option[QueryStats], Long, Long) = {
    if (in.first) sessions(engine) = new IncrementalSession(spark, store, bd.cfg)
    val session = sessions(engine)
    val before = session.indexedCount
    val r = session.runFilter(in.q.target, in.q.pred)
    if (engine == 0) {
      recent.enqueue(in.q)
      if (recent.size > 3) recent.dequeue()
    }
    (r.maskIds, Some(r.stats), in.q.target.size.toLong, (session.indexedCount - before).toLong)
  }

  def warmupEngine(): Int = {
    sessions(WarmupEngine) = new IncrementalSession(spark, store, bd.cfg)
    WarmupEngine
  }

  def afterWarmup(traced: Boolean): Unit = {
    sessions.remove(WarmupEngine)
    if (traced) sessions(1) = new IncrementalSession(spark, store, bd.cfg)
  }

  def expected(in: EpisodeQuery, check: MaskStore): Array[Long] =
    ScanBaseline.filterMasks(spark.createDataFrame(in.q.target), in.q.pred, check).maskIds

  def probe(in: EpisodeQuery, ex: Exec, i: Int, p: Probes): Unit = {
    p.maskLayers(Probes.sample(in.q.target, 256, cfg.seed * 7919L + i), in.q.pred.expr.terms)
    p.boundLayers(Probes.sample(in.q.target, 2000, cfg.seed * 7907L + i), in.q.pred, sessions(1).snapshot)
  }

  /** The filter stage and the SQL path have no place in an incremental
    * session, so they are probed once at the end on the last queries'
    * targets with the session's final index.
    */
  def endProbes(p: Probes): (Int, Int) = {
    val check = MaskStore(spark, datasetDir(cfg.dataDir, bd))
    val bc = ChiRegistry.broadcast(spark, sessions(0).snapshot)
    MaskSearchSession.registerFunctions(spark, store)
    MaskSearchSession.enableRule(spark, bc)
    var failed = 0
    try recent.foreach { q =>
      val df = spark.createDataFrame(q.target).cache()
      df.count()
      df.createOrReplaceTempView(View)
      p.filterStage(df, q.pred.expr, bc)
      p.catalystPlan(spark.sql(sqlText(View, q.pred)))
      val loads0 = store.loads.value
      val got = spark.sql(sqlText(View, q.pred)).collect().map(_.getLong(0)).sorted
      p.add("catalyst.loads_per_query", (store.loads.value - loads0).toDouble)
      if (!got.sameElements(expected(EpisodeQuery(first = false, q), check))) {
        failed += 1
        Console.err.println("SQL probe: answer differs from the scan baseline")
      }
      df.unpersist()
    } finally {
      MaskSearchSession.disableRule(spark)
      bc.destroy()
    }
    p.sparkFixed(catalog)
    val (a1, f1) = p.table2Fresh("imagenet", bd, cfg.dataDir, recordBuild = true)
    val (a2, f2) = p.table2Fresh("wilds", BenchData.wilds, cfg.dataDir, recordBuild = false)
    (recent.size + a1 + a2, failed + f1 + f2)
  }

  def indexSize(): (Long, Long, Long) = {
    val snap = sessions(0).snapshot
    (serializedBytes(snap), snap.size.toLong * 4L * bd.ds.w * bd.ds.h, snap.size.toLong)
  }

  def context: Map[String, Any] = Map(
    "dataset" -> bd.name,
    "target" -> "all masks",
    "p_seen" -> PSeen,
    "episode_queries" -> EpisodeQueries,
    "predicates" -> "Workloads.generate (randomFilterPredicate, roi = object)",
    "index" -> "IncrementalSession, empty at the start of every episode",
  )
}
