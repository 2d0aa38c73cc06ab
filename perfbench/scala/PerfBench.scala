package perfbench

import java.io.{ObjectOutputStream, OutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.util.concurrent.Executors

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.control.NonFatal

import org.apache.spark.ListenerDrain
import org.apache.spark.sql.SparkSession

import repro.bench.{BenchData, BenchDataset}
import repro.core._
import repro.store.{DiskThrottle, MaskStore}

/** Settings of one benchmark process, passed by `perfbench/run.py`. */
final case class Config(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    dataDir: String,
    workDir: String,
    out: String,
    spansOut: String,
)

/** What one execution of one query produced. `answer` is the sorted mask ids
  * (filter queries) or the ordered ids (top-k); `stats` is present when the
  * engine reports [[QueryStats]].
  */
final case class Exec(
    kind: String,
    ms: Double,
    loads: Long,
    targeted: Long,
    stats: Option[QueryStats],
    unindexed: Long,
    answer: Array[Long],
    error: Option[String],
    group: String,
)

/** Named sample lists filled by the probes of the traced run. */
final class Samples {
  private val m = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  def add(name: String, v: Double): Unit = m.getOrElseUpdate(name, ArrayBuffer.empty) += v
  def toMap: Map[String, Seq[Double]] = m.map { case (k, v) => k -> v.toSeq }.toMap
}

object PerfBench {

  /** Seeds of the warm-up stream are derived from the run's seed, so the
    * warm-up never replays the timed inputs.
    */
  val WarmupSalt: Long = 0x5eedL * 1_000_003L

  /** Length of the warm-up stream, in the same nominal seconds as `--seconds`.
    * A fresh JVM keeps getting faster for about fifty imagenet-filter
    * queries; a shorter warm-up leaves that drift in the timed stream.
    */
  val WarmupSeconds: Double = 10.0

  /** Spark runs `local[nproc]` on the processors this JVM may use. */
  val nproc: Int = Runtime.getRuntime.availableProcessors()

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    opt("mode") match {
      case "prepare" => prepare(opt("data"), opt("work"))
      case "run" =>
        val cfg = Config(
          workload = opt("workload"),
          seed = opt("seed").toLong,
          seconds = opt("seconds").toDouble,
          trace = opt("trace") == "1",
          dataDir = opt("data"),
          workDir = opt("work"),
          out = opt("out"),
          spansOut = opt("spans"),
        )
        new Runner(cfg).run()
      case other => sys.error(s"unknown mode $other")
    }
  }

  /** The session settings of the repository's tests and jobs: 64 shuffle
    * partitions, broadcast joins off, UI off; local[nproc].
    */
  def session(workDir: String): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def datasetDir(dataDir: String, bd: BenchDataset): String = s"$dataDir/${bd.name}"

  /** Write the mask files of both lite datasets. They stand in for
    * externally produced saliency maps, so this is not part of any timing.
    */
  def prepare(dataDir: String, workDir: String): Unit = {
    val spark = session(workDir)
    try {
      DiskThrottle.setBandwidthMiBps(0)
      BenchData.all.foreach(bd => MaskStore.materialize(spark, bd.ds, datasetDir(dataDir, bd)))
    } finally spark.stop()
  }

  def nowNs: Long = System.nanoTime()
  def msSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Bytes of the Java-serialised object (what a broadcast ships). */
  def serializedBytes(o: AnyRef): Long = {
    var n = 0L
    val counter = new OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new ObjectOutputStream(counter)
    out.writeObject(o)
    out.close()
    n
  }

  /** Driver heap in use after a full collection, in MiB. */
  def heapMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc(); Thread.sleep(200); System.gc()
    (rt.totalMemory - rt.freeMemory) / 1048576.0
  }

  /** (lv, uv, T) of a single-term `CP(mask, object, (lv, uv)) > T` predicate. */
  def objectTerm(pred: Predicate): (Double, Double, Long) = pred match {
    case Predicate(CpTermExpr(CpTerm(ObjectRoi, ValueRange(lv, uv))), Gt, t) => (lv, uv, t.toLong)
    case other => sys.error(s"not an object-ROI filter predicate: $other")
  }

  /** The SQL spelling of a filter predicate over a registered view. */
  def sqlText(view: String, pred: Predicate): String = {
    val (lv, uv, t) = objectTerm(pred)
    s"SELECT mask_id FROM $view WHERE cp_mask(mask_id, path, ox1, oy1, ox2, oy2, $lv, $uv) > $t"
  }
}

/** The shape every workload gives the runner. */
trait Workload {
  type In

  def bd: BenchDataset

  /** The store whose load counter the timed queries move. */
  def store: MaskStore

  /** Timed set-up after the SparkSession exists. */
  def setup(spark: SparkSession): Unit

  /** The query stream of a seed. */
  def inputs(seed: Long): Iterator[In]

  /** How many queries of the stream a run of `seconds` executes: a fixed
    * count, sized from the seed code's query rate, so that every run of a
    * seed executes the same queries however fast the program is.
    */
  def queryCount(seconds: Double): Int

  /** Kind of a query ("filter", "sql", "incremental"). */
  def kind(in: In): String

  /** Run one query. `engine` 1 is the traced twin of engine 0; stateless
    * workloads use the same engine for both.
    */
  def execute(in: In, engine: Int): (Array[Long], Option[QueryStats], Long, Long)

  /** Called once after set-up, outside any timing: prepare an engine for
    * the warm-up stream, one that leaves the timed engine's state untouched,
    * and return its number.
    */
  def warmupEngine(): Int

  /** Drop the warm-up engine; in a traced run, prepare the twin engine. */
  def afterWarmup(traced: Boolean): Unit

  /** The scan baseline's answer, computed with `check` (its own counter). */
  def expected(in: In, check: MaskStore): Array[Long]

  /** Per-query probes of the traced run, after the traced execution `ex`. */
  def probe(in: In, ex: Exec, i: Int, p: Probes): Unit

  /** End-of-run probes of the traced run; returns the answers they checked
    * as (attempted, failed).
    */
  def endProbes(p: Probes): (Int, Int)

  /** (Java-serialised index bytes, raw bytes of the masks it indexes, indexed masks). */
  def indexSize(): (Long, Long, Long)

  /** Context entries specific to the workload. */
  def context: Map[String, Any]

  /** Registry build seconds and broadcast ms of the last set-up, if it built one. */
  def lastBuild: Option[(Double, Double)]
}

/** Runs the set-up, warm-up, timed stream, answer check and (traced) probes
  * of one workload, and writes the raw results as JSON for `run.py`.
  */
final class Runner(cfg: Config) {
  import PerfBench._

  private val trace = new Trace(cfg.trace)
  private val samples = new Samples

  private val workload: Workload = cfg.workload match {
    case "imagenet-filter"      => new FilterWorkload(cfg, trace)
    case "imagenet-incremental" => new IncrementalWorkload(cfg, trace)
    case other                  => sys.error(s"unknown workload $other")
  }

  private var spark: SparkSession = _

  def run(): Unit = {
    val t0 = nowNs
    spark = trace.span("setup") {
      val s = trace.span("setup.session")(session(cfg.workDir))
      DiskThrottle.setBandwidthMiBps(BenchData.DiskMiBps)
      workload.setup(s)
      s
    }
    val setupS = (nowNs - t0) / 1e9
    workload.lastBuild.foreach { case (b, ms) =>
      samples.add("registry.build_s", b); samples.add("registry.broadcast_ms", ms)
    }

    val phases = mutable.LinkedHashMap[String, Double]("setup_s" -> setupS)
    def phase[A](name: String)(body: => A): A = {
      val t = nowNs
      try body
      finally phases(name) = (nowNs - t) / 1e9
    }

    val counters = new SparkCounters
    if (cfg.trace) spark.sparkContext.addSparkListener(counters)

    // Warm-up: a stream from another seed, on an engine the timed stream does
    // not use.
    val warmEngine = workload.warmupEngine()
    val nWarm = workload.queryCount(WarmupSeconds)
    phase("warmup_s") {
      workload.inputs(cfg.seed ^ WarmupSalt).take(nWarm).zipWithIndex.foreach { case (in, i) =>
        runOne(in, warmEngine, s"w$i")
      }
    }
    workload.afterWarmup(cfg.trace)
    // Start the timed stream from a collected heap, not from whatever garbage
    // the set-up and warm-up left behind.
    heapMb()

    // Timed stream. Traced runs execute each query twice, untraced (engine 0)
    // and traced (engine 1) in alternating order, so the tracing overhead is
    // measured on identical inputs.
    val probes = new Probes(spark, trace, samples, MaskStore(spark, datasetDir(cfg.dataDir, workload.bd)), workload.bd)
    val inputs = workload.inputs(cfg.seed).take(workload.queryCount(cfg.seconds)).toIndexedSeq
    val untraced = ArrayBuffer.empty[Exec]
    val traced = ArrayBuffer.empty[Exec]
    phase("stream_s") {
      inputs.zipWithIndex.foreach { case (in, i) =>
        if (!cfg.trace) untraced += runOne(in, 0, s"u$i")
        else {
          def plain(): Unit = untraced += runOne(in, 0, s"u$i")
          def withSpans(): Unit = trace.query(i) {
            val ex = trace.span(s"engine.${workload.kind(in)}")(runOne(in, 1, s"t$i"))
            traced += ex
            unthrottled(workload.probe(in, ex, i, probes))
          }
          if (i % 2 == 0) { plain(); withSpans() } else { withSpans(); plain() }
        }
      }
    }

    // Answer check against the scan baseline: outside the timed region, with
    // the throttle off and a store of its own, so its loads count nowhere.
    // Baseline scans run a few at a time; each is an independent Spark job.
    val check = MaskStore(spark, datasetDir(cfg.dataDir, workload.bd))
    val pool = Executors.newFixedThreadPool(math.max(1, nproc - 1))
    val wanted = phase("check_s")(unthrottled(trace.span("check") {
      implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
      try Await.result(Future.traverse(inputs.indices.toVector) { i =>
        Future(Some(workload.expected(inputs(i), check))).recover { case NonFatal(e) =>
          Console.err.println(s"baseline failed on query $i: $e"); None
        }
      }, Duration.Inf)
      finally pool.shutdown()
    }))
    var attempted = 0
    var failed = 0
    val okFlags = inputs.indices.map { i =>
      val execs = Seq(untraced(i)) ++ (if (cfg.trace) Seq(traced(i)) else Nil)
      execs.map { ex =>
        val ok = ex.error.isEmpty && wanted(i).exists(_.sameElements(ex.answer))
        attempted += 1
        if (!ok) {
          failed += 1
          Console.err.println(s"query $i (${ex.kind}) wrong or failed: ${ex.error.getOrElse("answer differs from the scan baseline")}")
        }
        ok
      }
    }

    val heap = phase("heap_s")(trace.span("end.heap")(heapMb()))
    val (indexBytes, indexRaw, indexed) = phase("index_size_s")(trace.span("end.index_size")(workload.indexSize()))

    var layerCounts = Map.empty[String, (Long, Long, Long)]
    if (cfg.trace) {
      val (a, f) = phase("end_probes_s")(unthrottled(workload.endProbes(probes)))
      attempted += a
      failed += f
      spark.sparkContext.clearJobGroup()
      ListenerDrain.drain(spark.sparkContext)
      layerCounts = traced.map(ex => ex.group -> counters.of(ex.group)).toMap
      trace.write(Paths.get(cfg.spansOut))
    }

    def execJson(ex: Exec, ok: Boolean): Map[String, Any] = {
      val base = Map[String, Any](
        "kind" -> ex.kind, "ms" -> ex.ms, "loads" -> ex.loads, "targeted" -> ex.targeted,
        "unindexed" -> ex.unindexed, "answer_size" -> ex.answer.length, "ok" -> ok,
        "error" -> ex.error,
      )
      val st = ex.stats.map(s => Map[String, Any](
        "pruned" -> s.nPruned, "direct" -> s.nDirect, "uncertain" -> s.nUncertain)).getOrElse(Map.empty)
      val sp = layerCounts.get(ex.group).map { case (j, s, t) =>
        Map[String, Any]("jobs" -> j, "stages" -> s, "tasks" -> t)
      }.getOrElse(Map.empty)
      base ++ st ++ sp
    }

    val ds = workload.bd.ds
    val out = Map[String, Any](
      "context" -> (Map[String, Any](
        "workload" -> cfg.workload,
        "seed" -> cfg.seed,
        "warmup_seed" -> (cfg.seed ^ WarmupSalt),
        "run_seconds" -> cfg.seconds,
        "phase_seconds" -> phases.toMap,
        "warmup_queries" -> nWarm,
        "timed_queries" -> inputs.size,
        "traced" -> cfg.trace,
        "nproc" -> nproc,
        "driver_heap_max_mb" -> Runtime.getRuntime.maxMemory / 1048576,
        "spark_master" -> spark.sparkContext.master,
        "spark_version" -> spark.version,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "auto_broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "java_version" -> System.getProperty("java.version"),
        "throttle_mib_s" -> BenchData.DiskMiBps,
        "mask_file_bytes" -> (16L + 4L * ds.w * ds.h),
        "datasets" -> BenchData.all.map(b => Map[String, Any](
          "name" -> b.name, "images" -> b.ds.nImages, "models" -> b.ds.nModels, "masks" -> b.ds.nMasks,
          "w" -> b.ds.w, "h" -> b.ds.h, "seed" -> b.ds.seed,
          "chi" -> s"cell ${b.cfg.cellW}x${b.cfg.cellH}, bins ${b.cfg.bins}")),
      ) ++ workload.context),
      "setup_s" -> setupS,
      "untraced" -> untraced.indices.map(i => execJson(untraced(i), okFlags(i).head)),
      "traced" -> traced.indices.map(i => execJson(traced(i), okFlags(i).last)),
      "attempted" -> attempted,
      "failed" -> failed,
      "heap_mb" -> heap,
      "index_bytes" -> indexBytes,
      "index_raw_bytes" -> indexRaw,
      "indexed_masks" -> indexed,
      "samples" -> samples.toMap,
    )
    Files.createDirectories(Paths.get(cfg.out).getParent)
    Files.write(Paths.get(cfg.out), Json.render(out).getBytes(StandardCharsets.UTF_8))
    spark.stop()
  }

  /** Execute one query on an engine, timing it and counting its loads. */
  private def runOne(in: workload.In, engine: Int, group: String): Exec = {
    val sc = spark.sparkContext
    if (cfg.trace) sc.setJobGroup(group, group, interruptOnCancel = false)
    val loads0 = workload.store.loads.value
    val t0 = nowNs
    val res =
      try Right(workload.execute(in, engine))
      catch { case NonFatal(e) => Left(e.toString) }
    val ms = msSince(t0)
    val loads = workload.store.loads.value - loads0
    if (cfg.trace) sc.clearJobGroup()
    res match {
      case Right((answer, stats, targeted, unindexed)) =>
        Exec(workload.kind(in), ms, loads, targeted, stats, unindexed, answer, None, group)
      case Left(err) =>
        Exec(workload.kind(in), ms, loads, 0L, None, 0L, Array.empty, Some(err), group)
    }
  }

  private def unthrottled[A](body: => A): A = {
    DiskThrottle.setBandwidthMiBps(0)
    try body
    finally DiskThrottle.setBandwidthMiBps(BenchData.DiskMiBps)
  }
}
