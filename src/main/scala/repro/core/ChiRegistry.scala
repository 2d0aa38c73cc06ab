package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.store.MaskStore

/** The CHI of a whole dataset: `mask_id → ChiIndex`, one shared [[ChiConfig]].
  *
  * When a MaskSearch session starts the registry is loaded (or built) once and
  * held in memory for the session (§3.2.1); engines broadcast it to executors
  * so the filter stage can run as a distributed DataFrame scan over the
  * catalog without touching mask files.
  */
final class ChiRegistry(val cfg: ChiConfig, val indexes: Map[Long, ChiIndex]) extends Serializable {
  def get(maskId: Long): Option[ChiIndex] = indexes.get(maskId)
  def contains(maskId: Long): Boolean = indexes.contains(maskId)
  def size: Int = indexes.size
  def totalBytes: Long = indexes.valuesIterator.map(_.sizeBytes).sum

  /** A copy extended with additional indexes (incremental indexing, and the
    * one step that assembles a built registry). Each must have been built
    * with this registry's config, and is pointed at this `cfg` instance:
    * indexes built in tasks arrive with a copy of the config per task.
    */
  def ++(more: Iterable[ChiIndex]): ChiRegistry =
    new ChiRegistry(cfg, indexes ++ more.map { i =>
      require(i.cfg == cfg, s"CHI of mask ${i.maskId} was built with ${i.cfg}, not the registry's $cfg")
      i.maskId -> (if (i.cfg eq cfg) i else new ChiIndex(i.maskId, i.w, i.h, cfg, i.counts, i.high))
    })
}

object ChiRegistry {

  /** Registry ids at or above this base index *aggregated* masks: the CHI of
    * `INTERSECT(masks of image i)` is stored under `AggIdBase + i` (§3.4:
    * "the index for the aggregated masks is ... built ahead of time").
    */
  val AggIdBase: Long = 1L << 40

  def empty(cfg: ChiConfig): ChiRegistry = new ChiRegistry(cfg, Map.empty)

  /** Build the CHI for every mask in `catalog` in one pass over it: each
    * task loads its masks from the store and computes their indexes (O(w·h)
    * per mask, §3.1). Index-build loads go through the store and are
    * therefore counted by its accumulator — benchmarks reset the counter
    * after the build so per-query numbers match the paper's Table 2
    * semantics ("masks loaded during query execution").
    */
  def build(spark: SparkSession, catalog: DataFrame, store: MaskStore, cfg: ChiConfig): ChiRegistry =
    empty(cfg) ++ Units.masks(catalog).map((_, rows) => ChiIndex.build(store.loadPath(rows.head.path), cfg))

  /** Like [[build]], but additionally indexes the per-image INTERSECT
    * (pixel-wise minimum) aggregated mask under `AggIdBase + image_id`,
    * loading each mask only once per group. Used by mask-aggregation queries
    * (the paper's Q5) so their filter stage has first-class bounds. The
    * groups are built in parallel over [[Units.images]].
    */
  def buildWithAggregates(
      spark: SparkSession,
      catalog: DataFrame,
      store: MaskStore,
      cfg: ChiConfig,
  ): ChiRegistry = {
    val built = Units.images(catalog).map { (img, rows) =>
      val masks = rows.map(r => store.loadPath(r.path))
      masks.map(m => ChiIndex.build(m, cfg)) :+ ChiIndex.build(Mask.intersect(masks).copy(id = AggIdBase + img), cfg)
    }
    empty(cfg) ++ built.toSeq.flatten
  }

  /** Version of the value-to-bin rule ([[ChiConfig.binOf]]) that persisted
    * counts were built with. Registries saved before the rule was defined
    * once in [[ChiConfig]] have no `binning` column: their counts put some
    * boundary values one bin too high, so [[load]] rejects them.
    */
  val BinningVersion: Int = 2

  /** Persist a registry as Parquet (`mask_id, w, h, counts` + config and
    * `binning` columns) — the paper's "persisted to disk for future
    * sessions" (§3.6). Counts are written as `int` whatever their width in
    * memory, so the format does not depend on it.
    */
  def save(spark: SparkSession, registry: ChiRegistry, path: String): Unit = {
    import spark.implicits._
    val cfg = registry.cfg
    registry.indexes.values.toSeq
      .map(i => (i.maskId, i.w, i.h, cfg.cellW, cfg.cellH, cfg.bins, BinningVersion, i.wideCounts))
      .toDF("mask_id", "w", "h", "cell_w", "cell_h", "bins", "binning", "counts")
      .write.mode("overwrite").parquet(path)
  }

  /** True iff the registry persisted at `path` carries a binning version,
    * i.e. was saved since the value-to-bin rule was defined once.
    */
  def isCurrent(spark: SparkSession, path: String): Boolean =
    spark.read.parquet(path).columns.contains("binning")

  /** Load a previously persisted registry. Fails unless every row has the
    * current binning version and the same config, and every index has the
    * number of counts its shape and config give, each in [0, w·h]
    * ([[ChiIndex.fromCounts]]).
    */
  def load(spark: SparkSession, path: String): ChiRegistry = {
    import spark.implicits._
    require(isCurrent(spark, path),
      s"CHI registry at $path has no binning version: it was built with an older value-to-bin rule; rebuild it")
    val rows = spark.read.parquet(path)
      .select("mask_id", "w", "h", "cell_w", "cell_h", "bins", "binning", "counts")
      .as[(Long, Int, Int, Int, Int, Int, Int, Array[Int])]
      .collect()
    require(rows.nonEmpty, s"empty CHI registry at $path")
    val versions = rows.map(_._7).distinct
    require(versions.sameElements(Seq(BinningVersion)),
      s"CHI registry at $path has binning version ${versions.mkString(", ")}, expected $BinningVersion; rebuild it")
    val cfgs = rows.map(r => ChiConfig(r._4, r._5, r._6)).distinct
    require(cfgs.length == 1, s"CHI registry at $path mixes configs ${cfgs.mkString(", ")}")
    val cfg = cfgs.head
    new ChiRegistry(cfg, rows.map { case (id, w, h, _, _, _, _, c) => id -> ChiIndex.fromCounts(id, w, h, cfg, c) }.toMap)
  }

  /** Broadcast helper. */
  def broadcast(spark: SparkSession, registry: ChiRegistry): Broadcast[ChiRegistry] =
    spark.sparkContext.broadcast(registry)
}
