package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.store.MaskStore

/** The CHI of a whole dataset, under one shared [[ChiConfig]]: the per-mask
  * indexes in one [[ChiSlab]] keyed by `mask_id`, and the indexes of the
  * per-image INTERSECT masks (§3.4) in a second one keyed by `image_id`.
  *
  * When a MaskSearch session starts the registry is loaded (or built) once and
  * held in memory for the session (§3.2.1). Engines classify on the driver
  * against it; the SQL path broadcasts it to executors, where the rewritten
  * filter reads bounds row by row. Two slabs of counts and their slot tables
  * are all a broadcast ships.
  */
final class ChiRegistry(val cfg: ChiConfig, val masks: ChiSlab, val aggregates: ChiSlab) extends Serializable {
  require(masks.cfg == cfg && aggregates.cfg == cfg, s"slabs of ${masks.cfg} and ${aggregates.cfg} in a registry of $cfg")

  def get(maskId: Long): Option[ChiIndex] = masks.get(maskId)
  def contains(maskId: Long): Boolean = masks.contains(maskId)

  /** The index of the INTERSECT of image `imageId`'s masks. */
  def aggregate(imageId: Long): Option[ChiIndex] = aggregates.get(imageId)

  /** Number of indexes held: masks and aggregated masks. */
  def size: Int = masks.size + aggregates.size
  def totalBytes: Long = masks.bytes + aggregates.bytes

  /** A copy extended with additional per-mask indexes (incremental indexing).
    * Each must have been built with this registry's config, and be new to it.
    */
  def ++(more: Iterable[ChiIndex]): ChiRegistry =
    new ChiRegistry(cfg, masks.append(Seq(ChiSlab.pack(cfg, more.map(i => i.maskId -> i)))), aggregates)
}

object ChiRegistry {

  /** Persisted registries store the index of image `i`'s INTERSECT mask under
    * `mask_id = AggIdBase + i` (§3.4: "the index for the aggregated masks is
    * ... built ahead of time").
    */
  private[core] val AggIdBase: Long = 1L << 40

  def empty(cfg: ChiConfig): ChiRegistry = new ChiRegistry(cfg, ChiSlab.empty(cfg), ChiSlab.empty(cfg))

  /** Build the CHI for every mask in `catalog`: each task loads its masks
    * from the store, computes their indexes (O(w·h) per mask, §3.1) and
    * returns them packed in one array. Index-build loads go through the store
    * and are therefore counted by its accumulator — benchmarks reset the
    * counter after the build so per-query numbers match the paper's Table 2
    * semantics ("masks loaded during query execution").
    */
  def build(spark: SparkSession, catalog: DataFrame, store: MaskStore, cfg: ChiConfig): ChiRegistry = {
    val pieces = Units.masks(catalog, hold = false).slices { units =>
      ChiSlab.pack(cfg, units.map { case (id, rows) => id -> ChiIndex.build(store.loadRow(rows.head), cfg) }.toSeq)
    }
    new ChiRegistry(cfg, ChiSlab.empty(cfg).append(pieces.toSeq), ChiSlab.empty(cfg))
  }

  /** Like [[build]], but additionally indexes the per-image INTERSECT
    * (pixel-wise minimum) aggregated mask under its `image_id`, loading each
    * mask only once per group. Used by mask-aggregation queries (the paper's
    * Q5) so their filter stage has first-class bounds. The groups are built
    * in parallel over [[Units.images]].
    */
  def buildWithAggregates(
      spark: SparkSession,
      catalog: DataFrame,
      store: MaskStore,
      cfg: ChiConfig,
  ): ChiRegistry = {
    val pieces = Units.images(catalog, hold = false).slices { units =>
      val built = units.map { case (img, rows) =>
        val ms = rows.map(store.loadRow)
        (ms.map(m => m.id -> ChiIndex.build(m, cfg)), img -> ChiIndex.build(Mask.intersect(ms), cfg))
      }.toSeq
      (ChiSlab.pack(cfg, built.flatMap(_._1)), ChiSlab.pack(cfg, built.map(_._2)))
    }
    new ChiRegistry(cfg, ChiSlab.empty(cfg).append(pieces.map(_._1).toSeq), ChiSlab.empty(cfg).append(pieces.map(_._2).toSeq))
  }

  /** Version of the value-to-bin rule ([[ChiConfig.binOf]]) that persisted
    * counts were built with. Registries saved before the rule was defined
    * once in [[ChiConfig]] have no `binning` column: their counts put some
    * boundary values one bin too high, so [[load]] rejects them.
    */
  val BinningVersion: Int = 2

  /** Persist a registry as Parquet (`mask_id, w, h, counts` + config and
    * `binning` columns, aggregated masks under `AggIdBase + image_id`) — the
    * paper's "persisted to disk for future sessions" (§3.6). Counts are written as `int` whatever their width in
    * memory, so the format does not depend on it.
    */
  def save(spark: SparkSession, registry: ChiRegistry, path: String): Unit = {
    import spark.implicits._
    val cfg = registry.cfg
    (registry.masks.indexes.map(i => i.maskId -> i) ++ registry.aggregates.indexes.map(i => (AggIdBase + i.maskId) -> i))
      .map { case (id, i) => (id, i.w, i.h, cfg.cellW, cfg.cellH, cfg.bins, BinningVersion, i.wideCounts) }
      .toSeq
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
    val (aggs, masks) = rows.sortBy(_._1).map { case (id, w, h, _, _, _, _, c) => id -> ChiIndex.fromCounts(id, w, h, cfg, c) }
      .partition(_._1 >= AggIdBase)
    def slab(indexes: Seq[(Long, ChiIndex)]) = ChiSlab.empty(cfg).append(Seq(ChiSlab.pack(cfg, indexes)))
    new ChiRegistry(cfg, slab(masks.toSeq), slab(aggs.toSeq.map { case (id, i) => (id - AggIdBase) -> i }))
  }

  /** Broadcast the registry to executors (the SQL path's bound expressions read it there). */
  def broadcast(spark: SparkSession, registry: ChiRegistry): Broadcast[ChiRegistry] =
    spark.sparkContext.broadcast(registry)
}
