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
  * filter reads bounds row by row from the mask slab. In memory each index
  * holds the words its bins' widths need ([[ChiIndex]]): on ImageNet-lite,
  * 375 B per 56×56 mask index and 279 B per INTERSECT index on average,
  * against at most 672 B ([[ChiConfig.sizeBytes]]); [[totalBytes]] sums
  * them. A broadcast ships the two slabs as their per-cell counts, each at
  * the bit length of its cell's count one bin below ([[CellCounts]]: 105 B
  * per such mask index and 64 B per INTERSECT index), their slot tables and
  * the aggregates' members.
  */
final class ChiRegistry(val cfg: ChiConfig, val masks: ChiSlab, val aggregates: ChiSlab) extends Serializable {
  require(masks.cfg == cfg && aggregates.cfg == cfg, s"slabs of ${masks.cfg} and ${aggregates.cfg} in a registry of $cfg")

  def get(maskId: Long): Option[ChiIndex] = masks.get(maskId)
  def contains(maskId: Long): Boolean = masks.contains(maskId)

  /** Number of indexes held: masks and aggregated masks. */
  def size: Int = masks.size + aggregates.size

  /** Bytes of the words the indexes hold ([[ChiSlab.bytes]]), at most [[ChiConfig.sizeBytes]] per index. */
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
    * (pixel-wise minimum) aggregated mask under its `image_id`, with the ids
    * of the masks it intersects, loading each mask only once per group. Used
    * by mask-aggregation queries (the paper's Q5) so their filter stage has
    * first-class bounds for units of exactly those masks. The groups are
    * built in parallel over [[Units.images]].
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
        (ms.map(m => m.id -> ChiIndex.build(m, cfg)), img -> ChiIndex.build(Mask.intersect(ms), cfg), ms.map(_.id))
      }.toSeq
      (ChiSlab.pack(cfg, built.flatMap(_._1)), ChiSlab.pack(cfg, built.map(_._2), built.map(_._3)))
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
    * `binning` columns, aggregated masks under `AggIdBase + image_id` with
    * the ids of the masks they intersect in `members`, null on mask rows) —
    * the paper's "persisted to disk for future sessions" (§3.6). Counts are
    * written as `int`, bin 0 included ([[ChiIndex.wideCounts]]), whatever
    * their packing in memory, so the format does not depend on it.
    */
  def save(spark: SparkSession, registry: ChiRegistry, path: String): Unit = {
    import spark.implicits._
    val cfg = registry.cfg
    val aggs = registry.aggregates
    (registry.masks.indexes.map(i => (i.maskId, i, Option.empty[Array[Long]])) ++
      aggs.indexes.map(i => (AggIdBase + i.maskId, i, aggs.membersOf(i.maskId).map(_.toArray))))
      .map { case (id, i, members) => (id, i.w, i.h, cfg.cellW, cfg.cellH, cfg.bins, BinningVersion, i.wideCounts, members) }
      .toSeq
      .toDF("mask_id", "w", "h", "cell_w", "cell_h", "bins", "binning", "counts", "members")
      .write.mode("overwrite").parquet(path)
  }

  /** True iff the registry persisted at `path` carries a binning version and
    * aggregate members, i.e. was saved since the value-to-bin rule was
    * defined once and aggregates record the masks they were built from.
    */
  def isCurrent(spark: SparkSession, path: String): Boolean = {
    val columns = spark.read.parquet(path).columns
    columns.contains("binning") && columns.contains("members")
  }

  /** Load a previously persisted registry. Fails unless every row has the
    * current binning version and the same config, every aggregate row names
    * its members, and every index has the number of counts its shape and
    * config give, each in [0, w·h], that some mask can have
    * ([[ChiIndex.fromCounts]]).
    */
  def load(spark: SparkSession, path: String): ChiRegistry = {
    import spark.implicits._
    val table = spark.read.parquet(path)
    require(table.columns.contains("binning"),
      s"CHI registry at $path has no binning version: it was built with an older value-to-bin rule; rebuild it")
    val withMembers =
      if (table.columns.contains("members")) table
      else table.withColumn("members", org.apache.spark.sql.functions.lit(null).cast("array<bigint>"))
    val rows = withMembers
      .select("mask_id", "w", "h", "cell_w", "cell_h", "bins", "binning", "counts", "members")
      .as[(Long, Int, Int, Int, Int, Int, Int, Array[Int], Option[Array[Long]])]
      .collect()
    require(rows.nonEmpty, s"empty CHI registry at $path")
    val versions = rows.map(_._7).distinct
    require(versions.sameElements(Seq(BinningVersion)),
      s"CHI registry at $path has binning version ${versions.mkString(", ")}, expected $BinningVersion; rebuild it")
    val cfgs = rows.map(r => ChiConfig(r._4, r._5, r._6)).distinct
    require(cfgs.length == 1, s"CHI registry at $path mixes configs ${cfgs.mkString(", ")}")
    val cfg = cfgs.head
    val (aggs, masks) = rows.sortBy(_._1).partition(_._1 >= AggIdBase)
    def indexes(rs: Array[(Long, Int, Int, Int, Int, Int, Int, Array[Int], Option[Array[Long]])], key: Long => Long) =
      rs.toSeq.map { case (id, w, h, _, _, _, _, c, _) => key(id) -> ChiIndex.fromCounts(key(id), w, h, cfg, c) }
    val members = aggs.map { r =>
      r._9.filter(_.nonEmpty).getOrElse(throw new IllegalArgumentException(
        s"CHI registry at $path: the aggregate of image ${r._1 - AggIdBase} names no members; rebuild it"))
    }
    new ChiRegistry(cfg,
      ChiSlab.empty(cfg).append(Seq(ChiSlab.pack(cfg, indexes(masks, identity)))),
      ChiSlab.empty(cfg).append(Seq(ChiSlab.pack(cfg, indexes(aggs, _ - AggIdBase), members.map(_.toSeq)))))
  }

  /** Broadcast the registry to executors (the SQL path's bound expressions read it there). */
  def broadcast(spark: SparkSession, registry: ChiRegistry): Broadcast[ChiRegistry] =
    spark.sparkContext.broadcast(registry)
}
