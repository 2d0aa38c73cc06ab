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
  * them. A broadcast ships each slab as one stream ([[CellCounts]]): its
  * keys, the aggregates' members, and its per-cell counts in a
  * context-adaptive exp-Golomb code, 84 B per such mask index with its key
  * (109 B in the bounded-integer code); [[ChiRegistry.save]] writes the same
  * streams.
  */
final class ChiRegistry(val cfg: ChiConfig, val masks: ChiSlab, val aggregates: ChiSlab) extends Serializable {
  require(masks.cfg == cfg && aggregates.cfg == cfg, s"slabs of ${masks.cfg} and ${aggregates.cfg} in a registry of $cfg")

  def get(maskId: Long): Option[ChiIndex] = masks.get(maskId)
  def contains(maskId: Long): Boolean = masks.contains(maskId)

  /** Number of indexes held: masks and aggregated masks. */
  def size: Int = masks.size + aggregates.size

  /** Bytes of the words the indexes hold ([[ChiSlab.bytes]]), at most [[ChiConfig.sizeBytes]] per index. */
  def totalBytes: Long = masks.bytes + aggregates.bytes
}

object ChiRegistry {

  def empty(cfg: ChiConfig): ChiRegistry = new ChiRegistry(cfg, ChiSlab.empty(cfg), ChiSlab.empty(cfg))

  /** Build the CHI for every mask in `catalog`: each task loads its masks
    * from the store, computes their indexes (O(w·h) per mask, §3.1) and
    * returns them as one slab ([[ChiSlab.of]]), which the driver appends.
    * Index-build loads go through the store and are therefore counted by its
    * accumulator — benchmarks reset the counter after the build so per-query
    * numbers match the paper's Table 2 semantics ("masks loaded during query
    * execution").
    */
  def build(spark: SparkSession, catalog: DataFrame, store: MaskStore, cfg: ChiConfig): ChiRegistry = {
    val pieces = Units.masks(catalog, hold = false).slices { units =>
      ChiSlab.of(cfg, units.map { case (id, rows) => id -> ChiIndex.build(store.loadRow(rows.head), cfg) }.toSeq)
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
      (ChiSlab.of(cfg, built.flatMap(_._1)), ChiSlab.of(cfg, built.map(_._2), built.map(_._3)))
    }
    new ChiRegistry(cfg, ChiSlab.empty(cfg).append(pieces.map(_._1).toSeq), ChiSlab.empty(cfg).append(pieces.map(_._2).toSeq))
  }

  /** Version of the value-to-bin rule ([[ChiConfig.binOf]]) that persisted
    * counts were built with. Registries saved before the rule was defined
    * once in [[ChiConfig]] have no `binning` column: their counts put some
    * boundary values one bin too high, so [[load]] rejects them.
    */
  val BinningVersion: Int = 2

  /** Version of the stream layout ([[CellCounts]]) that persisted slabs
    * were written in. Registries saved before the stream carried keys and
    * members, in `keys`, `members` and `cells` columns, have no `format`
    * column, and [[load]] rejects them.
    */
  val StreamFormat: Int = 1

  /** One persisted slab: its name, mask shape, config, binning version and
    * stream format, and its stream ([[CellCounts]]): its keys in slot order,
    * the ids of the masks each aggregate was built from (none for the mask
    * slab), and its indexes' per-cell counts in that order.
    */
  private[core] final case class SlabRow(slab: String, w: Int, h: Int, cell_w: Int, cell_h: Int, bins: Int, binning: Int,
      format: Int, stream: Array[Byte])

  private val Masks = "masks"
  private val Aggregates = "aggregates"

  /** Persist a registry as Parquet, one [[SlabRow]] per slab, the mask slab
    * and the aggregate slab, whatever their size: the paper's "persisted to
    * disk for future sessions" (§3.6). Each slab takes the form it takes on
    * the wire ([[CellCounts]]).
    */
  def save(spark: SparkSession, registry: ChiRegistry, path: String): Unit = {
    import spark.implicits._
    val cfg = registry.cfg
    def row(name: String, slab: ChiSlab): SlabRow =
      SlabRow(name, slab.w, slab.h, cfg.cellW, cfg.cellH, cfg.bins, BinningVersion, StreamFormat,
        CellCounts.bytes(CellCounts(cfg, slab.w, slab.h, slab.keys.map(_.toLong), slab.members, slab.words)))
    Seq(row(Masks, registry.masks), row(Aggregates, registry.aggregates)).toDS().write.mode("overwrite").parquet(path)
  }

  /** True iff the registry persisted at `path` was saved with the current
    * binning version and stream format, i.e. in the form [[save]] writes.
    */
  def isCurrent(spark: SparkSession, path: String): Boolean = {
    val table = spark.read.parquet(path)
    Seq("binning", "format", "stream").forall(table.columns.contains) &&
      table.select("binning", "format").collect().forall(r => r.getInt(0) == BinningVersion && r.getInt(1) == StreamFormat)
  }

  /** Load a previously persisted registry. Fails unless it holds one mask
    * slab and one aggregate slab, both of the current binning version and
    * stream format and the same config, and each slab's stream holds keys,
    * members (one non-empty list per aggregate, none for masks) and counts
    * some mask can have, as many as its keys and shape call for
    * ([[CellCounts.read]]); then the checks every slab passes on its keys
    * and members apply ([[ChiSlab.checked]]).
    */
  def load(spark: SparkSession, path: String): ChiRegistry = {
    import spark.implicits._
    val table = spark.read.parquet(path)
    val columns = table.columns
    require(columns.contains("binning"),
      s"CHI registry at $path has no binning version: it was built with an older value-to-bin rule; rebuild it")
    require(columns.contains("format") && columns.contains("stream"),
      s"CHI registry at $path " + (if (columns.contains("counts")) "holds int counts, saved before per-cell streams"
        else "holds keys, members and per-cell counts in separate columns, saved before one stream held them") +
        "; rebuild it")
    val rows = table.as[SlabRow].collect()
    require(rows.map(_.slab).sorted.sameElements(Seq(Aggregates, Masks)),
      s"CHI registry at $path holds the slabs [${rows.map(_.slab).mkString(", ")}], not one of $Masks and one of $Aggregates")
    val versions = rows.map(_.binning).distinct
    require(versions.sameElements(Seq(BinningVersion)),
      s"CHI registry at $path has binning version ${versions.mkString(", ")}, expected $BinningVersion; rebuild it")
    val formats = rows.map(_.format).distinct
    require(formats.sameElements(Seq(StreamFormat)),
      s"CHI registry at $path has stream format ${formats.mkString(", ")}, expected $StreamFormat; rebuild it")
    val cfgs = rows.map(r => ChiConfig(r.cell_w, r.cell_h, r.bins)).distinct
    require(cfgs.length == 1, s"CHI registry at $path mixes configs ${cfgs.mkString(", ")}")
    val cfg = cfgs.head
    def slab(name: String): ChiSlab = {
      val r = rows.find(_.slab == name).get
      def fail(e: IllegalArgumentException) = new IllegalArgumentException(s"CHI registry at $path, $name slab: ${e.getMessage}", e)
      val counts = try CellCounts.read(cfg, r.w, r.h, r.stream) catch { case e: IllegalArgumentException => throw fail(e) }
      val (keys, members) = (counts.keys, counts.members)
      if (name == Aggregates) keys.indices.foreach { i =>
        require(i < members.length && members(i).nonEmpty,
          s"CHI registry at $path: the aggregate of image ${keys(i)} names no members; rebuild it")
      }
      require(members.length == (if (name == Aggregates) keys.length else 0),
        s"CHI registry at $path: its $name slab records ${members.length} member lists for ${keys.length} indexes")
      try ChiSlab(counts) catch { case e: IllegalArgumentException => throw fail(e) }
    }
    new ChiRegistry(cfg, slab(Masks), slab(Aggregates))
  }

  /** Broadcast the registry to executors (the SQL path's bound expressions read it there). */
  def broadcast(spark: SparkSession, registry: ChiRegistry): Broadcast[ChiRegistry] =
    spark.sparkContext.broadcast(registry)
}
