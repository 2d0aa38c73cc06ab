package repro.core

import scala.reflect.ClassTag

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.CachedData

import repro.store.{CatalogRow, MaskStore}

/** The units a query runs over, held on the driver: every mask on its own, or
  * the masks of one image (§3.4). Unit `i` is its key `keys(i)` (`mask_id`
  * or `image_id`) and its catalog rows `members(i)`, sorted by `mask_id`;
  * units are in key order.
  *
  * Engines bound and classify every unit on the driver and run Spark jobs
  * only over the units they load. Every such job is launched here, so how
  * units are cut into tasks is decided in this one place.
  */
final class Units private (val spark: SparkSession, val keys: Array[Long], val members: Array[Seq[CatalogRow]]) {

  def size: Int = keys.length

  /** `f` applied to every unit in one Spark job. */
  def map[T: ClassTag](f: (Long, Seq[CatalogRow]) => T): Array[T] = Units.run(spark, keys.zip(members))(f)

  /** `f` applied to the units at indices `at` in one Spark job, none when
    * `at` is empty; results in the order of `at`.
    */
  def mapAt[T: ClassTag](at: Array[Int])(f: (Long, Seq[CatalogRow]) => T): Array[T] =
    Units.run(spark, at.map(i => (keys(i), members(i))))(f)

  /** `f` applied to each slice of the units in one Spark job: one result per task. */
  def slices[T: ClassTag](f: Iterator[(Long, Seq[CatalogRow])] => T): Array[T] =
    Units.slices(spark, keys.zip(members))(f)
}

object Units {

  /** Every mask its own unit, keyed by `mask_id`. */
  def masks(catalog: DataFrame, hold: Boolean = true): Units = of(catalog, byImage = false, hold)

  /** The masks of each image as one unit, keyed by `image_id`. */
  def images(catalog: DataFrame, hold: Boolean = true): Units = of(catalog, byImage = true, hold)

  /** Units of a DataFrame that Spark has cached, keyed on its cache entry and
    * on the unit kind. The rows of a cached DataFrame cannot change while it
    * stays cached, so its units are read once; `unpersist` ends the entry,
    * and the next call drops what it held.
    */
  private val held = new java.util.IdentityHashMap[CachedData, Array[Option[Units]]]

  /** The catalog's units: those held for its cache entry when it has one and
    * `hold` is set (collected on first use), else read again. A registry
    * build reads its catalog once and so holds nothing.
    */
  private def of(catalog: DataFrame, byImage: Boolean, hold: Boolean): Units = {
    val cm = catalog.sparkSession.sharedState.cacheManager
    val session = catalog.sparkSession.asInstanceOf[org.apache.spark.sql.classic.SparkSession]
    held.synchronized {
      held.keySet.removeIf(e => !cm.lookupCachedData(session, e.plan).exists(_ eq e))
      cm.lookupCachedData(catalog.asInstanceOf[org.apache.spark.sql.classic.Dataset[_]]).filter(_ => hold).map { entry =>
        val kinds = held.computeIfAbsent(entry, _ => Array(None, None))
        val k = if (byImage) 1 else 0
        kinds(k).getOrElse { val u = read(catalog, byImage); kinds(k) = Some(u); u }
      }
    }.getOrElse(read(catalog, byImage))
  }

  /** Number of cache entries whose units are held. */
  private[core] def heldEntries: Int = held.synchronized(held.size)

  private def read(catalog: DataFrame, byImage: Boolean): Units = {
    val rows = MaskStore.asRows(catalog).collect()
    if (!byImage) {
      val sorted = rows.sortBy(_.mask_id)
      new Units(catalog.sparkSession, sorted.map(_.mask_id), sorted.map(r => r :: Nil))
    } else {
      val groups = rows.groupBy(_.image_id).toArray.sortBy(_._1)
      new Units(catalog.sparkSession, groups.map(_._1), groups.map(_._2.sortBy(_.mask_id).toList))
    }
  }

  /** `f` applied to each slice of `items` in one Spark job; results in slice
    * order. A slice holds about 256 items, and there are at least as many
    * slices as cores (`defaultParallelism`) when there are that many items.
    * More slices than that only add per-task cost: a query's verify job of
    * 64 tasks took about 100 ms longer than one of 4. Fewer, larger slices
    * send results of several MB, which come back through the block manager
    * after the job rather than directly while it runs: a registry build in 4
    * slices took 0.6–1 s longer than in 64.
    *
    * The units come from the driver, not from a `groupByKey` over the
    * catalog: Spark's adaptive execution coalesces such a small shuffle into
    * a single task, and every mask load of the stage would run on one core.
    */
  def slices[U: ClassTag, T: ClassTag](spark: SparkSession, items: Array[U])(f: Iterator[U] => T): Array[T] =
    if (items.isEmpty) Array.empty
    else {
      val n = math.min(items.length, math.max(spark.sparkContext.defaultParallelism, items.length / 256))
      spark.sparkContext.parallelize(items.toSeq, n).mapPartitions(it => Iterator(f(it))).collect()
    }

  /** `f` applied to units the driver holds, in one Spark job; results in unit order. */
  def run[T: ClassTag](spark: SparkSession, units: Array[(Long, Seq[CatalogRow])])(
      f: (Long, Seq[CatalogRow]) => T): Array[T] =
    slices(spark, units)(_.map { case (key, rows) => f(key, rows) }.toArray).flatten
}
