package repro.core

import scala.reflect.ClassTag

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.store.{CatalogRow, MaskStore}

/** The units a job runs over: every mask on its own, or the masks of one
  * image (§3.4). A unit is its key (`mask_id` or `image_id`) and its catalog
  * rows, sorted by `mask_id`. Every Spark job over catalog units is launched
  * here, so how the catalog is cut into tasks is decided in this one place;
  * only [[IncrementalSession]] runs its own verify-and-index job, because it
  * classifies on the driver and carries an "already indexed" bit per mask.
  */
sealed abstract class Units(val spark: SparkSession) {

  /** `f` applied to every unit in one Spark job. */
  def map[T: ClassTag](f: (Long, Seq[CatalogRow]) => T): Array[T]
}

object Units {

  /** Every mask its own unit, keyed by `mask_id`: `map` is one pass over the
    * catalog, in the catalog's own partitions; nothing is collected first.
    */
  def masks(catalog: DataFrame): Units = new Units(catalog.sparkSession) {
    def map[T: ClassTag](f: (Long, Seq[CatalogRow]) => T): Array[T] =
      MaskStore.asRows(catalog).rdd.map(r => f(r.mask_id, Seq(r))).collect()
  }

  /** The masks of each image as one unit, keyed by `image_id`, by ascending
    * image; `map` is [[run]] over them.
    *
    * The catalog is metadata only, so a `groupByKey` over it shuffles a few
    * megabytes at most, and Spark's adaptive execution coalesces the shuffle's
    * partitions into a single task: every mask load of the stage then runs on
    * one core. Grouping on the driver and spreading the groups over
    * `spark.sql.shuffle.partitions` slices leaves no shuffle to coalesce.
    */
  def images(catalog: DataFrame): Units = {
    val byImage = MaskStore.asRows(catalog).collect().groupBy(_.image_id)
    val held = byImage.toArray.sortBy(_._1).map { case (img, rows) => img -> rows.sortBy(_.mask_id).toSeq }
    new Units(catalog.sparkSession) {
      def map[T: ClassTag](f: (Long, Seq[CatalogRow]) => T): Array[T] = run(spark, held)(f)
    }
  }

  /** `f` applied to units the driver holds, in one Spark job of
    * `min(#units, spark.sql.shuffle.partitions)` tasks; results in unit order.
    */
  def run[T: ClassTag](spark: SparkSession, units: Array[(Long, Seq[CatalogRow])])(
      f: (Long, Seq[CatalogRow]) => T): Array[T] =
    if (units.isEmpty) Array.empty
    else {
      val slices = math.min(units.length, spark.conf.get("spark.sql.shuffle.partitions").toInt)
      spark.sparkContext.parallelize(units.toSeq, slices).map { case (key, rows) => f(key, rows) }.collect()
    }
}
