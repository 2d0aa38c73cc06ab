package repro.core

import scala.reflect.ClassTag

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.store.{CatalogRow, MaskStore}

/** A catalog's rows grouped per image on the driver, for the per-image work
  * of index builds, group bounds and group verification.
  *
  * The catalog is metadata only, so a `groupByKey` over it shuffles a few
  * megabytes at most, and Spark's adaptive execution coalesces the shuffle's
  * partitions into a single task: every mask load of the stage then runs on
  * one core. Grouping on the driver and spreading the groups over
  * `spark.sql.shuffle.partitions` slices leaves no shuffle to coalesce.
  *
  * @param groups `(image_id, rows)` by ascending image, rows sorted by `mask_id`
  */
final class ImageGroups private (spark: SparkSession, groups: Array[(Long, Seq[CatalogRow])]) {

  /** The groups whose image id satisfies `keep`. */
  def filter(keep: Long => Boolean): ImageGroups = new ImageGroups(spark, groups.filter(g => keep(g._1)))

  /** `f` applied to every group in one Spark job of
    * `min(#groups, spark.sql.shuffle.partitions)` tasks; results in group order.
    */
  def map[T: ClassTag](f: (Long, Seq[CatalogRow]) => T): Array[T] =
    if (groups.isEmpty) Array.empty
    else {
      val slices = math.min(groups.length, spark.conf.get("spark.sql.shuffle.partitions").toInt)
      spark.sparkContext.parallelize(groups.toSeq, slices).map { case (img, rows) => f(img, rows) }.collect()
    }
}

object ImageGroups {

  def apply(catalog: DataFrame): ImageGroups = {
    val byImage = MaskStore.asRows(catalog).collect().groupBy(_.image_id)
    new ImageGroups(
      catalog.sparkSession,
      byImage.toArray.sortBy(_._1).map { case (img, rows) => img -> rows.sortBy(_.mask_id).toSeq },
    )
  }
}
