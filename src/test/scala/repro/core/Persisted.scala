package repro.core

import org.apache.spark.sql.{Row, SparkSession}

/** Registries persisted by [[ChiRegistry.save]], rewritten row by row to
  * forge the faults that [[ChiRegistry.load]] must reject.
  */
object Persisted {

  /** Rewrite the table at `path`, each row as `edit` returns it. */
  def rewrite(spark: SparkSession, path: String)(edit: Row => Row): Unit = {
    val table = spark.read.parquet(path)
    val rows = table.collect().map(edit)
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), table.schema).write.mode("overwrite").parquet(path)
  }

  /** `r` with column `name` set to `v`. */
  def set(r: Row, name: String, v: Any): Row = Row.fromSeq(r.toSeq.updated(r.fieldIndex(name), v))

  /** Rewrite the stream of the `slab` row at `path` as `edit` returns it. */
  def editStream(spark: SparkSession, path: String, slab: String)(edit: Array[Byte] => Array[Byte]): Unit =
    rewrite(spark, path)(r => if (r.getAs[String]("slab") == slab) set(r, "stream", edit(r.getAs[Array[Byte]]("stream"))) else r)

  /** Rewrite the words of the `slab` row's stream at `path`: `edit` returns the word count and words to write. */
  def editWords(spark: SparkSession, path: String, slab: String)(edit: Array[Long] => (Int, Seq[Long])): Unit =
    editStream(spark, path, slab)(Streams.rewords(_)(edit))
}
