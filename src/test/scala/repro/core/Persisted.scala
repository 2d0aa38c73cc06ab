package repro.core

import java.nio.ByteBuffer

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

  /** Rewrite the `cells` stream of the `slab` row at `path` as `edit` returns it. */
  def editCells(spark: SparkSession, path: String, slab: String)(edit: Array[Byte] => Array[Byte]): Unit =
    rewrite(spark, path)(r => if (r.getAs[String]("slab") == slab) set(r, "cells", edit(r.getAs[Array[Byte]]("cells"))) else r)

  /** Rewrite the words of the `slab` row's stream at `path`: `edit` returns the word count and words to write. */
  def editWords(spark: SparkSession, path: String, slab: String)(edit: Array[Long] => (Int, Seq[Long])): Unit =
    editCells(spark, path, slab) { bs =>
      val in = ByteBuffer.wrap(bs)
      val (n, words) = edit(Array.fill(in.getInt())(in.getLong()))
      val out = ByteBuffer.allocate(4 + 8 * words.length).putInt(n)
      words.foreach(out.putLong)
      out.array
    }
}
