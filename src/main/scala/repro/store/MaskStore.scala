package repro.store

import java.io.{BufferedOutputStream, File, FileOutputStream, IOException}
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.util.LongAccumulator

import repro.core.Mask

/** On-disk mask storage: one little-endian binary file per mask under
  * `base/masks/<shard>/<id>.bin` (header: id/w/h, then w·h float32 pixels).
  *
  * This is the disk substrate whose read traffic the paper's whole design is
  * about: every [[load]] — on the driver or inside an executor task —
  * increments [[loads]], a Spark accumulator, so benchmarks can report the
  * exact number of masks loaded per query (reproducing the paper's Table 2)
  * and the fraction of masks loaded, FML (§4.4).
  */
final class MaskStore(val base: String, val loads: LongAccumulator) extends Serializable {

  def pathFor(maskId: Long): String = s"$base/masks/${maskId % 256}/$maskId.bin"

  /** Load a mask from disk, counting the load. */
  def load(maskId: Long): Mask = loadPath(pathFor(maskId))

  /** Load a mask from an explicit path, counting the load. Read bytes pass
    * through [[DiskThrottle]] so benchmarks can simulate the paper's
    * provisioned disk bandwidth. Fails, naming the path, unless the header's
    * w and h are positive and the file holds exactly the 16 + 4·w·h bytes
    * they call for.
    */
  def loadPath(path: String): Mask = {
    val bytes = Files.readAllBytes(Paths.get(path))
    DiskThrottle.acquire(bytes.length)
    require(bytes.length >= 16, s"mask file $path has ${bytes.length} bytes, fewer than its 16-byte header")
    val buf = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    val id = buf.getLong
    val w = buf.getInt
    val h = buf.getInt
    require(w > 0 && h > 0, s"mask file $path has a ${w}x$h header")
    require(bytes.length == 16 + 4L * w * h,
      s"mask file $path has ${bytes.length} bytes, not the ${16 + 4L * w * h} of its ${w}x$h header")
    val data = new Array[Float](w * h)
    buf.asFloatBuffer().get(data)
    loads.add(1)
    Mask(id, w, h, data)
  }

  /** Load mask `maskId` from `path`, counting the load. Fails, naming both,
    * when the file cannot be read (say, it was deleted after the catalog named
    * it), and unless its header names `maskId`: a misplaced or stale file must
    * not answer for another mask.
    */
  def loadMask(maskId: Long, path: String): Mask = {
    val m =
      try loadPath(path)
      catch { case e: IOException => throw new IOException(s"cannot read mask $maskId from $path: $e", e) }
    require(m.id == maskId, s"mask file $path holds mask ${m.id}, not mask $maskId")
    m
  }

  /** Load the mask of a catalog row, counting the load: [[loadMask]], and
    * fails unless the file's header also has the row's shape.
    */
  def loadRow(row: CatalogRow): Mask = {
    val m = loadMask(row.mask_id, row.path)
    require(m.w == row.w && m.h == row.h,
      s"mask file ${row.path} holds a ${m.w}x${m.h} mask; its catalog row says ${row.w}x${row.h} for mask ${row.mask_id}")
    m
  }

  /** Write one mask (no load counted); its pixels must lie in [0, 1). */
  def write(mask: Mask): Unit = {
    mask.checkDomain()
    val f = new File(pathFor(mask.id))
    f.getParentFile.mkdirs()
    val buf = ByteBuffer.allocate(16 + 4 * mask.data.length).order(ByteOrder.LITTLE_ENDIAN)
    buf.putLong(mask.id).putInt(mask.w).putInt(mask.h)
    buf.asFloatBuffer().put(mask.data)
    val out = new BufferedOutputStream(new FileOutputStream(f))
    try out.write(buf.array())
    finally out.close()
  }

  /** Reset the load counter (call between benchmarked queries). */
  def resetLoads(): Unit = loads.reset()
}

object MaskStore {

  def apply(spark: SparkSession, base: String): MaskStore =
    new MaskStore(base, spark.sparkContext.longAccumulator(s"masksLoaded:$base"))

  /** Materialise a dataset's mask files on disk (distributed, idempotent via a
    * completion marker) and return its catalog as a DataFrame. The generation
    * job is a Spark range scan fanned out over executors — the dataflow
    * equivalent of the paper's GPU mask-production step.
    */
  def materialize(spark: SparkSession, ds: MaskDatasetDef, base: String): (MaskStore, DataFrame) = {
    val store = MaskStore(spark, base)
    val marker = Paths.get(base, s"_complete_${ds.name}_${ds.seed}")
    if (!Files.exists(marker)) {
      val dsDef = ds
      spark
        .range(0, ds.nMasks, 1, math.min(64, math.max(1, ds.nMasks / 64)))
        .rdd
        .foreachPartition { ids =>
          ids.foreach(id => store.write(MaskGen.generate(dsDef, id)))
        }
      Files.createDirectories(marker.getParent)
      Files.createFile(marker)
    }
    (store, catalogDF(spark, ds, store))
  }

  /** The catalog DataFrame of a dataset: a range of mask ids mapped to
    * their rows inside the tasks ([[MaskGen.row]]), so neither the plan nor
    * the tasks carry the rows.
    */
  def catalogDF(spark: SparkSession, ds: MaskDatasetDef, store: MaskStore): DataFrame = {
    import spark.implicits._
    val dsDef = ds
    spark.range(0, ds.nMasks).map(id => MaskGen.row(dsDef, store, id)).toDF()
  }

  /** Typed view of a catalog DataFrame. */
  def asRows(catalog: DataFrame): Dataset[CatalogRow] = {
    import catalog.sparkSession.implicits._
    catalog.as[CatalogRow]
  }
}
