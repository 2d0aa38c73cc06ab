package repro.store

import java.io.{DataOutputStream, FileOutputStream, BufferedOutputStream, File}
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
    * provisioned disk bandwidth.
    */
  def loadPath(path: String): Mask = {
    val bytes = Files.readAllBytes(Paths.get(path))
    DiskThrottle.acquire(bytes.length)
    val buf = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    val id = buf.getLong
    val w = buf.getInt
    val h = buf.getInt
    val data = new Array[Float](w * h)
    buf.asFloatBuffer().get(data)
    loads.add(1)
    Mask(id, w, h, data)
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

  /** The catalog DataFrame of a dataset (deterministic metadata; cheap). */
  def catalogDF(spark: SparkSession, ds: MaskDatasetDef, store: MaskStore): DataFrame = {
    import spark.implicits._
    MaskGen.catalog(ds, store).toDF()
  }

  /** Typed view of a catalog DataFrame. */
  def asRows(catalog: DataFrame): Dataset[CatalogRow] = {
    import catalog.sparkSession.implicits._
    catalog.as[CatalogRow]
  }
}
