package repro

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame

import repro.core.{ChiConfig, ChiRegistry}
import repro.store.{MaskDatasetDef, MaskStore}

/** Shared Spark-side test fixture: one small mask dataset, materialised once
  * per JVM (tests fork a single JVM; see build.sbt), with its CHI registry
  * built and broadcast once. Suites snapshot the store's load accumulator
  * around each operation rather than resetting it, so they can share freely.
  */
object TestData {

  /** 60 images × 2 models of 32×32 masks ≈ 0.5 MB — unit-test scale. */
  val ds: MaskDatasetDef = MaskDatasetDef("unit", nImages = 60, nModels = 2, w = 32, h = 32, seed = 7)

  /** Cell 8×8, 8 bins ⇒ at most a header word and 4×4 corners × bins 1…7 × 11 bits: 21 words = 168 B per 4 KiB mask (4.1%). */
  val cfg: ChiConfig = ChiConfig(8, 8, 8)

  lazy val (store: MaskStore, catalog: DataFrame) = {
    val (s, c) = MaskStore.materialize(SparkSpec.shared, ds, "target/testdata/unit")
    (s, c.cache())
  }

  /** Registry with per-mask CHIs plus per-image INTERSECT aggregates (§3.4). */
  lazy val registry: ChiRegistry =
    ChiRegistry.buildWithAggregates(SparkSpec.shared, catalog, store, cfg)

  lazy val chiBc: Broadcast[ChiRegistry] =
    ChiRegistry.broadcast(SparkSpec.shared, registry)

  /** Catalog restricted to model 1 (the paper's Q1–Q3 target set). */
  lazy val catalogM1: DataFrame = catalog.filter("model_id = 1").cache()

  /** A tiny second dataset for DuckDB-oracle tests (pixels table stays small). */
  val oracleDs: MaskDatasetDef = MaskDatasetDef("oracle", nImages = 12, nModels = 2, w = 16, h = 16, seed = 11)

  lazy val (oracleStore: MaskStore, oracleCatalog: DataFrame) = {
    val (s, c) = MaskStore.materialize(SparkSpec.shared, oracleDs, "target/testdata/oracle")
    (s, c.cache())
  }

  /** Exploded pixel table (mask_id, x, y, v) of the oracle dataset; `v` is the
    * pixel value promoted to double so DuckDB (after VARCHAR round-trip) and
    * Spark compare exactly the same numeric value.
    */
  lazy val oraclePixels: DataFrame = {
    val spark = SparkSpec.shared
    import spark.implicits._
    val s = oracleStore
    oracleCatalog
      .as[repro.store.CatalogRow]
      .flatMap { r =>
        val m = s.loadPath(r.path)
        for (x <- 1 to m.w; y <- 1 to m.h) yield (r.mask_id, x, y, m(x, y).toDouble)
      }
      .toDF("mask_id", "x", "y", "v")
      .cache()
  }
}
