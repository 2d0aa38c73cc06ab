package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.rand

import repro.{SparkSpec, StageTasks, TestData}
import repro.store.MaskStore

/** Tests for the dataset-wide CHI registry: distributed build, size
  * accounting (the paper's ~5% rule), persistence, broadcast.
  */
class ChiRegistrySpec extends SparkSpec {
  import TestData._

  test("buildWithAggregates indexes every mask plus one aggregate per image") {
    assert(registry.size == ds.nMasks + ds.nImages)
    assert((0 until ds.nMasks).forall(id => registry.contains(id)))
    assert((0 until ds.nImages).forall(i => registry.aggregates.get(i).isDefined))
  }

  test("plain build indexes exactly the masks") {
    val r = ChiRegistry.build(spark, catalog, store, cfg)
    assert(r.size == ds.nMasks)
    assert((0 until ds.nMasks).forall(id => r.contains(id)))
  }

  test("aggregate index equals the CHI of the locally computed intersect mask") {
    val rows = repro.store.MaskStore.asRows(catalog).collect().filter(_.image_id == 4L).sortBy(_.mask_id)
    val inter = Mask.intersect(rows.toSeq.map(r => store.loadPath(r.path)))
    val local = ChiIndex.build(inter, cfg)
    assert(registry.aggregates.get(4L).get.counts.toSeq == local.counts.toSeq)
  }

  test("per-mask indexes match a locally built index") {
    val id = 5L
    val local = ChiIndex.build(store.load(id), cfg)
    val fromRegistry = registry.get(id).get
    assert(fromRegistry.counts.toSeq == local.counts.toSeq)
    assert(fromRegistry.w == local.w && fromRegistry.h == local.h)
  }

  test("index size matches the closed form and is a small fraction of the data") {
    val worst = cfg.sizeBytes(ds.w, ds.h)
    // One header word, and bins 1 … b−1 of every interior corner at bits(w, h) each, padded to whole words.
    val stored = ChiIndex.nCells(ds.w, cfg.cellW) * ChiIndex.nCells(ds.h, cfg.cellH) * (cfg.bins - 1)
    assert(worst == 8L * (1 + (stored * ChiIndex.bits(ds.w, ds.h) + 63) / 64) && worst == 168L)
    // Each index holds its header and each bin at the bit length of its total (Fixtures.packedBytes).
    val rows = MaskStore.asRows(catalog).collect()
    val masks = rows.map(r => r.mask_id -> store.loadPath(r.path)).toMap
    val maskBytes = rows.toSeq.map { r =>
      val b = Fixtures.packedBytes(masks(r.mask_id), cfg)
      assert(registry.get(r.mask_id).get.sizeBytes == b && b <= worst, s"mask ${r.mask_id}")
      b
    }
    val aggBytes = rows.groupBy(_.image_id).toSeq.map { case (img, group) =>
      val b = Fixtures.packedBytes(Mask.intersect(group.toSeq.sortBy(_.mask_id).map(r => masks(r.mask_id))), cfg)
      assert(registry.aggregates.get(img).get.sizeBytes == b && b <= worst, s"image $img")
      b
    }
    assert(registry.masks.bytes == maskBytes.sum && registry.aggregates.bytes == aggBytes.sum)
    assert(registry.totalBytes == maskBytes.sum + aggBytes.sum)
    assert(registry.totalBytes < worst * (ds.nMasks + ds.nImages))
    val rawBytes = 4L * ds.w * ds.h * ds.nMasks
    val ratio = registry.masks.bytes.toDouble / rawBytes
    assert(ratio < 0.15, f"index/data ratio $ratio%.3f")
  }

  test("buildWithAggregates loads each mask exactly once") {
    val s2 = repro.store.MaskStore(spark, "target/testdata/unit")
    val before = s2.loads.value
    ChiRegistry.buildWithAggregates(spark, catalog, s2, cfg)
    assert(s2.loads.value - before == ds.nMasks)
  }

  test("buildWithAggregates loads masks in more than one task (no stage collapsed by AQE)") {
    val s2 = MaskStore(spark, "target/testdata/unit")
    val (_, tasks) = StageTasks.updating(spark, s2.loads)(ChiRegistry.buildWithAggregates(spark, catalog, s2, cfg))
    assert(tasks.nonEmpty, "no stage loaded masks")
    assert(tasks.forall(_ > 1), s"mask-loading stages ran ${tasks.mkString(", ")} task(s)")
  }

  test("buildWithAggregates is independent of catalog row order and partitioning") {
    val shuffled = catalog.orderBy(rand(17)).repartition(7)
    val s2 = MaskStore(spark, "target/testdata/unit")
    val before = s2.loads.value
    val r = ChiRegistry.buildWithAggregates(spark, shuffled, s2, cfg)
    assert(s2.loads.value - before == ds.nMasks)
    assert(r.size == ds.nMasks + ds.nImages)

    def sameIndex(got0: Option[ChiIndex], id: Long, local: ChiIndex): Unit = {
      val got = got0.getOrElse(fail(s"no index for $id"))
      assert(got.w == local.w && got.h == local.h, s"shape of $id")
      assert(got.counts.toSeq == local.counts.toSeq, s"counts of $id")
    }
    val rows = MaskStore.asRows(catalog).collect()
    rows.foreach(row => sameIndex(r.get(row.mask_id), row.mask_id, ChiIndex.build(store.loadPath(row.path), cfg)))
    rows.groupBy(_.image_id).foreach { case (img, group) =>
      val inter = Mask.intersect(group.toSeq.sortBy(_.mask_id).map(row => store.loadPath(row.path)))
      sameIndex(r.aggregates.get(img), img, ChiIndex.build(inter, cfg))
    }
  }

  test("building loads each mask exactly once") {
    val s2 = repro.store.MaskStore(spark, "target/testdata/unit")
    val before = s2.loads.value
    ChiRegistry.build(spark, catalog, s2, cfg)
    assert(s2.loads.value - before == ds.nMasks)
  }

  test("save and load round-trip") {
    val path = "target/testdata/chi-roundtrip"
    ChiRegistry.save(spark, registry, path)
    val loaded = ChiRegistry.load(spark, path)
    assert(loaded.cfg == registry.cfg)
    assert(loaded.size == registry.size)
    assert(loaded.get(9L).get.counts.toSeq == registry.get(9L).get.counts.toSeq)
  }

  test("save and load round-trip every mask and aggregate index through the slabs") {
    val path = "target/testdata/chi-roundtrip-all"
    ChiRegistry.save(spark, registry, path)
    val loaded = ChiRegistry.load(spark, path)
    assert(loaded.masks.size == ds.nMasks && loaded.aggregates.size == ds.nImages)
    (0L until ds.nMasks).foreach(id => assert(loaded.get(id).get.counts.toSeq == registry.get(id).get.counts.toSeq, s"mask $id"))
    (0L until ds.nImages).foreach(i =>
      assert(loaded.aggregates.get(i).get.counts.toSeq == registry.aggregates.get(i).get.counts.toSeq, s"image $i"))
    assert(!loaded.contains(ds.nMasks.toLong) && loaded.aggregates.get(ds.nImages.toLong).isEmpty)
  }

  test("save and load round-trip a 300x300 index whose counts need 32 bits") {
    val path = "target/testdata/chi-roundtrip-wide"
    val wideCfg = ChiConfig(64, 64, 4)
    val idx = ChiIndex.build(Fixtures.wideMask, wideCfg)
    assert(ChiIndex.bits(300, 300) == 17 && idx.counts.max > 65535)
    ChiRegistry.save(spark, Fixtures.registryOf(wideCfg, Seq(idx)), path)
    val got = ChiRegistry.load(spark, path).get(idx.maskId).get
    assert(got.counts == idx.counts && got.words.toSeq == idx.words.toSeq)
    assert(got.counts.toSeq == idx.counts.toSeq)
    val r = new java.util.Random(3)
    for (_ <- 0 until 50) {
      val roi = Fixtures.randomRoi(r, 300, 300)
      val range = Fixtures.randomRange(r)
      val b = got.bounds(roi, range)
      val exact = Fixtures.wideMask.cp(roi, range)
      assert(b == idx.bounds(roi, range) && b.lower <= exact && exact <= b.upper, s"roi=$roi range=$range")
    }
  }

  test("buildWithAggregates records the masks of each aggregate, and save and load keep them") {
    val rows = MaskStore.asRows(catalog).collect()
    val path = "target/testdata/chi-roundtrip-members"
    ChiRegistry.save(spark, registry, path)
    val loaded = ChiRegistry.load(spark, path)
    rows.groupBy(_.image_id).foreach { case (img, group) =>
      val ids = group.map(_.mask_id).sorted.toSeq
      assert(registry.aggregates.membersOf(img).contains(ids), s"image $img")
      assert(loaded.aggregates.membersOf(img).contains(ids), s"image $img after load")
      assert(registry.aggregates.builtFrom(img, group.toSeq.reverse) && !registry.aggregates.builtFrom(img, group.take(1).toSeq))
    }
    assert(registry.masks.membersOf(0L).isEmpty && loaded.masks.membersOf(0L).isEmpty)
  }

  test("a Java-serialised registry reads back every mask and aggregate index, with the members") {
    val out = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(out)
    oos.writeObject(registry)
    oos.close()
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(out.toByteArray)).readObject().asInstanceOf[ChiRegistry]
    assert(back.cfg == registry.cfg && back.masks.size == ds.nMasks && back.aggregates.size == ds.nImages)
    val r = new java.util.Random(9)
    def same(got: ChiIndex, want: ChiIndex): Unit = {
      assert(got.counts.toSeq == want.counts.toSeq, s"counts of ${want.maskId}")
      for (_ <- 0 until 5) {
        val (roi, range) = (Fixtures.randomRoi(r, ds.w, ds.h), Fixtures.randomRange(r))
        assert(got.bounds(roi, range) == want.bounds(roi, range), s"${want.maskId} $roi $range")
      }
    }
    (0L until ds.nMasks).foreach(id => same(back.get(id).get, registry.get(id).get))
    (0L until ds.nImages).foreach { i =>
      same(back.aggregates.get(i).get, registry.aggregates.get(i).get)
      assert(back.aggregates.membersOf(i) == registry.aggregates.membersOf(i), s"members of image $i")
    }
  }

  /** Where registries persisted as Parquet rows of int counts stored the aggregate of image `i`: `mask_id = 2⁴⁰ + i`. */
  private val OldAggIdBase = 1L << 40

  /** `registry` saved with `path`'s name, then rewritten by `edit`. */
  private def savedAndEdited(path: String)(edit: Row => Row): Unit = {
    ChiRegistry.save(spark, registry, path)
    Persisted.rewrite(spark, path)(edit)
  }

  test("load rejects a slab whose keys repeat or leave [0, 2³¹ − 1)") {
    val path = "target/testdata/chi-bad-keys"
    // The stream written again with the keys `edit` gives: the writer checks counts, not keys.
    def editKeys(slab: String)(edit: IndexedSeq[Long] => IndexedSeq[Long]): Unit = {
      ChiRegistry.save(spark, registry, path)
      Persisted.editStream(spark, path, slab) { bs =>
        val counts = CellCounts.read(cfg, ds.w, ds.h, bs)
        Streams.written(cfg, ds.w, ds.h, edit(counts.keys.toIndexedSeq).toArray, counts.members, counts.words)
      }
    }
    editKeys("masks")(ks => ks.updated(1, ks(0)))
    val twice = intercept[IllegalArgumentException](ChiRegistry.load(spark, path)).getMessage
    assert(twice.contains(s"CHI registry at $path, masks slab: ") && twice.contains(s"two CHIs for key ${registry.masks.keys(0)}"), twice)
    editKeys("aggregates")(_.updated(0, 1L << 40))
    val wide = intercept[IllegalArgumentException](ChiRegistry.load(spark, path)).getMessage
    assert(wide.contains(s"CHI registry at $path, aggregates slab: ") && wide.contains(s"CHI key ${1L << 40} leaves [0, ${Int.MaxValue})"), wide)
  }

  test("load rejects a registry whose rows disagree on the config") {
    val path = "target/testdata/chi-mixed-config"
    savedAndEdited(path)(r => if (r.getAs[String]("slab") == "aggregates") Persisted.set(r, "cell_w", cfg.cellW * 2) else r)
    val e = intercept[IllegalArgumentException](ChiRegistry.load(spark, path))
    assert(e.getMessage.contains("mixes configs"), e.getMessage)
  }

  test("load rejects an index with the wrong number of counts") {
    val path = "target/testdata/chi-short-counts"
    ChiRegistry.save(spark, registry, path)
    Persisted.editStream(spark, path, "masks")(_.dropRight(8))
    val e = intercept[IllegalArgumentException](ChiRegistry.load(spark, path))
    assert(e.getMessage.contains(s"truncated CHI stream: ${ds.nMasks} indexes of 32x32 masks"), e.getMessage)
  }

  test("load rejects a count below 0 or above w·h instead of truncating it") {
    // The mask slab's counts in the plain form (Streams.plainWords), where mask 0's first count, cell (0, 0) at bin 1,
    // takes the 7 bits of the cell's 64 pixels: 65 to 127 fit them.
    val path = "target/testdata/chi-bad-count"
    val cells = registry.masks.keys.toSeq.map(k => Streams.perCell(registry.get(k.toLong).get))
    for (bad <- Seq(65, 70, 127)) {
      ChiRegistry.save(spark, registry, path)
      Persisted.editWords(spark, path, "masks") { _ =>
        val ws = Streams.plainWords(cfg, ds.w, ds.h, cells.updated(0, cells(0).updated(0, cells(0)(0).updated(1, bad))))
        (ws.length, ws.toSeq)
      }
      val e = intercept[IllegalArgumentException](ChiRegistry.load(spark, path))
      assert(e.getMessage.contains(s"CHI in slot 0 of ${ds.nMasks}: cell (0, 0) has $bad pixels at bin 1, outside [0, 64]"),
        e.getMessage)
    }
  }

  /** `registry` as rows of int counts, bin 0 included, the layout of registries saved before the per-cell streams:
    * `columns` picks the ones a layout had, in order, from `mask_id, w, h, cell_w, cell_h, bins, binning, counts,
    * members`.
    */
  private def saveIntCounts(path: String, columns: String*): Unit = {
    val spark0 = spark
    import spark0.implicits._
    val aggs = registry.aggregates
    def views(slab: ChiSlab) = slab.keys.iterator.map(k => slab.get(k.toLong).get)
    (views(registry.masks).map(i => (i.maskId, i, Option.empty[Array[Long]])) ++
      views(aggs).map(i => (OldAggIdBase + i.maskId, i, aggs.membersOf(i.maskId).map(_.toArray))))
      .map { case (id, i, m) => (id, i.w, i.h, cfg.cellW, cfg.cellH, cfg.bins, ChiRegistry.BinningVersion, i.counts.toArray, m) }
      .toSeq
      .toDF("mask_id", "w", "h", "cell_w", "cell_h", "bins", "binning", "counts", "members")
      .select(columns.head, columns.tail: _*)
      .write.mode("overwrite").parquet(path)
  }

  /** `registry` persisted the way it was before the binning version existed. */
  private def saveUnversioned(path: String): Unit = saveIntCounts(path, "mask_id", "w", "h", "cell_w", "cell_h", "bins", "counts")

  test("save writes the binning version of every index") {
    val path = "target/testdata/chi-binning"
    ChiRegistry.save(spark, registry, path)
    val versions = spark.read.parquet(path).select("binning").distinct().collect().map(_.getInt(0))
    assert(versions.toSeq == Seq(ChiRegistry.BinningVersion))
  }

  test("load rejects a registry saved without a binning version") {
    val path = "target/testdata/chi-unversioned"
    saveUnversioned(path)
    val e = intercept[IllegalArgumentException](ChiRegistry.load(spark, path))
    assert(e.getMessage.contains("no binning version"), e.getMessage)
  }

  test("the bench cache rebuilds a registry saved without a binning version") {
    val path = "target/testdata/chi-bench-cache"
    saveUnversioned(path)
    var builds = 0
    def build = { builds += 1; registry }
    val first = repro.bench.BenchData.cachedRegistry(spark, path)(build)
    assert(builds == 1 && (first eq registry))
    val second = repro.bench.BenchData.cachedRegistry(spark, path)(build)
    assert(builds == 1)
    assert(second.size == registry.size)
    assert(second.get(9L).get.counts.toSeq == registry.get(9L).get.counts.toSeq)
  }

  /** `registry` persisted the way it was before aggregates recorded their members. */
  private def saveWithoutMembers(path: String): Unit =
    saveIntCounts(path, "mask_id", "w", "h", "cell_w", "cell_h", "bins", "binning", "counts")

  test("load rejects aggregates saved without their members, and the bench cache rebuilds them") {
    val path = "target/testdata/chi-no-members"
    saveWithoutMembers(path)
    assert(!ChiRegistry.isCurrent(spark, path))
    val e = intercept[IllegalArgumentException](ChiRegistry.load(spark, path))
    assert(e.getMessage.contains("holds int counts") && e.getMessage.contains("rebuild it"), e.getMessage)
    // Saved as one stream per slab, an aggregate slab written without members is rejected too.
    val current = "target/testdata/chi-no-members-current"
    ChiRegistry.save(spark, registry, current)
    Persisted.editStream(spark, current, "aggregates") { bs =>
      val counts = CellCounts.read(cfg, ds.w, ds.h, bs)
      Streams.written(cfg, ds.w, ds.h, counts.keys, CellCounts.NoMembers, counts.words)
    }
    val e2 = intercept[IllegalArgumentException](ChiRegistry.load(spark, current))
    assert(e2.getMessage.contains("the aggregate of image 0 names no members"), e2.getMessage)
    var builds = 0
    def build = { builds += 1; registry }
    assert(repro.bench.BenchData.cachedRegistry(spark, path)(build) eq registry)
    assert(builds == 1 && ChiRegistry.isCurrent(spark, path))
    val second = repro.bench.BenchData.cachedRegistry(spark, path)(build)
    assert(builds == 1 && second.aggregates.membersOf(3L) == registry.aggregates.membersOf(3L))
  }

  test("a registry saved with int counts is not current; load says rebuild it, and the bench cache rebuilds it") {
    val path = "target/testdata/chi-int-counts"
    saveIntCounts(path, "mask_id", "w", "h", "cell_w", "cell_h", "bins", "binning", "counts", "members")
    assert(!ChiRegistry.isCurrent(spark, path))
    val e = intercept[IllegalArgumentException](ChiRegistry.load(spark, path))
    assert(e.getMessage.contains(s"CHI registry at $path holds int counts") && e.getMessage.contains("rebuild it"), e.getMessage)
    var builds = 0
    def build = { builds += 1; registry }
    assert(repro.bench.BenchData.cachedRegistry(spark, path)(build) eq registry)
    assert(builds == 1 && ChiRegistry.isCurrent(spark, path))
    val second = repro.bench.BenchData.cachedRegistry(spark, path)(build)
    assert(builds == 1 && second.size == registry.size)
    (0L until ds.nMasks).foreach(id => assert(second.get(id).get.counts.toSeq == registry.get(id).get.counts.toSeq, s"mask $id"))
    assert(second.aggregates.membersOf(3L) == registry.aggregates.membersOf(3L))
  }

  test("a registry saved with separate keys, members and cells columns is not current; load says rebuild it") {
    // The layout before one stream held keys, members and counts: a row per slab, with the keys as `bigint`s, the
    // members as arrays of them, and the counts' stream alone in `cells`.
    val path = "target/testdata/chi-cells-columns"
    val spark0 = spark
    import spark0.implicits._
    Seq(("masks", Seq(0L, 1L), Option.empty[Seq[Seq[Long]]]), ("aggregates", Seq(0L), Some(Seq(Seq(0L, 1L)))))
      .map { case (slab, keys, members) =>
        (slab, ds.w, ds.h, cfg.cellW, cfg.cellH, cfg.bins, ChiRegistry.BinningVersion, keys, members, Array[Byte](0, 0, 0, 0))
      }
      .toDF("slab", "w", "h", "cell_w", "cell_h", "bins", "binning", "keys", "members", "cells")
      .write.mode("overwrite").parquet(path)
    assert(!ChiRegistry.isCurrent(spark, path))
    val e = intercept[IllegalArgumentException](ChiRegistry.load(spark, path))
    assert(e.getMessage.contains(s"CHI registry at $path holds keys, members and per-cell counts in separate columns") &&
      e.getMessage.contains("rebuild it"), e.getMessage)
    var builds = 0
    def build = { builds += 1; registry }
    assert(repro.bench.BenchData.cachedRegistry(spark, path)(build) eq registry)
    assert(builds == 1 && ChiRegistry.isCurrent(spark, path))
    val second = repro.bench.BenchData.cachedRegistry(spark, path)(build)
    assert(builds == 1 && second.size == registry.size)
    (0L until ds.nMasks).foreach(id => assert(second.get(id).get.counts.toSeq == registry.get(id).get.counts.toSeq, s"mask $id"))
    assert(second.aggregates.membersOf(3L) == registry.aggregates.membersOf(3L))
    // A stream of another format is not current either.
    Persisted.rewrite(spark, path)(r => Persisted.set(r, "format", ChiRegistry.StreamFormat + 1))
    assert(!ChiRegistry.isCurrent(spark, path))
    val f = intercept[IllegalArgumentException](ChiRegistry.load(spark, path))
    assert(f.getMessage.contains(s"has stream format ${ChiRegistry.StreamFormat + 1}, expected ${ChiRegistry.StreamFormat}; rebuild it"),
      f.getMessage)
  }

  test("an empty registry, as a session persists it before its first query, saves and loads back empty") {
    val path = "target/testdata/chi-empty"
    new IncrementalSession(spark, store, cfg).persist(path)
    assert(ChiRegistry.isCurrent(spark, path))
    val back = ChiRegistry.load(spark, path)
    assert(back.cfg == cfg && back.size == 0 && back.masks.size == 0 && back.aggregates.size == 0)
    assert(back.masks.append(Seq(ChiSlab.of(cfg, Seq(0L -> registry.get(0L).get)))).contains(0L))
    // A table of no rows is no registry: it fails loudly.
    val noRows = "target/testdata/chi-no-rows"
    spark.read.parquet(path).limit(0).write.mode("overwrite").parquet(noRows)
    val e = intercept[IllegalArgumentException](ChiRegistry.load(spark, noRows))
    assert(e.getMessage.contains(s"CHI registry at $noRows holds the slabs []"), e.getMessage)
  }

  test("load of an empty registry path fails loudly") {
    intercept[Exception](ChiRegistry.load(spark, "target/testdata/nonexistent-chi"))
  }

  test("empty registry and incremental extension") {
    val e = ChiRegistry.empty(cfg)
    assert(e.size == 0 && e.totalBytes == 0L)
    val ext = new ChiRegistry(cfg, e.masks.append(Seq(ChiSlab.of(cfg, Seq(0L, 1L).map(id => id -> registry.get(id).get)))), e.aggregates)
    assert(ext.size == 2 && ext.contains(0L) && ext.contains(1L) && !ext.contains(2L))
    assert(e.size == 0 && !e.contains(0L))
  }

  test("a registry rejects an index built with another config") {
    val other = ChiIndex.build(store.load(0L), ChiConfig(16, 16, 4))
    val e = intercept[IllegalArgumentException](ChiRegistry.empty(cfg).masks.append(Seq(ChiSlab.of(other.cfg, Seq(0L -> other)))))
    assert(e.getMessage.contains("ChiConfig(16,16,4)"), e.getMessage)
    val e2 = intercept[IllegalArgumentException](Fixtures.registryOf(cfg, Seq(other)))
    assert(e2.getMessage.contains("ChiConfig(16,16,4)"), e2.getMessage)
  }

  test("broadcast registry resolves indexes inside tasks") {
    val spark0 = spark
    import spark0.implicits._
    val bc = chiBc
    val ok = spark
      .createDataset((0L until 10L).toSeq)
      .map(id => bc.value.get(id).isDefined)
      .collect()
    assert(ok.forall(identity))
  }
}
