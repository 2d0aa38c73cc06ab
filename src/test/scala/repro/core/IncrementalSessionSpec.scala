package repro.core

import repro.{SparkSpec, StageTasks, TestData}
import repro.baseline.ScanBaseline
import repro.store.CatalogRow

/** Tests for incremental indexing (§3.6): correctness of results while the
  * index is being built on the fly, registry growth, amortisation, and
  * session persistence.
  */
class IncrementalSessionSpec extends SparkSpec {
  import TestData._

  private lazy val allRows: IndexedSeq[CatalogRow] =
    repro.store.MaskStore.asRows(catalogM1).collect().toIndexedSeq.sortBy(_.mask_id)

  private def pred(t: Double) = Predicate(CpExpr.term(ObjectRoi, 0.7, 1.0), Gt, t)

  test("first query on an empty session equals the baseline and loads everything") {
    val s = new IncrementalSession(spark, store, cfg)
    val res = s.runFilter(allRows, pred(30))
    val base = ScanBaseline.filterMasks(catalogM1, pred(30), store)
    assert(res.maskIds.toSeq == base.maskIds.toSeq)
    assert(res.stats.masksLoaded == allRows.size, "no index yet: behaves like the baseline")
    assert(s.indexedCount == allRows.size, "every loaded mask got indexed en route")
  }

  test("second query over the same masks uses the freshly built index") {
    val s = new IncrementalSession(spark, store, cfg)
    s.runFilter(allRows, pred(30))
    val res2 = s.runFilter(allRows, pred(55))
    val base = ScanBaseline.filterMasks(catalogM1, pred(55), store)
    assert(res2.maskIds.toSeq == base.maskIds.toSeq)
    assert(res2.stats.masksLoaded < allRows.size, "index must now prune")
  }

  test("partially indexed session mixes both paths correctly") {
    val s = new IncrementalSession(spark, store, cfg)
    val half = allRows.take(allRows.size / 2)
    s.runFilter(half, pred(30))
    assert(s.indexedCount == half.size)
    val res = s.runFilter(allRows, pred(40))
    val base = ScanBaseline.filterMasks(catalogM1, pred(40), store)
    assert(res.maskIds.toSeq == base.maskIds.toSeq)
    assert(s.indexedCount == allRows.size)
  }

  test("indexes are built only for targeted masks") {
    val s = new IncrementalSession(spark, store, cfg)
    val subset = allRows.take(10)
    s.runFilter(subset, pred(30))
    assert(s.indexedCount == 10)
    assert(s.snapshot.contains(subset.head.mask_id))
    assert(!s.snapshot.contains(allRows.last.mask_id))
  }

  test("incremental indexes equal ahead-of-time indexes") {
    val s = new IncrementalSession(spark, store, cfg)
    s.runFilter(allRows.take(5), pred(30))
    val id = allRows.head.mask_id
    assert(s.snapshot.get(id).get.counts.toSeq == registry.get(id).get.counts.toSeq)
  }

  test("preloading a persisted registry resumes a session (§3.6 persistence)") {
    val s = new IncrementalSession(spark, store, cfg)
    s.runFilter(allRows.take(20), pred(30))
    s.persist("target/testdata/chi-incremental")
    val s2 = new IncrementalSession(spark, store, cfg)
    s2.preload(ChiRegistry.load(spark, "target/testdata/chi-incremental"))
    assert(s2.indexedCount == 20)
    val res = s2.runFilter(allRows.take(20), pred(45))
    val sub = spark.createDataFrame(allRows.take(20))
    val base = ScanBaseline.filterMasks(sub, pred(45), store)
    assert(res.maskIds.toSeq == base.maskIds.toSeq)
    assert(res.stats.masksLoaded < 20)
  }

  test("a snapshot whose slots are out of key order saves and loads with every view and bound unchanged") {
    val s = new IncrementalSession(spark, store, cfg)
    val (later, earlier) = (allRows.slice(30, 50), allRows.take(20))
    s.runFilter(later, pred(30))
    s.runFilter(earlier, pred(30)) // smaller ids, in slots after the first query's
    val snap = s.snapshot
    assert(snap.masks.slot(earlier.head.mask_id) > snap.masks.slot(later.head.mask_id))
    s.persist("target/testdata/chi-incremental-order")
    val back = ChiRegistry.load(spark, "target/testdata/chi-incremental-order")
    assert(back.size == 40)
    val r = new java.util.Random(5)
    (earlier ++ later).foreach { row =>
      val (got, want) = (back.get(row.mask_id).get, snap.get(row.mask_id).get)
      assert(got.counts == want.counts && got.sizeBytes == want.sizeBytes, s"mask ${row.mask_id}")
      for (_ <- 0 until 10) {
        val (roi, range) = (Fixtures.randomRoi(r, ds.w, ds.h), Fixtures.randomRange(r))
        assert(got.bounds(roi, range) == Fixtures.referenceBounds(want, roi, range), s"mask ${row.mask_id} $roi $range")
      }
    }
  }

  test("preloading a registry built with another config is rejected") {
    val other = ChiConfig(16, 16, 4)
    val s = new IncrementalSession(spark, store, cfg)
    intercept[IllegalArgumentException](s.preload(ChiRegistry.empty(other) ++ Seq(ChiIndex.build(store.load(0L), other))))
    assert(s.indexedCount == 0)
  }

  test("indexes built by queries share the session's config instance") {
    val s = new IncrementalSession(spark, store, cfg)
    s.runFilter(allRows.take(20), pred(30))
    assert(allRows.take(20).forall(r => s.snapshot.get(r.mask_id).get.cfg eq s.snapshot.cfg))
  }

  test("stats bookkeeping on a mixed query") {
    val s = new IncrementalSession(spark, store, cfg)
    s.runFilter(allRows.take(30), pred(30))
    val st = s.runFilter(allRows.take(45), pred(35)).stats
    assert(st.nTargeted == 45)
    // 15 unindexed masks were loaded + however many indexed ones were uncertain.
    assert(st.masksLoaded >= 15 && st.masksLoaded <= 45)
  }

  test("one stage loads, verifies and indexes a query's masks") {
    val s = new IncrementalSession(spark, store, cfg)
    s.runFilter(allRows.take(30), pred(30))
    val (res, stages) = StageTasks.updating(spark, store.loads)(s.runFilter(allRows, pred(35)))
    assert(res.stats.masksLoaded >= allRows.size - 30)
    assert(s.indexedCount == allRows.size)
    assert(stages.size == 1, s"mask-loading stages ran ${stages.mkString(", ")} task(s)")
  }
}
