package repro.core

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.store.{CatalogRow, MaskStore}

/** A MaskSearch session with incremental indexing (§3.6) — the paper's MS-II.
  *
  * The session starts from `start`, an empty registry by default or one a
  * previous session persisted, and runs the [[Kernel]]'s threshold policy
  * with every mask its own unit. An indexed mask is classified from its
  * bounds on the driver; a mask the session has not indexed yet is always
  * Case 3, answered the baseline way — loaded from disk and evaluated exactly
  * — and its CHI is built as a side effect of that load. After each query the
  * session's registry is replaced by one whose mask slab is a copy with the
  * new indexes appended ([[ChiSlab.append]]), so a [[snapshot]] never changes.
  *
  * So the cost of indexing a mask is paid at most once, and only if some
  * query actually touches the mask. `persist` saves the registry for future
  * sessions.
  */
final class IncrementalSession(
    spark: SparkSession,
    store: MaskStore,
    val cfg: ChiConfig,
    start: ChiRegistry,
) {
  require(start.cfg == cfg, s"a session of $cfg cannot start from a CHI registry of ${start.cfg}")

  /** A session that starts with no index. */
  def this(spark: SparkSession, store: MaskStore, cfg: ChiConfig) = this(spark, store, cfg, ChiRegistry.empty(cfg))

  private var registry = start

  def indexedCount: Int = registry.size

  /** The current registry (immutable: later queries do not change it). */
  def snapshot: ChiRegistry = registry

  /** Execute a Filter query over the given targeted catalog rows. */
  def runFilter(target: Seq[CatalogRow], pred: Predicate): FilterVerifyResult = {
    val meter = new Meter
    val reg = registry
    val plan = new ExprPlan(pred.expr, reg.masks)
    val rows = target.toArray
    val cases = rows.map { r =>
      if (!reg.contains(r.mask_id)) FilterOutcome.Uncertain
      else { reg.masks.eval(plan, r); pred.classify(plan.lower, plan.upper) }
    }
    // Every Case 3 mask, and whether to index it: each unindexed mask once.
    val scheduled = mutable.HashSet.empty[Long]
    val open = rows.indices.filter(cases(_) == FilterOutcome.Uncertain).map(rows)
      .map(r => (r, !reg.contains(r.mask_id) && scheduled.add(r.mask_id))).toArray

    // One job loads every Case 3 mask and verifies it; each task returns the
    // ids that pass and the indexes it built, as one slab. Local copies keep the
    // task closure from capturing `this`, which holds the SparkSession.
    val (storeLocal, cfgLocal) = (store, cfg)
    val checked = Units.slices(spark, open) { it =>
      val passed = mutable.ArrayBuffer.empty[Long]
      val built = mutable.ArrayBuffer.empty[(Long, ChiIndex)]
      it.foreach { case (r, index) =>
        val m = storeLocal.loadRow(r)
        if (pred.evalExact(r, m)) passed += r.mask_id
        if (index) built += r.mask_id -> ChiIndex.build(m, cfgLocal)
      }
      (passed.toArray, ChiSlab.of(cfgLocal, built))
    }
    registry = new ChiRegistry(cfg, reg.masks.append(checked.map(_._2).toSeq), reg.aggregates)

    val verified = checked.iterator.flatMap(_._1).toSet
    FilterVerifyResult(
      rows.indices
        .filter(i => cases(i) == FilterOutcome.Pass || (cases(i) == FilterOutcome.Uncertain && verified(rows(i).mask_id)))
        .map(rows).sortBy(_.mask_id).toArray,
      meter.stats(rows.length, cases.count(_ == FilterOutcome.Pass), open.length, open.length),
    )
  }

  /** Persist the registry built so far (end-of-session step of §3.6). */
  def persist(path: String): Unit = ChiRegistry.save(spark, snapshot, path)
}
