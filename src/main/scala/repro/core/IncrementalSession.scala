package repro.core

import org.apache.spark.sql.SparkSession

import repro.store.{CatalogRow, MaskStore}

/** A MaskSearch session with incremental indexing (§3.6) — the paper's MS-II.
  *
  * The session starts with an empty (or previously persisted) registry and
  * runs the [[Kernel]]'s threshold policy with every mask its own unit. An
  * indexed mask is classified from its bounds on the driver; a mask the
  * session has not indexed yet is always Case 3, answered the baseline way
  * — loaded from disk and evaluated exactly — and its CHI is built as a side
  * effect of that load and added to the registry for future queries.
  *
  * So the cost of indexing a mask is paid at most once, and only if some
  * query actually touches the mask. `persist` saves the registry for future
  * sessions.
  */
final class IncrementalSession(
    spark: SparkSession,
    store: MaskStore,
    val cfg: ChiConfig,
) {

  private var registry = ChiRegistry.empty(cfg)

  def indexedCount: Int = registry.size

  def preload(r: ChiRegistry): Unit = registry = registry ++ r.indexes.values

  /** The current registry (immutable: later queries do not change it). */
  def snapshot: ChiRegistry = registry

  /** Execute a Filter query over the given targeted catalog rows. */
  def runFilter(target: Seq[CatalogRow], pred: Predicate): FilterVerifyResult = {
    val meter = new Meter(store)
    val value = MaskValue(pred.expr)
    val reg = registry
    val cases = target.map { r =>
      (r, Kernel.classify(pred.op, pred.threshold, Option.when(reg.contains(r.mask_id))(value.bounds(Seq(r), reg))))
    }
    val open = cases.collect { case (r, FilterOutcome.Uncertain) => (r, reg.contains(r.mask_id)) }

    // One job loads every Case 3 mask, verifies it, and indexes the ones
    // the session has not indexed yet. Local copies keep the task closure
    // from capturing `this`, which holds the SparkSession.
    val (storeLocal, cfgLocal) = (store, cfg)
    val checked =
      if (open.isEmpty) Array.empty[(CatalogRow, Boolean, Option[ChiIndex])]
      else
        spark.sparkContext
          .parallelize(open)
          .map { case (r, indexed) =>
            val m = storeLocal.loadPath(r.path)
            (r, pred.op.holds(value.exact(Seq(r), _ => m), pred.threshold), Option.unless(indexed)(ChiIndex.build(m, cfgLocal)))
          }
          .collect()
    registry = registry ++ checked.flatMap(_._3)

    FilterVerifyResult(
      (cases.collect { case (r, FilterOutcome.Pass) => r } ++ checked.collect { case (r, true, _) => r })
        .sortBy(_.mask_id).toArray,
      meter.stats(cases.map(_._2)),
    )
  }

  /** Persist the registry built so far (end-of-session step of §3.6). */
  def persist(path: String): Unit = ChiRegistry.save(spark, snapshot, path)
}
