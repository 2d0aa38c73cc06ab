package repro.core

import org.apache.spark.broadcast.Broadcast

import repro.store.{CatalogRow, MaskStore}

/** Per-query execution statistics — the quantities the paper reports: the
  * number of masks loaded from disk (Table 2) and the fraction of masks
  * loaded, FML (§4.4), plus the Case 1/2/3 split of the filter stage, counted
  * in units (masks, or images for group queries).
  *
  * For top-k queries `nDirect` counts the units resolved from the index (point
  * bounds pin their exact value), `nUncertain` the units loaded and verified,
  * and `nPruned` the units whose bound cannot meet the k-th best value.
  */
final case class QueryStats(
    nTargeted: Long,
    nPruned: Long,
    nDirect: Long,
    nUncertain: Long,
    masksLoaded: Long,
    elapsedMs: Long,
) {
  def fml: Double = if (nTargeted == 0) 0.0 else masksLoaded.toDouble / nTargeted
}

/** Measures one query from its creation: the store's loads and the wall time. */
final class Meter(store: MaskStore) {
  private val loads0 = store.loads.value
  private val t0 = System.nanoTime()

  def stats(nTargeted: Long, nDirect: Long, nUncertain: Long): QueryStats =
    QueryStats(nTargeted, nTargeted - nDirect - nUncertain, nDirect, nUncertain,
      store.loads.value - loads0, (System.nanoTime() - t0) / 1_000_000)

  /** Stats from the [[FilterOutcome]] of every targeted unit. */
  def stats(outcomes: collection.Seq[Int]): QueryStats =
    stats(outcomes.size, outcomes.count(_ == FilterOutcome.Pass), outcomes.count(_ == FilterOutcome.Uncertain))
}

/** The filter–verification kernel shared by every engine: bound each unit
  * from the CHI, load only the units the bounds cannot decide. A unit is one
  * mask, or the masks of one image (§3.4), and its value a [[GroupValue]].
  * The Spark jobs run through [[Units]].
  */
object Kernel {

  /** The unit's filter case (§3.2.1); a unit without bounds (not indexed yet)
    * is always Case 3.
    */
  def classify(op: CmpOp, t: Double, bounds: Option[(Double, Double)]): Int =
    bounds.fold(FilterOutcome.Uncertain) { case (lo, hi) => op.classify(lo, hi, t) }

  /** Threshold policy (§3.2 / §3.3) in one fused job: each task classifies
    * its units from the broadcast CHI (Case 1 and 2, no disk) and loads and
    * tests only the Case 3 units. Returns the units with `value op t`, by key.
    */
  def filter(
      units: Units,
      value: GroupValue,
      op: CmpOp,
      t: Double,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): (Array[(Long, Seq[CatalogRow])], QueryStats) = {
    val meter = new Meter(store)
    val verdicts = units.map { (key, rows) =>
      val c = classify(op, t, Some(value.bounds(rows, chi.value)))
      val passed = c == FilterOutcome.Pass ||
        (c == FilterOutcome.Uncertain && op.holds(value.exact(rows, r => store.loadPath(r.path)), t))
      (c, Option.when(passed)((key, rows)))
    }
    (verdicts.flatMap(_._2).sortBy(_._1), meter.stats(verdicts.map(_._1)))
  }

  /** Top-k policy (§3.5): Fagin–Lotem–Naor's threshold algorithm over
    * interval bounds, in two phases that suit a dataflow engine. One job
    * bounds every unit. Seed with the k units ranked best by bound and take
    * τ, the k-th best of their exact values; every other unit whose bound
    * cannot meet τ is strictly worse than k units and is pruned. Units with
    * point bounds take their value from the index; each round loads the rest
    * in one job. Returns the best k units with their exact values, ties going
    * to the smaller key; `k <= 0` selects nothing.
    */
  def topK(
      units: Units,
      value: GroupValue,
      k: Int,
      descending: Boolean,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): (Array[((Long, Seq[CatalogRow]), Double)], QueryStats) = {
    val meter = new Meter(store)
    val bounded = units.map { (key, rows) =>
      val (lo, hi) = value.bounds(rows, chi.value)
      ((key, rows), lo, hi)
    }
    var nDirect, nVerified = 0
    def resolve(us: Array[((Long, Seq[CatalogRow]), Double, Double)]): Array[((Long, Seq[CatalogRow]), Double)] = {
      val (known, open) = us.partition(u => u._2 == u._3)
      nDirect += known.length
      nVerified += open.length
      known.map(u => (u._1, u._2)) ++
        Units.run(units.spark, open.map(_._1))((key, rows) => ((key, rows), value.exact(rows, r => store.loadPath(r.path))))
    }
    // Scores order both directions alike: lower is better.
    def score(v: Double): Double = if (descending) -v else v
    def bestScore(u: ((Long, Seq[CatalogRow]), Double, Double)): Double = score(if (descending) u._3 else u._2)

    val ranked = bounded.sortBy(u => (bestScore(u), u._1._1))
    val seed = resolve(ranked.take(k))
    val rest = ranked.drop(k)
    val exact =
      if (k <= 0 || rest.isEmpty) seed
      else {
        val tau = seed.map(u => score(u._2)).sorted.apply(k - 1)
        seed ++ resolve(rest.filter(bestScore(_) <= tau))
      }
    (exact.sortBy(u => (score(u._2), u._1._1)).take(k), meter.stats(bounded.length, nDirect, nVerified))
  }
}
