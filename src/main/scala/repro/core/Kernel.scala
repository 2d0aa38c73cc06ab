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
  * `masksLoaded` counts the masks of the units an engine verified; the
  * store's load accumulator counts the same loads independently.
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

/** Measures one query's wall time from its creation. */
final class Meter {
  private val t0 = System.nanoTime()

  def stats(nTargeted: Long, nDirect: Long, nUncertain: Long, masksLoaded: Long): QueryStats =
    QueryStats(nTargeted, nTargeted - nDirect - nUncertain, nDirect, nUncertain, masksLoaded,
      (System.nanoTime() - t0) / 1_000_000)
}

/** The filter–verification kernel shared by every engine: bound each unit
  * from the CHI, load only the units the bounds cannot decide. A unit is one
  * mask, or the masks of one image (§3.4), and its value a [[GroupValue]].
  *
  * The filter stage runs on the driver, over the [[Units]] it holds and the
  * registry behind the broadcast (on the driver, the object itself): a
  * [[Bounder]] compiled once per query bounds every unit with no allocation
  * and no disk access. A Spark job runs only to verify Case 3 units.
  */
object Kernel {

  /** The filter case (§3.2.1) of every unit, by index. */
  private def classify(units: Units, bound: Bounder, op: CmpOp, t: Double): Array[Int] = {
    val cases = new Array[Int](units.size)
    var i = 0
    while (i < cases.length) {
      bound(units.members(i))
      cases(i) = op.classify(bound.lower, bound.upper, t)
      i += 1
    }
    cases
  }

  /** Masks of the units at indices `at`. */
  private def masksOf(units: Units, at: Iterable[Int]): Long = at.iterator.map(units.members(_).size.toLong).sum

  /** Threshold policy (§3.2 / §3.3): classify every unit from the CHI on the
    * driver (Case 1 and 2, no disk), then load and test the Case 3 units in
    * one job. Returns the units with `value op t`, by key.
    */
  def filter(
      units: Units,
      value: GroupValue,
      op: CmpOp,
      t: Double,
      store: MaskStore,
      chi: Broadcast[ChiRegistry],
  ): (Array[(Long, Seq[CatalogRow])], QueryStats) = {
    val meter = new Meter
    val cases = classify(units, value.bounder(chi.value), op, t)
    val open = cases.indices.filter(cases(_) == FilterOutcome.Uncertain).toArray
    val verified = units.mapAt(open)((_, rows) => op.holds(value.exact(rows, store.loadRow), t))
    val passed = cases.map(_ == FilterOutcome.Pass)
    open.indices.foreach(j => passed(open(j)) = verified(j))
    (passed.indices.filter(passed(_)).map(i => (units.keys(i), units.members(i))).toArray,
      meter.stats(units.size, cases.count(_ == FilterOutcome.Pass), open.length, masksOf(units, open)))
  }

  /** Top-k policy (§3.5): Fagin–Lotem–Naor's threshold algorithm over
    * interval bounds, in two phases that suit a dataflow engine. Bound every
    * unit on the driver. Seed with the k units ranked best by bound and take
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
    val meter = new Meter
    val bound = value.bounder(chi.value)
    val lo = new Array[Double](units.size)
    val hi = new Array[Double](units.size)
    for (i <- 0 until units.size) { bound(units.members(i)); lo(i) = bound.lower; hi(i) = bound.upper }
    var nDirect, nVerified = 0
    var loaded = 0L
    def unit(i: Int): (Long, Seq[CatalogRow]) = (units.keys(i), units.members(i))
    def resolve(at: Array[Int]): Array[((Long, Seq[CatalogRow]), Double)] = {
      val (known, open) = at.partition(i => lo(i) == hi(i))
      nDirect += known.length
      nVerified += open.length
      loaded += masksOf(units, open)
      known.map(i => (unit(i), lo(i))) ++
        open.zip(units.mapAt(open)((_, rows) => value.exact(rows, store.loadRow))).map { case (i, v) => (unit(i), v) }
    }
    // Scores order both directions alike: lower is better.
    def score(v: Double): Double = if (descending) -v else v
    def bestScore(i: Int): Double = score(if (descending) hi(i) else lo(i))

    val ranked = Array.range(0, units.size).sortBy(i => (bestScore(i), units.keys(i)))
    val seed = resolve(ranked.take(k))
    val rest = ranked.drop(k)
    val exact =
      if (k <= 0 || rest.isEmpty) seed
      else {
        val tau = seed.map(u => score(u._2)).sorted.apply(k - 1)
        seed ++ resolve(rest.filter(bestScore(_) <= tau))
      }
    (exact.sortBy(u => (score(u._2), u._1._1)).take(k), meter.stats(units.size, nDirect, nVerified, loaded))
  }
}
