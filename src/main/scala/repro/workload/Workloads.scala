package repro.workload

import scala.util.Random

import repro.core._
import repro.store.CatalogRow

/** One query of a multi-query workload: a Filter query over a targeted subset
  * of the dataset's masks (§4.5).
  */
final case class WorkloadQuery(target: IndexedSeq[CatalogRow], pred: Predicate)

/** Generator for the paper's multi-query workloads (§4.5).
  *
  * Each workload is a stream of Filter queries with randomized parameters
  * (§4.3: `roi = object`, lv/uv drawn from {0.1 … 0.9} with uv > lv, T
  * uniform in [0, #pixels]). Each query targets `n ∈ {0.1, 0.2, 0.3}·N`
  * masks sampled without replacement as `p_seen` fraction previously-targeted
  * masks and `1 − p_seen` unseen ones; when fewer unseen masks remain than
  * requested, all of them are included and subsequent queries sample only
  * seen masks — exactly the paper's procedure.
  */
object Workloads {

  /** A random value range (lv, uv) per §4.3: two draws from `r`. */
  def randomRange(r: Random): (Double, Double) = {
    val lv = (1 + r.nextInt(8)) / 10.0           // 0.1 … 0.8
    val uv = (math.round(lv * 10).toInt + 1 + r.nextInt(9 - math.round(lv * 10).toInt)) / 10.0 // lv < uv ≤ 0.9
    (lv, uv)
  }

  /** Randomized Filter-query parameters per §4.3. */
  def randomFilterPredicate(r: Random, maskPixels: Long): Predicate = {
    val (lv, uv) = randomRange(r)
    val t = r.nextLong(maskPixels + 1)
    Predicate(CpExpr.term(ObjectRoi, lv, uv), Gt, t.toDouble)
  }

  def generate(
      rows: IndexedSeq[CatalogRow],
      nQueries: Int,
      pSeen: Double,
      seed: Long,
  ): Seq[WorkloadQuery] = {
    val r = new Random(seed)
    val n = rows.length
    val maskPixels = rows.head.w.toLong * rows.head.h
    val seen = scala.collection.mutable.LinkedHashSet.empty[Int] // indexes into rows
    val unseen = scala.collection.mutable.LinkedHashSet.empty[Int]
    unseen ++= rows.indices

    def sample(from: scala.collection.mutable.LinkedHashSet[Int], k: Int): Seq[Int] = {
      val pool = from.toArray
      r.shuffle(pool.toIndexedSeq).take(k)
    }

    (0 until nQueries).map { _ =>
      val target = (n * (0.1 * (1 + r.nextInt(3)))).toInt.max(1)
      val wantSeen = math.round(target * pSeen).toInt
      val wantUnseen = target - wantSeen

      val fromUnseen =
        if (unseen.size < wantUnseen) unseen.toSeq // include all remaining unseen
        else sample(unseen, wantUnseen)
      val needSeen = target - fromUnseen.size
      val fromSeen = sample(seen, math.min(needSeen, seen.size))
      // First queries may not have enough seen masks — top up from unseen.
      val topUp =
        if (fromSeen.size < needSeen)
          sample(unseen --= fromUnseen, needSeen - fromSeen.size)
        else Seq.empty

      val chosen = (fromUnseen ++ fromSeen ++ topUp).distinct
      chosen.foreach { i => seen += i; unseen -= i }
      WorkloadQuery(chosen.map(rows).toIndexedSeq, randomFilterPredicate(r, maskPixels))
    }
  }
}
