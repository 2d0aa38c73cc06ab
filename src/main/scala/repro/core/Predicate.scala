package repro.core

import repro.store.CatalogRow

/** How a query names its region of interest (§2.1): a constant box shared by
  * every mask, the per-mask foreground-object box from the catalog (the
  * paper's `roi = object`, produced by YOLOv5 there), or the full mask
  * (the paper's `CP(mask, -, ...)`).
  */
sealed trait RoiSpec extends Serializable {
  /** Resolve to a concrete box for one catalog row. */
  def resolve(row: CatalogRow): Roi = this match {
    case ConstRoi(r) => r
    case ObjectRoi   => Roi(row.ox1, row.oy1, row.ox2, row.oy2)
    case FullRoi     => Roi.full(row.w, row.h)
  }
}
final case class ConstRoi(roi: Roi) extends RoiSpec
case object ObjectRoi extends RoiSpec
case object FullRoi extends RoiSpec

/** One CP invocation: `CP(mask, roi, (lv, uv))`. */
final case class CpTerm(roi: RoiSpec, range: ValueRange)

/** An arithmetic expression over CP terms of a *single* mask — the paper's
  * generic predicates (§3.3): `CP₁ op₁ CP₂ … > T` for monotone ops. Bounds
  * are propagated with interval arithmetic ([[ExprPlan]]), which is exactly
  * the paper's per-term bound combination for +, −, and non-negative scaling.
  */
sealed trait CpExpr extends Serializable {
  /** All CP terms appearing in the expression. */
  def terms: Seq[CpTerm] = this match {
    case CpTermExpr(t) => Seq(t)
    case CpAdd(a, b)   => a.terms ++ b.terms
    case CpSub(a, b)   => a.terms ++ b.terms
    case CpScale(_, e) => e.terms
  }

  /** Exact value given an exact CP evaluator. */
  def eval(cp: CpTerm => Long): Double = this match {
    case CpTermExpr(t) => cp(t).toDouble
    case CpAdd(a, b)   => a.eval(cp) + b.eval(cp)
    case CpSub(a, b)   => a.eval(cp) - b.eval(cp)
    case CpScale(c, e) => c * e.eval(cp)
  }

  /** Exact value for one loaded mask and its catalog row. */
  def exact(row: CatalogRow, mask: Mask): Double = eval(t => mask.cp(t.roi.resolve(row), t.range))
}
final case class CpTermExpr(t: CpTerm) extends CpExpr
final case class CpAdd(a: CpExpr, b: CpExpr) extends CpExpr
final case class CpSub(a: CpExpr, b: CpExpr) extends CpExpr
final case class CpScale(c: Double, e: CpExpr) extends CpExpr

object CpExpr {
  def term(roi: RoiSpec, lv: Double, uv: Double): CpExpr =
    CpTermExpr(CpTerm(roi, ValueRange(lv, uv)))
}

/** Comparison operator of a one-sided predicate. */
sealed trait CmpOp extends Serializable {

  /** `v op t` for an exact value. */
  def holds(v: Double, t: Double): Boolean = this match {
    case Gt => v > t
    case Lt => v < t
  }

  /** Filter-stage case of a value known to lie in `[lower, upper]`
    * (§3.2.1 step 2 and its §3.3 mirror for `<`). Conservative on ties,
    * matching the strict inequalities of the paper's three cases.
    */
  def classify(lower: Double, upper: Double, t: Double): Int = this match {
    case Gt =>
      if (upper <= t) FilterOutcome.Fail
      else if (lower > t) FilterOutcome.Pass
      else FilterOutcome.Uncertain
    case Lt =>
      if (lower >= t) FilterOutcome.Fail
      else if (upper < t) FilterOutcome.Pass
      else FilterOutcome.Uncertain
  }
}
case object Gt extends CmpOp
case object Lt extends CmpOp

/** Outcome of the filter stage for one mask (§3.2.1 step 2). */
object FilterOutcome {
  val Fail = 0      // Case 1: guaranteed to fail — pruned
  val Pass = 1      // Case 2: guaranteed to satisfy — straight to the result
  val Uncertain = 2 // Case 3: must be verified by loading the mask
}

/** A one-sided filter predicate `expr op T` (§3.2 / §3.3). */
final case class Predicate(expr: CpExpr, op: CmpOp, threshold: Double) {

  /** Exact evaluation for a loaded mask. */
  def evalExact(row: CatalogRow, mask: Mask): Boolean = op.holds(expr.exact(row, mask), threshold)

  /** Filter-stage classification from CHI bounds ([[CmpOp.classify]]). */
  def classify(lower: Double, upper: Double): Int = op.classify(lower, upper, threshold)

  /** Classification for one catalog row from its mask's index, by an
    * [[ExprPlan]] compiled for this call. With no index, a plan of any shape
    * read at a negative base gives every term `[0, |roi|]`.
    */
  def classifyRow(row: CatalogRow, chi: Option[ChiIndex]): Int = {
    val plan = chi.fold(new ExprPlan(expr, ChiConfig(1, 1, 1), 0, 0))(i => new ExprPlan(expr, i.cfg, i.w, i.h))
    plan.eval(chi.fold(Array.emptyLongArray)(_.words), chi.fold(-1)(_.base), row)
    classify(plan.lower, plan.upper)
  }
}
