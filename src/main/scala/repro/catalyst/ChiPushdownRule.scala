package repro.catalyst

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.logical.{Filter, LogicalPlan}
import org.apache.spark.sql.catalyst.rules.Rule

import repro.core.{ChiRegistry, CmpOp, Gt, Lt}

/** The filter–verification framework (§3.2) expressed as Catalyst predicate
  * pushdown: a logical-plan rule that rewrites
  *
  * {{{
  *   Filter(cp_mask(id, path, roi…, lv, uv) > T, child)
  * }}}
  *
  * into
  *
  * {{{
  *   Filter(chi_lower(…) > T  OR  (chi_upper(…) > T  AND  cp_mask_verify(…) > T), child)
  * }}}
  *
  * Catalyst's `Or`/`And` short-circuit, so per row: a lower bound above T
  * accepts the mask with no disk access (Case 2); an upper bound at or below
  * T rejects it with no disk access (Case 1, via the failed `And` guard); only
  * the uncertain band (Case 3) evaluates `cp_mask_verify`, which loads the
  * mask. `cp < T` is rewritten with the bound roles mirrored (§3.3). The rule
  * leaves `verifyOnly` expressions alone, so it is idempotent under the
  * optimizer's fixed-point execution.
  */
final case class ChiPushdownRule(registry: Broadcast[ChiRegistry]) extends Rule[LogicalPlan] {

  /** cp_mask children: (mask_id, path, x1, y1, x2, y2, lv, uv) — the bound
    * expressions take all but `path`.
    */
  private def boundChildren(cp: CpMaskExpr): Seq[Expression] =
    cp.children.head +: cp.children.drop(2)

  private def rewritable(cp: CpMaskExpr): Boolean = !cp.verifyOnly

  /** `cp op t` as filter–verification: one bound passes the row (Case 2), the
    * other fails it (Case 1), and only the band between loads the mask (Case 3).
    */
  private def rewrite(cp: CpMaskExpr, op: CmpOp, t: Expression): Expression = {
    def cmp(e: Expression): Expression = op match {
      case Gt => GreaterThan(e, t)
      case Lt => LessThan(e, t)
    }
    def bound(upper: Boolean) = ChiBoundExpr(boundChildren(cp), registry, upper)
    Or(cmp(bound(upper = op == Lt)), And(cmp(bound(upper = op == Gt)), cmp(cp.copy(verifyOnly = true))))
  }

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transform {
    case f @ Filter(cond, _) =>
      val rewritten = cond.transformUp {
        // cp > T  /  T < cp
        case GreaterThan(cp: CpMaskExpr, t) if rewritable(cp) && t.deterministic => rewrite(cp, Gt, t)
        case LessThan(t, cp: CpMaskExpr) if rewritable(cp) && t.deterministic   => rewrite(cp, Gt, t)
        // cp < T  /  T > cp
        case LessThan(cp: CpMaskExpr, t) if rewritable(cp) && t.deterministic   => rewrite(cp, Lt, t)
        case GreaterThan(t, cp: CpMaskExpr) if rewritable(cp) && t.deterministic => rewrite(cp, Lt, t)
      }
      if (rewritten fastEquals cond) f else f.copy(condition = rewritten)
  }
}
