package repro.catalyst

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import repro.core.{BoundPlan, ChiRegistry, ChiSlab, Roi, ValueRange}
import repro.store.MaskStore

/** Numeric coercion for expression arguments: SQL literals arrive as
  * Int/Long/Decimal/Double depending on how the query spells them
  * (`AbstractDataType`-based implicit casts are `private[sql]`, so the
  * expressions coerce explicitly instead of declaring input types).
  */
private[catalyst] object Coerce {
  def toIntVal(a: Any): Int = a match {
    case i: Int     => i
    case l: Long    => l.toInt
    case s: Short   => s.toInt
    case b: Byte    => b.toInt
    case d: Decimal => d.toLong.toInt
    case d: Double  => d.toInt
    case f: Float   => f.toInt
    case other      => throw new IllegalArgumentException(s"not an integer: $other")
  }
  def toLongVal(a: Any): Long = a match {
    case l: Long    => l
    case i: Int     => i.toLong
    case d: Decimal => d.toLong
    case other      => throw new IllegalArgumentException(s"not a long: $other")
  }
  def toDoubleVal(a: Any): Double = a match {
    case d: Double  => d
    case f: Float   => f.toDouble
    case i: Int     => i.toDouble
    case l: Long    => l.toDouble
    case d: Decimal => d.toDouble
    case other      => throw new IllegalArgumentException(s"not a double: $other")
  }
}

/** Catalyst expression computing the exact CP function over a mask stored on
  * disk: `cp_mask(mask_id, path, x1, y1, x2, y2, lv, uv) → BIGINT`.
  *
  * Evaluating it loads the mask file ([[MaskStore.loadMask]], counted by
  * the store), which fails, naming the mask and the path, when the file
  * cannot be read or its header names another mask, so a misplaced file
  * never answers for another row. Loading is precisely why
  * [[ChiPushdownRule]] rewrites comparisons against it so that
  * it only runs for masks in the uncertain band. `verifyOnly = true` marks
  * instances the rule has already wrapped, making the rewrite idempotent.
  */
final case class CpMaskExpr(
    children: Seq[Expression],
    store: MaskStore,
    verifyOnly: Boolean,
) extends Expression
    with CodegenFallback {

  require(children.length == 8, s"cp_mask expects 8 arguments, got ${children.length}")

  override def dataType: DataType = LongType
  override def nullable: Boolean = false
  override def prettyName: String = if (verifyOnly) "cp_mask_verify" else "cp_mask"

  override def eval(input: InternalRow): Any = {
    import Coerce._
    val maskId = toLongVal(children(0).eval(input))
    val path = children(1).eval(input).asInstanceOf[UTF8String].toString
    val x1 = toIntVal(children(2).eval(input))
    val y1 = toIntVal(children(3).eval(input))
    val x2 = toIntVal(children(4).eval(input))
    val y2 = toIntVal(children(5).eval(input))
    val lv = toDoubleVal(children(6).eval(input))
    val uv = toDoubleVal(children(7).eval(input))
    val mask = store.loadMask(maskId, path)
    mask.cp(Roi(x1, y1, x2, y2), ValueRange(lv, uv))
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}

/** Catalyst expression returning the CHI lower or upper bound of a CP call:
  * `chi_bound(mask_id, x1, y1, x2, y2, lv, uv) → BIGINT`. Index lookups only
  * — never touches mask files; masks absent from the registry fall back to
  * the trivial bounds `[0, |roi|]` so the rewrite stays correct.
  *
  * Each instance reads the registry's mask slab directly through one
  * [[BoundPlan]] compiled for its value range, rebuilt only when a row's
  * range differs from the last row's, so a row builds no plan, index view
  * or bounds object. That plan is mutable state, so the expression is
  * [[stateful]]: Spark gives every task its own copy.
  */
final case class ChiBoundExpr(
    children: Seq[Expression],
    registry: Broadcast[ChiRegistry],
    upper: Boolean,
) extends Expression
    with CodegenFallback {

  require(children.length == 7, s"chi_bound expects 7 arguments, got ${children.length}")

  override def dataType: DataType = LongType
  override def nullable: Boolean = false
  override def prettyName: String = if (upper) "chi_upper" else "chi_lower"
  override def stateful: Boolean = true

  @transient private var slab: ChiSlab = _
  @transient private var plan: BoundPlan = _
  @transient private var lv, uv = 0.0

  override def eval(input: InternalRow): Any = {
    import Coerce._
    val maskId = toLongVal(children(0).eval(input))
    val x1 = toIntVal(children(1).eval(input))
    val y1 = toIntVal(children(2).eval(input))
    val x2 = toIntVal(children(3).eval(input))
    val y2 = toIntVal(children(4).eval(input))
    val rowLv = toDoubleVal(children(5).eval(input))
    val rowUv = toDoubleVal(children(6).eval(input))
    if (plan == null || rowLv != lv || rowUv != uv) {
      if (slab == null) slab = registry.value.masks
      plan = new BoundPlan(slab.cfg, slab.w, slab.h, ValueRange(rowLv, rowUv))
      lv = rowLv
      uv = rowUv
    }
    slab.eval(plan, maskId, x1, y1, x2, y2)
    if (upper) plan.upper else plan.lower
  }

  override protected def withNewChildrenInternal(newChildren: IndexedSeq[Expression]): Expression =
    copy(children = newChildren)
}
