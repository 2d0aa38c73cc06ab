package repro.catalyst

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.expr

import repro.{SparkSpec, TestData}
import repro.core._

/** Tests for the Catalyst integration: the `cp_mask` expression, the CHI
  * bound expressions, and the [[ChiPushdownRule]] filter→filter-verification
  * rewrite. The same SQL query is executed with the rule disabled (baseline:
  * loads every mask) and enabled (filter–verification: loads only the
  * uncertain band) and must return identical results.
  */
class CatalystSpec extends SparkSpec {
  import TestData._

  private def cpCall(x1: Int, y1: Int, x2: Int, y2: Int, lv: Double, uv: Double): String =
    s"cp_mask(mask_id, path, $x1, $y1, $x2, $y2, $lv, $uv)"

  private def objCall(lv: Double, uv: Double): String =
    s"cp_mask(mask_id, path, ox1, oy1, ox2, oy2, $lv, $uv)"

  private def run(df: => DataFrame, ruleOn: Boolean): (Seq[Long], Long) = {
    MaskSearchSession.registerFunctions(spark, store)
    if (ruleOn) MaskSearchSession.enableRule(spark, chiBc) else MaskSearchSession.disableRule(spark)
    try {
      val before = store.loads.value
      val ids = df.select("mask_id").collect().map(_.getLong(0)).sorted.toSeq
      (ids, store.loads.value - before)
    } finally MaskSearchSession.disableRule(spark)
  }

  private def compareBothModes(sqlCond: String): (Long, Long) = {
    def q = catalogM1.filter(expr(sqlCond))
    val (idsOff, loadsOff) = run(q, ruleOn = false)
    val (idsOn, loadsOn) = run(q, ruleOn = true)
    assert(idsOn == idsOff, s"rule changed the result of: $sqlCond")
    (loadsOff, loadsOn)
  }

  test("cp_mask evaluates the exact CP function") {
    MaskSearchSession.registerFunctions(spark, store)
    val row = catalogM1.selectExpr("mask_id", s"${cpCall(8, 8, 28, 28, 0.6, 1.0)} as v")
      .filter("mask_id = 0").collect().head
    val m = store.load(0)
    assert(row.getLong(1) == m.cp(Roi(8, 8, 28, 28), ValueRange(0.6, 1.0)))
  }

  test("cp_mask without the rule loads every targeted mask") {
    val (_, loads) = run(catalogM1.filter(expr(s"${cpCall(8, 8, 28, 28, 0.6, 1.0)} > 60")), ruleOn = false)
    assert(loads == ds.nImages)
  }

  test("rule rewrite: cp > T gives identical results with fewer loads") {
    val (loadsOff, loadsOn) = compareBothModes(s"${cpCall(8, 8, 28, 28, 0.6, 1.0)} > 60")
    assert(loadsOn < loadsOff, s"expected pruning: $loadsOn vs $loadsOff")
  }

  test("rule rewrite: cp < T (§3.3) gives identical results with fewer loads") {
    val (loadsOff, loadsOn) = compareBothModes(s"${cpCall(4, 4, 30, 30, 0.5, 1.0)} < 100")
    assert(loadsOn < loadsOff)
  }

  test("rule rewrite handles literal-on-the-left comparisons") {
    val (loadsOff, loadsOn) = compareBothModes(s"60 < ${cpCall(8, 8, 28, 28, 0.6, 1.0)}")
    assert(loadsOn < loadsOff)
  }

  test("rule rewrite works with per-mask object ROIs (paper Q2 shape)") {
    val (loadsOff, loadsOn) = compareBothModes(s"${objCall(0.8, 1.0)} > 40")
    assert(loadsOn < loadsOff)
  }

  test("rewrite composes with metadata predicates (AND)") {
    val (loadsOff, loadsOn) = compareBothModes(s"pred_class < 10 AND ${objCall(0.7, 1.0)} > 30")
    assert(loadsOn <= loadsOff)
  }

  test("optimized plan contains the bound expressions and the verify marker") {
    MaskSearchSession.registerFunctions(spark, store)
    MaskSearchSession.enableRule(spark, chiBc)
    try {
      val plan = catalogM1.filter(expr(s"${cpCall(8, 8, 28, 28, 0.6, 1.0)} > 60"))
        .queryExecution.optimizedPlan.toString
      assert(plan.contains("chi_lower") && plan.contains("chi_upper"), plan)
      assert(plan.contains("cp_mask_verify"), plan)
    } finally MaskSearchSession.disableRule(spark)
  }

  test("rewrite is idempotent: one rule application per cp_mask call") {
    MaskSearchSession.registerFunctions(spark, store)
    MaskSearchSession.enableRule(spark, chiBc)
    try {
      val plan = catalogM1.filter(expr(s"${cpCall(8, 8, 28, 28, 0.6, 1.0)} > 60"))
        .queryExecution.optimizedPlan.toString
      assert("chi_lower".r.findAllIn(plan).size == 1, plan)
      assert("cp_mask_verify".r.findAllIn(plan).size == 1, plan)
    } finally MaskSearchSession.disableRule(spark)
  }

  test("bound expressions agree with the core CHI bounds") {
    MaskSearchSession.registerFunctions(spark, store)
    MaskSearchSession.enableRule(spark, chiBc)
    try {
      // A predicate that is always true keeps lower/upper observable via plan
      // execution; instead compare a sample directly.
      val idx = registry.get(7L).get
      val b = idx.bounds(Roi(8, 8, 28, 28), ValueRange(0.6, 1.0))
      import org.apache.spark.sql.catalyst.expressions.Literal
      val children = Seq[org.apache.spark.sql.catalyst.expressions.Expression](
        Literal(7L), Literal(8), Literal(8), Literal(28), Literal(28), Literal(0.6), Literal(1.0))
      assert(ChiBoundExpr(children, chiBc, upper = false).eval(null) == b.lower)
      assert(ChiBoundExpr(children, chiBc, upper = true).eval(null) == b.upper)
    } finally MaskSearchSession.disableRule(spark)
  }

  test("one bound expression serves rows of changing masks, ROIs and ranges, each copy with its own plan") {
    import org.apache.spark.sql.catalyst.InternalRow
    import org.apache.spark.sql.catalyst.expressions.BoundReference
    import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType}
    val children = BoundReference(0, LongType, nullable = false) +:
      (1 to 4).map(BoundReference(_, IntegerType, nullable = false)) ++:
      (5 to 6).map(BoundReference(_, DoubleType, nullable = false))
    val lower = ChiBoundExpr(children, chiBc, upper = false)
    val upper = ChiBoundExpr(children, chiBc, upper = true)
    assert(lower.stateful && (lower.freshCopyIfContainsStatefulExpression() ne lower))
    val r = new java.util.Random(17)
    // Runs of one range, then a new one, as a column of per-row ranges gives them.
    for (i <- 0 until 300) {
      val id = if (i % 7 == 0) 999999L else r.nextInt(ds.nMasks).toLong
      val roi = Fixtures.randomRoi(r, ds.w, ds.h)
      val range = if (i % 50 < 25) ValueRange(0.6, 1.0) else Fixtures.randomRange(r)
      val row = InternalRow(id, roi.x1, roi.y1, roi.x2, roi.y2, range.lv, range.uv)
      val want = registry.get(id).fold(CpBounds(0L, roi.area))(_.bounds(roi, range))
      assert(lower.eval(row) == want.lower && upper.eval(row) == want.upper, s"mask $id $roi $range")
    }
  }

  test("unknown mask_id falls back to trivial bounds in ChiBoundExpr") {
    import org.apache.spark.sql.catalyst.expressions.Literal
    val children = Seq[org.apache.spark.sql.catalyst.expressions.Expression](
      Literal(999999L), Literal(1), Literal(1), Literal(4), Literal(4), Literal(0.1), Literal(0.9))
    assert(ChiBoundExpr(children, chiBc, upper = false).eval(null) == 0L)
    assert(ChiBoundExpr(children, chiBc, upper = true).eval(null) == 16L)
  }

  test("disableRule removes the rule") {
    MaskSearchSession.enableRule(spark, chiBc)
    MaskSearchSession.disableRule(spark)
    assert(!spark.experimental.extraOptimizations.exists(_.isInstanceOf[ChiPushdownRule]))
    MaskSearchSession.enableRule(spark, chiBc)
    MaskSearchSession.enableRule(spark, chiBc)
    assert(spark.experimental.extraOptimizations.count(_.isInstanceOf[ChiPushdownRule]) == 1)
    MaskSearchSession.disableRule(spark)
  }

  test("SQL-string end-to-end: registered function usable from spark.sql") {
    MaskSearchSession.registerFunctions(spark, store)
    catalogM1.createOrReplaceTempView("masks_view")
    MaskSearchSession.enableRule(spark, chiBc)
    try {
      val before = store.loads.value
      val ids = spark
        .sql(s"SELECT mask_id FROM masks_view WHERE ${objCall(0.8, 1.0)} > 40 ORDER BY mask_id")
        .collect().map(_.getLong(0)).toSeq
      val loads = store.loads.value - before
      val expected = repro.baseline.ScanBaseline
        .filterMasks(catalogM1, Predicate(CpExpr.term(ObjectRoi, 0.8, 1.0), Gt, 40), store)
        .maskIds.toSeq
      assert(ids == expected)
      assert(loads < ds.nImages)
    } finally MaskSearchSession.disableRule(spark)
  }
}
