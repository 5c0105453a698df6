package repro.kg

import org.apache.spark.sql.catalyst.plans.logical.Aggregate
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkActivity, SparkSpec}

class KGBuilderSpec extends SparkSpec {

  private def tinyTables = {
    import spark.implicits._
    DatasetTables(
      users = Seq((1L, "M"), (2L, "F")).toDF("user_id", "gender"),
      ratings = Seq(
        (1L, 1L, 5.0, 1_000_000_000L),
        (1L, 2L, 3.0, 1_010_000_000L),
        (2L, 1L, 4.0, 1_020_000_000L),
      ).toDF("user_id", "item_id", "rating", "ts"),
      itemExt = Seq((1L, 1L), (2L, 1L), (2L, 2L)).toDF("item_id", "ext_id"),
      userExt = Seq((2L, 2L)).toDF("user_id", "ext_id"),
    )
  }

  test("node construction: counts and type partition") {
    val kg = KGBuilder.build(spark, tinyTables)
    assert(kg.nUsers == 2 && kg.nItems == 2 && kg.nExternal == 2)
    assert(kg.numNodes == 6)
    val byType = kg.nodes.groupBy("ntype").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(byType == Map("user" -> 2L, "item" -> 2L, "external" -> 2L))
  }

  test("build on ML1M-sim starts no Spark job, and each lazy count is its node type's count") {
    val tables = MLSynth.ml1m(spark, scale = 0.05)
    val (kg, activity) = SparkActivity.during(spark.sparkContext)(KGBuilder.build(spark, tables))
    assert(activity.jobs == 0, s"KGBuilder.build started ${activity.jobs} Spark jobs")
    val byType = kg.nodes.groupBy("ntype").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(kg.nUsers.toLong == byType("user"))
    assert(kg.nItems.toLong == byType("item"))
    assert(kg.nExternal.toLong == byType("external"))
    assert(kg.numNodes == byType.values.sum)
  }

  test("the user count reads the user rows only, not the item and external distincts") {
    val kg = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05))
    def aggregates(ntype: String): Int =
      kg.ofType(ntype).queryExecution.optimizedPlan.collect { case a: Aggregate => a }.size
    assert(aggregates("user") == 0)
    assert(aggregates("item") > 0 && aggregates("external") > 0)
  }

  test("edge construction: one edge per table row, typed") {
    val kg = KGBuilder.build(spark, tinyTables)
    val byType = kg.edges.groupBy("etype").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(byType == Map("user-item" -> 3L, "item-external" -> 3L, "user-external" -> 1L))
  }

  test("user-item weights follow w_M = beta1*r with beta2 = 0 (paper default)") {
    val kg = KGBuilder.build(spark, tinyTables, KGParams(beta1 = 2.0, beta2 = 0.0))
    val w = kg.edges.filter(col("etype") === "user-item")
      .select("src", "dst", "weight").collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    assert(w((1L, NodeIds.ItemBase + 1L)) == 10.0)
    assert(w((1L, NodeIds.ItemBase + 2L)) == 6.0)
    assert(w((2L, NodeIds.ItemBase + 1L)) == 8.0)
  }

  test("recency term: newer interactions weigh more, decay is exponential") {
    val params = KGParams(beta1 = 0.0, beta2 = 1.0, gamma = 1e-8, t0 = 1_020_000_000L)
    val kg = KGBuilder.build(spark, tinyTables, params)
    val w = kg.edges.filter(col("etype") === "user-item")
      .select("ts", "weight").collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    // f(t) = exp(-gamma (t0 - t)): most recent (t = t0) -> 1.0
    assert(math.abs(w(1_020_000_000L) - 1.0) < 1e-12)
    assert(math.abs(w(1_010_000_000L) - math.exp(-1e-8 * 1e7)) < 1e-12)
    assert(math.abs(w(1_000_000_000L) - math.exp(-1e-8 * 2e7)) < 1e-12)
    assert(w(1_000_000_000L) < w(1_010_000_000L))
  }

  test("external edges carry w_A") {
    val kg = KGBuilder.build(spark, tinyTables, KGParams(wA = 0.25))
    val ws = kg.edges.filter(col("etype") =!= "user-item").select("weight")
      .collect().map(_.getDouble(0)).toSet
    assert(ws == Set(0.25))
  }

  test("oracle: per-type edge counts match DuckDB over the raw tables") {
    val kg = KGBuilder.build(spark, tinyTables)
    val sparkDf = kg.edges.groupBy("etype").agg(count(lit(1)) as "n")
    Oracle.assertEquivalent(sparkDf,
      """SELECT etype, COUNT(*) AS n FROM (
        |  SELECT 'user-item' AS etype FROM ratings
        |  UNION ALL SELECT 'item-external' FROM item_ext
        |  UNION ALL SELECT 'user-external' FROM user_ext
        |) GROUP BY etype""".stripMargin,
      "ratings" -> tinyTables.ratings, "item_ext" -> tinyTables.itemExt,
      "user_ext" -> tinyTables.userExt)
  }

  test("oracle: w_M weight sum matches DuckDB's beta1*r + beta2*exp formula") {
    val params = KGParams(beta1 = 1.5, beta2 = 2.0, gamma = 1e-8, t0 = 1_020_000_000L)
    val kg = KGBuilder.build(spark, tinyTables, params)
    val sparkDf = kg.edges.filter(col("etype") === "user-item")
      .agg(round(sum("weight"), 6) as "total_w")
    Oracle.assertEquivalent(sparkDf,
      """SELECT ROUND(SUM(1.5 * CAST(rating AS DOUBLE) +
        |  2.0 * EXP(-1e-8 * (1020000000 - CAST(ts AS DOUBLE)))), 6) AS total_w
        |FROM ratings""".stripMargin,
      "ratings" -> tinyTables.ratings)
  }

  private def rejects(field: String, params: => KGParams): Unit = {
    val e = intercept[IllegalArgumentException](params)
    assert(e.getMessage.contains(s"KGParams.$field"), e.getMessage)
  }

  private val nonFinite = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  test("KGParams rejects a negative gamma") {
    rejects("gamma", KGParams(gamma = -1e-9))
    assert(KGParams(gamma = 0.0).gamma == 0.0)
  }

  test("KGParams rejects a non-finite gamma") {
    nonFinite.foreach(v => rejects("gamma", KGParams(gamma = v)))
  }

  test("KGParams rejects a non-finite beta1") {
    nonFinite.foreach(v => rejects("beta1", KGParams(beta1 = v)))
  }

  test("KGParams rejects a non-finite beta2") {
    nonFinite.foreach(v => rejects("beta2", KGParams(beta2 = v)))
  }

  test("KGParams rejects a non-finite wA") {
    nonFinite.foreach(v => rejects("wA", KGParams(wA = v)))
  }

  test("node ids are globally unique across types") {
    val kg = KGBuilder.build(spark, tinyTables)
    assert(kg.nodes.select("id").distinct().count() == kg.nodes.count())
  }

  test("the scale-0.05 ML1M-sim graph has its recorded vertex count, edge count and edge-triple hash") {
    // Sorted, so the edge-id order does not enter. Every golden fingerprint
    // of the recommenders and the summaries rests on this graph.
    val g = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05)).graph
    val triples = (0 until g.numEdges).map(e => (g.ids(g.edgeSrc(e)), g.ids(g.edgeDst(e)), g.edgeWeight(e))).sorted
    val md = java.security.MessageDigest.getInstance("MD5")
    triples.foreach { case (s, d, w) => md.update(s"$s,$d,$w\n".getBytes("UTF-8")) }
    val hash = md.digest().map(b => f"$b%02x").mkString
    info(s"${g.numVertices} vertices, ${g.numEdges} edges, triples $hash")
    assert((g.numVertices, g.numEdges, hash) == (1000, 11425, "4c5136a935f7d474a3b066ece4d46569"))
  }
}
