package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.kg.{KGBuilder, MLSynth}

class GraphStatsSpec extends SparkSpec {

  private lazy val kg = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05))
  private lazy val stats = GraphStats.compute(kg, sampleSources = 8)

  test("node counts add up") {
    assert(stats.nNodes == stats.nUsers + stats.nItems + stats.nExternal)
  }

  test("edge counts add up and match the DataFrame") {
    assert(stats.totalEdges ==
      stats.userItemEdges + stats.itemExternalEdges + stats.userExternalEdges)
    assert(stats.totalEdges == kg.edges.count())
  }

  test("average degrees are consistent with the counts") {
    assert(math.abs(stats.avgUserDegree - stats.userItemEdges.toDouble / stats.nUsers) < 1e-9)
    assert(math.abs(stats.avgItemDegreeToExternal -
      stats.itemExternalEdges.toDouble / stats.nItems) < 1e-9)
  }

  test("density uses the undirected pair count (paper's 0.0057 convention)") {
    val n = stats.nNodes.toDouble
    assert(math.abs(stats.density - stats.totalEdges / (n * (n - 1) / 2)) < 1e-12)
  }

  test("path-length stats: positive, diameter >= avg path length") {
    assert(stats.avgPathLength > 1.0)
    assert(stats.diameter >= stats.avgPathLength)
    assert(stats.diameter < 30)
  }

  test("oracle: per-layer edge counts match DuckDB") {
    val sparkDf = kg.edges.groupBy("etype").agg(count(lit(1)) as "n")
    Oracle.assertEquivalent(sparkDf,
      "SELECT etype, COUNT(*) AS n FROM edges GROUP BY etype",
      "edges" -> kg.edges.select("src", "dst", "etype"))
  }

  test("oracle: average user degree matches DuckDB aggregation") {
    val sparkDf = kg.edges.filter(col("etype") === "user-item")
      .groupBy("src").agg(count(lit(1)) as "d")
      .agg(round(avg("d"), 6) as "avg_deg")
    Oracle.assertEquivalent(sparkDf,
      """SELECT ROUND(AVG(d), 6) AS avg_deg FROM (
        |  SELECT src, COUNT(*) AS d FROM edges WHERE etype = 'user-item' GROUP BY src
        |)""".stripMargin,
      "edges" -> kg.edges.select("src", "dst", "etype"))
  }

  test("graphx degrees match the DataFrame degree aggregation") {
    val small = kg.edges.limit(500).cache()
    val viaGraphx = GraphStatsSpec.graphxDegrees(spark, small)
    val viaDf = small.select(col("src") as "id").union(small.select(col("dst") as "id"))
      .groupBy("id").count().collect().map(r => r.getLong(0) -> r.getLong(1).toInt).toMap
    assert(viaGraphx == viaDf)
    small.unpersist()
  }
}

object GraphStatsSpec {

  /** Degree distribution via GraphX — used to cross-check the DataFrame
    * aggregation (and to exercise the GraphX build path end-to-end).
    */
  def graphxDegrees(spark: SparkSession, edges: DataFrame): Map[Long, Int] = {
    import org.apache.spark.graphx.{Edge, Graph}
    val rdd = edges.selectExpr("cast(src as long)", "cast(dst as long)")
      .rdd.map(r => Edge(r.getLong(0), r.getLong(1), 1.0))
    Graph.fromEdges(rdd, 0).degrees.collect().map { case (id, d) => id -> d }.toMap
  }
}
