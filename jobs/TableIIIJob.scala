package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Summarizer
import repro.eval.Scalability
import repro.graph.GraphStats
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeIds}

/** Reproduces paper Table III (synthetic graph statistics) and the Fig 11
  * scalability experiment on those graphs: k = 10 recommended items,
  * user-centric and user-group (100 users) summaries over random 3-hop
  * paths. Optional arg: comma-separated node counts
  * (default 10000,15000,20000,25000,30000 — the paper's five graphs).
  *
  * Run: spark-submit --class repro.jobs.TableIIIJob <jar> [sizes]
  */
object TableIIIJob {
  def main(args: Array[String]): Unit = {
    val sizes = args.headOption.map(_.split(",").map(_.trim.toInt).toSeq)
      .getOrElse(Seq(10000, 15000, 20000, 25000, 30000))
    val spark = SparkSession.builder.appName("table3").getOrCreate()
    try {
      println("graph | users | items | external | nodes | edges | ST-uc ms | PCST-uc ms | ST-grp ms | PCST-grp ms")
      sizes.zipWithIndex.foreach { case (n, gi) =>
        val kg = KGBuilder.build(spark, MLSynth.synthetic(spark, n, seed = 13L + gi))
        val stats = GraphStats.compute(kg, sampleSources = 8)
        val kgIdx = KgIndex.fromKGraph(kg)
        val users = (1 to 100).map(u => NodeIds.user(u.toLong))
        val paths = Scalability.randomPaths(spark, kgIdx, users, k = 10, seed = 5L)
        val scen = Scalability.kScenarios(paths, paths.keys.min, Seq(10)) ++
          Scalability.groupScenarios(paths, Seq(100), k = 10)
        val rows = Scalability.measure(kgIdx,
          scen, Seq(Summarizer.ST(1.0), Summarizer.PCST()))
        def t(fam: String, m: String): Double =
          rows.find(r => r.family == fam && r.method.startsWith(m)).map(_.timeMs).getOrElse(-1)
        println(f"Graph ${gi + 1} | ${stats.nUsers} | ${stats.nItems} | ${stats.nExternal} | " +
          f"${stats.nNodes} | ${stats.totalEdges} | ${t("user-centric", "st")}%.1f | " +
          f"${t("user-centric", "pcst")}%.1f | ${t("user-group", "st")}%.1f | ${t("user-group", "pcst")}%.1f")
      }
    } finally spark.stop()
  }
}
