package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Summarizer
import repro.eval.Scalability
import repro.graph.GraphStats
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeIds}
import repro.rec.Pearlm

/** Reproduces paper Table III (synthetic graph statistics) and the Fig 11
  * scalability experiment on those graphs: k = 10 recommended items,
  * user-centric and user-group (100 users, or as many as get paths)
  * summaries over random 3-hop paths. Optional arg: comma-separated node counts
  * (default 10000,15000,20000,25000,30000 — the paper's five graphs).
  *
  * Run: spark-submit --class repro.jobs.TableIIIJob <jar> [sizes]
  */
object TableIIIJob {

  /** One Table III graph: its statistics and the Fig 11 median ST (λ = 1) and PCST
    * timings (ms) on one user's k = 10 paths and on `group` users' paths. */
  final case class Row(stats: GraphStats.Stats, stUserCentricMs: Double, pcstUserCentricMs: Double,
                       stGroupMs: Double, pcstGroupMs: Double, group: Int)

  def main(args: Array[String]): Unit = {
    val sizes = args.headOption.map(_.split(",").map(_.trim.toInt).toSeq)
      .getOrElse(Seq(10000, 15000, 20000, 25000, 30000))
    val spark = SparkSession.builder.appName("table3").getOrCreate()
    try {
      println("graph | users | items | external | nodes | edges | ST-uc ms | PCST-uc ms | ST-grp ms | PCST-grp ms | group")
      run(spark, sizes, groupSize = 100).zipWithIndex.foreach { case (Row(s, stUc, pcstUc, stGrp, pcstGrp, g), gi) =>
        println(f"Graph ${gi + 1} | ${s.nUsers} | ${s.nItems} | ${s.nExternal} | ${s.nNodes} | ${s.totalEdges} | " +
          f"$stUc%.1f | $pcstUc%.1f | $stGrp%.1f | $pcstGrp%.1f | $g")
      }
    } finally spark.stop()
  }

  /** One row per synthetic graph of `sizes` nodes (graph i seeded 13 + i).
    * Random paths are drawn for users 1..max(groupSize, 20); the
    * user-centric scenario is the lowest user with paths, the group is the
    * first min(groupSize, users with paths) of them. An empty `sizes` or a
    * `groupSize` below 1 throws an `IllegalArgumentException` naming it.
    */
  def run(spark: SparkSession, sizes: Seq[Int], groupSize: Int): Seq[Row] = {
    require(sizes.nonEmpty, "TableIIIJob.run: sizes must be non-empty")
    require(groupSize >= 1, s"TableIIIJob.run: groupSize must be >= 1, got $groupSize")
    sizes.zipWithIndex.map { case (n, gi) =>
      val kg = KGBuilder.build(spark, MLSynth.synthetic(spark, n, seed = 13L + gi))
      val stats = GraphStats.compute(kg, sampleSources = 6)
      val kgIdx = KgIndex.fromKGraph(kg)
      val users = (1 to math.max(groupSize, 20)).map(u => NodeIds.user(u.toLong))
      val paths = Scalability.recommendedPaths(spark, kgIdx, new Pearlm, users, k = 10, seed = 5L)
      val group = math.min(groupSize, paths.size)
      val scens = Scalability.kScenarios(paths, paths.keys.min, Seq(10)) ++
        Scalability.groupScenarios(paths, Seq(group), k = 10)
      // Scenario-major, method-minor: (uc, ST), (uc, PCST), (group, ST), (group, PCST).
      val Seq(stUc, pcstUc, stGrp, pcstGrp) =
        Scalability.measure(kgIdx, scens, Seq(Summarizer.ST(1.0), Summarizer.PCST())).map(_.timeMs)
      Row(stats, stUc, pcstUc, stGrp, pcstGrp, group)
    }
  }
}
