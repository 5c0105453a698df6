package repro.bench

import repro.core.Summarizer
import repro.eval.Scalability
import repro.graph.GraphStats
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeIds}

/** Paper Table III + Fig 11: the five synthetic random graphs
  * (10k–30k nodes, ML1M-like composition) and the runtime of ST vs PCST
  * on them (k = 10 items; user groups; random 3-hop paths).
  *
  * Defaults run three of the five graphs and a group of
  * REPRO_TABLE3_GROUP (default 15) users to bound CI time; set
  * REPRO_TABLE3_SIZES=10000,15000,20000,25000,30000 and
  * REPRO_TABLE3_GROUP=100 for the paper's full grid.
  */
class TableIIIBench extends BenchSupport {

  private val sizes = sys.env.getOrElse("REPRO_TABLE3_SIZES", "10000,20000,30000")
    .split(",").map(_.trim.toInt).toSeq
  private val groupSize = sys.env.getOrElse("REPRO_TABLE3_GROUP", "15").toInt

  // Paper Table III values, keyed by node count.
  private val paper = Map(
    10000 -> (3043, 1956, 5452, 559_734L),
    15000 -> (4565, 2935, 8178, 839_601L),
    20000 -> (6087, 3913, 10905, 1_119_468L),
    25000 -> (7609, 4891, 13631, 1_399_335L),
    30000 -> (9131, 5870, 16357, 1_679_202L))

  test("Table III: synthetic graph statistics and Fig 11 scalability") {
    val rows = sizes.zipWithIndex.map { case (n, gi) =>
      val kg = KGBuilder.build(spark, MLSynth.synthetic(spark, n, seed = 13L + gi))
      val stats = GraphStats.compute(kg, sampleSources = 6)
      val kgIdx = KgIndex.fromKGraph(kg)

      val users = (1 to math.max(groupSize, 20)).map(u => NodeIds.user(u.toLong))
      val paths = Scalability.randomPaths(spark, kgIdx, users, k = 10, seed = 5L)
      val scens = Scalability.kScenarios(paths, paths.keys.min, Seq(10)) ++
        Scalability.groupScenarios(paths, Seq(math.min(groupSize, paths.size)), k = 10)
      val perf = Scalability.measure(kgIdx, scens,
        Seq(Summarizer.ST(1.0), Summarizer.PCST()))
      def t(fam: String, m: String): Double =
        perf.find(r => r.family == fam && r.method.startsWith(m)).map(_.timeMs).getOrElse(-1)

      val (pu, pi, pe, pEdges) = paper.getOrElse(n, (0, 0, 0, 0L))
      result("table3", s"graph=$n users=${stats.nUsers} (paper $pu) items=${stats.nItems} (paper $pi) " +
        s"external=${stats.nExternal} (paper $pe) edges=${stats.totalEdges} (paper $pEdges)")
      result("fig11", f"graph=$n st_uc=${t("user-centric", "st")}%.1fms pcst_uc=${t("user-centric", "pcst")}%.1fms " +
        f"st_grp=${t("user-group", "st")}%.1fms pcst_grp=${t("user-group", "pcst")}%.1fms group=$groupSize")

      (n, stats, t("user-centric", "st"), t("user-centric", "pcst"),
        t("user-group", "st"), t("user-group", "pcst"))
    }

    // Table III shape: node-type ratios and edge volume track the paper.
    rows.foreach { case (n, stats, _, _, _, _) =>
      val (pu, pi, pe, pEdges) = paper(n)
      assert(math.abs(stats.nUsers - pu) <= 2 && math.abs(stats.nItems - pi) <= 2)
      assert(stats.totalEdges > pEdges * 0.7 && stats.totalEdges <= pEdges)
    }
    // Fig 11 shape: runtimes grow with graph size; ST-group dominates
    // PCST-group (ST pays |T| SSSPs, PCST one Voronoi pass).
    val first = rows.head; val last = rows.last
    assert(last._5 > first._5 * 0.5, "ST group runtime should not shrink with graph size")
    assert(mean(rows.map(_._5)) > mean(rows.map(_._6)),
      "ST user-group should be slower than PCST user-group on average")
  }
}
