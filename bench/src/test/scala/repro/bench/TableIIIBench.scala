package repro.bench

import repro.jobs.TableIIIJob

/** Paper Table III + Fig 11: the five synthetic random graphs
  * (10k–30k nodes, ML1M-like composition) and the runtime of ST vs PCST
  * on them (k = 10 items; user groups; random 3-hop paths), as
  * `TableIIIJob.run` measures them.
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
    val rows = TableIIIJob.run(spark, sizes, groupSize)
    sizes.zip(rows).foreach { case (n, TableIIIJob.Row(stats, stUc, pcstUc, stGrp, pcstGrp, _)) =>
      val (pu, pi, pe, pEdges) = paper.getOrElse(n, (0, 0, 0, 0L))
      result("table3", s"graph=$n users=${stats.nUsers} (paper $pu) items=${stats.nItems} (paper $pi) " +
        s"external=${stats.nExternal} (paper $pe) edges=${stats.totalEdges} (paper $pEdges)")
      result("fig11", f"graph=$n st_uc=$stUc%.1fms pcst_uc=$pcstUc%.1fms " +
        f"st_grp=$stGrp%.1fms pcst_grp=$pcstGrp%.1fms group=$groupSize")
    }
    // Table III shape: node-type ratios and edge volume track the paper.
    sizes.zip(rows.map(_.stats)).foreach { case (n, stats) =>
      val (pu, pi, _, pEdges) = paper(n)
      assert(math.abs(stats.nUsers - pu) <= 2 && math.abs(stats.nItems - pi) <= 2)
      assert(stats.totalEdges > pEdges * 0.7 && stats.totalEdges <= pEdges)
    }
    // Fig 11 shape: runtimes grow with graph size; ST-group dominates
    // PCST-group (ST pays |T| SSSPs, PCST one Voronoi pass).
    assert(rows.last.stGroupMs > rows.head.stGroupMs * 0.5, "ST group runtime should not shrink with graph size")
    assert(mean(rows.map(_.stGroupMs)) > mean(rows.map(_.pcstGroupMs)),
      "ST user-group should be slower than PCST user-group on average")
  }
}
