package repro.core

import repro.eval.{Harness, TableIExample}
import repro.jobs.MetricsJob
import repro.kg.{KgIndex, NodeIds}
import repro.{Oracle, SparkSpec}

class MetricsSpec extends SparkSpec {

  private val u1 = NodeIds.user(1); private val u2 = NodeIds.user(2)
  private val i1 = NodeIds.item(1); private val i2 = NodeIds.item(2)
  private val x1 = NodeIds.external(1)

  private def sub(edges: Seq[(Long, Long, Double)],
                  occurrences: Int = 0, isolated: Seq[Long] = Nil,
                  multiset: Seq[(Long, Long)] = Nil): Subgraph = {
    val es = edges.map { case (a, b, w) => SummaryEdge(a, b, w) }.toArray
    // Every hop of the multiset is the edge it walks, as `Paths` presents it.
    def edgeOf(a: Long, b: Long) = es.find(e => Set(e.src, e.dst) == Set(a, b)).get
    val all = if (multiset.nonEmpty) multiset.map { case (a, b) => edgeOf(a, b) }.toArray else es
    val occ = if (occurrences > 0) occurrences
              else (es.flatMap(e => Seq(e.src, e.dst)) ++ isolated).distinct.length
    Subgraph(Array.empty, es, all, isolated.toArray, occ)
  }

  test("comprehensibility = 1/|E_S|, with total path length for multisets") {
    assert(Metrics.comprehensibility(sub(Seq((u1, i1, 1.0), (i1, x1, 0.0)))) == 0.5)
    val baseline = sub(Seq((u1, i1, 1.0)), multiset = Seq((u1, i1), (u1, i1), (u1, i1)))
    assert(math.abs(Metrics.comprehensibility(baseline) - 1.0 / 3) < 1e-12)
    assert(Metrics.comprehensibility(SubgraphChecks.empty) == 1.0) // capped at 1
  }

  test("actionability counts item nodes over all nodes") {
    val s = sub(Seq((u1, i1, 1.0), (i1, x1, 0.0)))
    assert(math.abs(Metrics.actionability(s) - 1.0 / 3) < 1e-12)
    assert(Metrics.actionability(sub(Seq((i1, i2, 1.0)))) == 1.0)
    assert(Metrics.actionability(SubgraphChecks.empty) == 0.0)
  }

  test("diversity of disjoint edges is 1, of identical edges is 0") {
    assert(Metrics.diversity(sub(Seq((u1, i1, 1.0), (u2, i2, 1.0)))) == 1.0)
    val repeated = sub(Seq((u1, i1, 1.0)), multiset = Seq((u1, i1), (u1, i1)))
    assert(Metrics.diversity(repeated) == 0.0)
  }

  test("diversity of edges sharing one endpoint is 1 - 1/3") {
    val s = sub(Seq((u1, i1, 1.0), (i1, x1, 0.0)))
    assert(math.abs(Metrics.diversity(s) - 2.0 / 3) < 1e-12)
  }

  test("diversity of a Paths union equals the diversity of its hops in path order and direction") {
    import TableIExample._
    // The doubled Table I paths, and User2's path back over User1's first two hops.
    val back = repro.rec.ExplanationPath(User2, UlyssesGaze, 1, Vector(User2, LandscapeInTheMist, User1, UlyssesGaze))
    val group = UserGroup("table-i", Seq(User1, User2), paths ++ paths.map(x => x.copy(rank = x.rank + 3)) :+ back)
    val s = Summarizer.summarize(KgIndex.fromKGraph(knowledgeGraph(spark)), group, Summarizer.Paths).subgraph
    val hops = group.paths.flatMap(_.hops).toArray
    assert(hops.exists { case (a, b) => s.edges.exists(e => e.src == b && e.dst == a) },
      "some hop walks its edge against the edge's direction")
    assert(Metrics.diversity(s) == MetricsSpec.diversityOfHops(hops))
  }

  test("diversity averages over all pairs and needs >= 2 edges") {
    assert(Metrics.diversity(sub(Seq((u1, i1, 1.0)))) == 0.0)
    // Three edges: (u1,i1)&(i1,x1) share, (u1,i1)&(u1,x1)? craft: star at u1.
    val star = sub(Seq((u1, i1, 1.0), (u1, i2, 1.0), (u1, x1, 0.0)))
    assert(math.abs(Metrics.diversity(star) - 2.0 / 3) < 1e-12) // every pair shares u1
  }

  test("redundancy grows with duplicate node mentions") {
    // Two 2-node paths sharing both nodes: 4 mentions, 2 unique -> R = 0.5.
    val s = sub(Seq((u1, i1, 1.0)), occurrences = 4)
    assert(math.abs(Metrics.redundancy(s) - 0.5) < 1e-12)
    // A tree counted once has no duplicates.
    val t = sub(Seq((u1, i1, 1.0), (i1, x1, 0.0)), occurrences = 3)
    assert(Metrics.redundancy(t) == 0.0)
  }

  test("relevance sums base weights w_M of distinct edges") {
    val s = sub(Seq((u1, i1, 4.0), (i1, x1, 0.0), (u2, i1, 3.0)))
    assert(math.abs(Metrics.relevance(s) - 7.0) < 1e-12)
  }

  test("privacy penalises user nodes") {
    val s = sub(Seq((u1, i1, 1.0), (u2, i1, 1.0)))
    assert(math.abs(Metrics.privacy(s) - (1.0 - 2.0 / 3)) < 1e-12)
    assert(Metrics.privacy(sub(Seq((i1, x1, 0.0)))) == 1.0)
    assert(Metrics.privacy(SubgraphChecks.empty) == 1.0)
  }

  test("consistency: identical subgraphs across k give 1, disjoint give 0") {
    val a = sub(Seq((u1, i1, 1.0)))
    val b = sub(Seq((u2, i2, 1.0)))
    assert(Metrics.consistency(Seq(a, a, a)) == 1.0)
    assert(Metrics.consistency(Seq(a, b)) == 0.0)
    assert(Metrics.consistency(Seq(a)) == 1.0)
    assert(math.abs(Metrics.consistency(Seq(a, a, b)) - 0.5) < 1e-12)
  }

  test("isolated terminals count as nodes (ST keeps unreachable terminals)") {
    val s = sub(Seq((u1, i1, 1.0)), isolated = Seq(i2))
    assert(s.nodes.toSet == Set(u1, i1, i2))
    assert(math.abs(Metrics.actionability(s) - 2.0 / 3) < 1e-12)
  }

  test("all metrics stay within their bounds on arbitrary subgraphs") {
    val s = sub(Seq((u1, i1, 4.0), (i1, x1, 0.0), (u2, i2, 3.0)), occurrences = 9)
    val m = Map(
      "comprehensibility" -> Metrics.comprehensibility(s),
      "actionability"     -> Metrics.actionability(s),
      "diversity"         -> Metrics.diversity(s),
      "redundancy"        -> Metrics.redundancy(s),
      "privacy"           -> Metrics.privacy(s))
    m.foreach { case (k, v) => assert(v >= 0.0 && v <= 1.0, s"$k = $v") }
    assert(Metrics.relevance(s) >= 0.0 && s.edges.length == 3 && s.nodes.length == 5)
  }

  test("oracle: metric aggregation over rows matches DuckDB") {
    import spark.implicits._
    // 2 recommenders × 2 families × 2 methods × 2 k, one to three rows each.
    val rows = (for {
      (rec, ri) <- Seq("pgpr", "cafe").zipWithIndex
      (fam, fi) <- Seq("user-centric", "user-group").zipWithIndex
      (method, mi) <- Seq("paths", "pcst").zipWithIndex
      k <- Seq(1, 10)
      s <- 0 to (ri + fi + mi + k) % 3
    } yield {
      val v = 1.0 + ri + 2 * fi + 3 * mi + k + 0.5 * s
      Harness.MetricRow(rec, fam, s"sc$s", method, k, comprehensibility = 1 / v, actionability = 1 / (v + 1),
        diversity = 1 / (v + 2), redundancy = 1 / (v + 3), relevance = 10 * v, privacy = 1 / (v + 4),
        edges = s + k, nodes = s + k + 1, timeMs = v / 3, memMb = 0.0)
    }).toDF()
    val agg = MetricsJob.aggregate(rows)
    Oracle.assertEquivalent(agg,
      """SELECT recommender, family, method, CAST(k AS INTEGER) AS k,
        |       AVG(CAST(comprehensibility AS DOUBLE)) AS compr, AVG(CAST(actionability AS DOUBLE)) AS action,
        |       AVG(CAST(diversity AS DOUBLE)) AS div, AVG(CAST(redundancy AS DOUBLE)) AS redund,
        |       AVG(CAST(relevance AS DOUBLE)) AS relev, AVG(CAST(privacy AS DOUBLE)) AS priv,
        |       AVG(CAST(timeMs AS DOUBLE)) AS ms, AVG(CAST(edges AS DOUBLE)) AS edges, COUNT(*) AS n
        |FROM rows GROUP BY recommender, family, method, CAST(k AS INTEGER)""".stripMargin,
      "rows" -> rows)
    // The aggregate comes back in key order, one row per (recommender, family, method, k).
    val keys = agg.collect().map(r => (r.getString(0), r.getString(1), r.getString(2), r.getInt(3))).toSeq
    assert(keys.size == 16 && keys == keys.sorted)
    // Fig 6: consistency is one row per (scenario, method), averaged per (recommender, family, method).
    val consistency = (for {
      (rec, ri) <- Seq("pgpr", "cafe").zipWithIndex
      (fam, fi) <- Seq("user-centric", "user-group").zipWithIndex
      (method, mi) <- Seq("paths", "pcst").zipWithIndex
      s <- 0 to (ri + fi + mi) % 3
    } yield Harness.ConsistencyRow(rec, fam, s"sc$s", method, 1.0 / (1 + ri + 2 * fi + 3 * mi + s))).toDF()
    val cons = MetricsJob.meanConsistency(consistency)
    Oracle.assertEquivalent(cons,
      """SELECT recommender, family, method, AVG(CAST(consistency AS DOUBLE)) AS cons, COUNT(*) AS n
        |FROM consistency GROUP BY recommender, family, method""".stripMargin,
      "consistency" -> consistency)
    val consKeys = cons.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSeq
    assert(consKeys.size == 8 && consKeys == consKeys.sorted)
  }
}

object MetricsSpec {

  /** `Metrics.diversity` as it read a multiset of (src, dst) hops before the
    * multiset became `SummaryEdge`s: the reference for the paths union.
    */
  def diversityOfHops(es: Array[(Long, Long)]): Double = {
    val n = es.length
    if (n < 2) return 0.0
    var sum = 0.0
    var i = 0
    while (i < n) {
      val (a1, b1) = es(i)
      var j = i + 1
      while (j < n) {
        val (a2, b2) = es(j)
        val shared =
          (if (a1 == a2 || a1 == b2) 1 else 0) + (if (b1 == a2 || b1 == b2) 1 else 0)
        val jac = shared match {
          case 0 => 0.0
          case 1 => 1.0 / 3.0
          case _ => 1.0
        }
        sum += 1.0 - jac
        j += 1
      }
      i += 1
    }
    sum / (n.toLong * (n - 1) / 2).toDouble
  }
}
