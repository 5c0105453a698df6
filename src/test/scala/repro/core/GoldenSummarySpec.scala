package repro.core

import java.lang.management.ManagementFactory
import repro.SparkSpec
import repro.graph.EdgeCost
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeType}
import repro.rec.Pgpr

/** Golden fingerprints of the summary kernels: any change to the shortest
  * path search, its tie order or the kernels' merge rules that alters an
  * ST or PCST edge set on this fixed-seed grid changes the hash.
  */
class GoldenSummarySpec extends SparkSpec {

  /** MD5 of every (scenario, method, k) edge set and path-node count of the
    * grid below, recorded from the boxed-heap kernels the search replaced.
    */
  private val Golden = "0c4920be40e70fb66677d03fa0d4c179"

  /** MD5 of the same grid with each edge set in the order its kernel added
    * the edges, which [[Golden]] sorts away: a path walk that adds the same
    * edges in another order changes this hash only. Recorded before the
    * kernels' path walks moved into the search space.
    */
  private val GoldenOrder = "b0e15af54abfda96194013c47d66aec3"

  private val methods: Seq[Summarizer.Method] =
    Seq(Summarizer.ST(0.01), Summarizer.ST(1.0), Summarizer.ST(100.0), Summarizer.PCST())

  private lazy val idx = KgIndex.fromKGraph(KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05)))

  /** User-centric scenarios at k ∈ {1, 5, 10} for eight users of `kg`, and
    * user groups of 4 and 8 of them at k = 10.
    */
  private def scenarios(kg: KgIndex): Seq[(Scenario, Int)] = {
    val g = kg.graph
    val rec = new Pgpr
    val users = (0 until g.numVertices)
      .filter(v => kg.vtype(v) == NodeType.User && g.degree(v) >= 5).take(8)
    val paths = users.map(u => g.ids(u) -> rec.recommend(kg, u, 10, seed = 3L))
      .filter(_._2.nonEmpty)
    val userCentric = for ((u, ps) <- paths; k <- Seq(1, 5, 10))
      yield (UserCentric(u, ps.take(k)): Scenario, k)
    val groups = Seq(4, 8).map { n =>
      val members = paths.take(n)
      (UserGroup(s"g$n", members.map(_._1), members.flatMap(_._2)): Scenario, 10)
    }
    userCentric ++ groups
  }

  private lazy val tasks: Seq[(Scenario, Summarizer.Method, Int)] =
    for ((s, k) <- scenarios(idx); m <- methods) yield (s, m, k)

  /** A larger and a smaller ML1M-sim graph than the golden one, with their
    * own scenarios, to summarise on between the golden grid's summaries.
    */
  private lazy val others: Seq[(KgIndex, Seq[(Scenario, Int)])] = Seq(0.08, 0.03).map { scale =>
    val kg = KgIndex.fromKGraph(KGBuilder.build(spark, MLSynth.ml1m(spark, scale = scale)))
    kg -> scenarios(kg)
  }

  private def fingerprint(results: Seq[Summarizer.Result], kernelOrder: Boolean = false): String = {
    val lines = results.map { r =>
      val added = r.subgraph.edges.map(e => s"${e.src}-${e.dst}")
      val edges = (if (kernelOrder) added else added.sorted).mkString(",")
      s"${r.scenarioId}|${r.method}|${r.k}|${r.subgraph.pathNodeOccurrences}|$edges"
    }.sorted
    val md = java.security.MessageDigest.getInstance("MD5")
    lines.foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    md.digest().map(b => f"$b%02x").mkString
  }

  test("ST(λ ∈ {0.01, 1, 100}) and PCST edge sets match the recorded fingerprint") {
    val serial = tasks.map { case (s, m, k) => Summarizer.summarize(idx, s, m, k) }
    assert(tasks.size == 26 * methods.size)
    assert(fingerprint(serial) == Golden)
    assert(fingerprint(serial, kernelOrder = true) == GoldenOrder)
  }

  test("serial runs in reverse and largest-first order on one thread give the same fingerprint") {
    // The kernels reuse one thread's scratch across summaries: these orders
    // run every summary after larger or differently shaped ones.
    val largestFirst = tasks.sortBy { case (s, _, _) => -s.terminals.length }
    for (order <- Seq(tasks.reverse, largestFirst)) {
      val serial = order.map { case (s, m, k) => Summarizer.summarize(idx, s, m, k) }
      assert(fingerprint(serial) == Golden)
      assert(fingerprint(serial, kernelOrder = true) == GoldenOrder)
    }
    // The thread has one search space for every graph: here each golden
    // summary follows one on the larger graph or on the smaller one, by turns.
    val (larger, smaller) = (others(0)._1, others(1)._1)
    assert(larger.graph.numVertices > idx.graph.numVertices && larger.graph.numEdges > idx.graph.numEdges)
    assert(smaller.graph.numVertices < idx.graph.numVertices && smaller.graph.numEdges < idx.graph.numEdges)
    val alternating = tasks.zipWithIndex.map { case ((s, m, k), i) =>
      val (other, scens) = others(i % 2)
      val (os, ok) = scens(i / 2 % scens.size)
      Summarizer.summarize(other, os, m, ok)
      Summarizer.summarize(idx, s, m, k)
    }
    assert(fingerprint(alternating) == Golden)
    assert(fingerprint(alternating, kernelOrder = true) == GoldenOrder)
  }

  test("a repeated ST or PCST summary allocates less than a closure-sized double[]") {
    val g = idx.graph
    val group = tasks.collectFirst { case (s: UserGroup, _, _) if s.groupId == "g8" => s }.get
    val terms = group.terminals.map(g.find).filter(_ >= 0).distinct
    val n = terms.length.toLong
    // One double per terminal pair: what ST's metric closure distances
    // alone take if allocated per summary. A proposal table presized per
    // summary to at least 2·n(n−1)/2 slots of 21 bytes is larger still.
    // With the per-thread scratch warm, a summary allocates only its
    // Θ(|T|) deduplicated terminals and its result.
    val bound = 8 * n * (n - 1) / 2
    val wMax = g.edgeWeight.max
    val stCost: EdgeCost = (e: Int) => (wMax - g.edgeWeight(e)) + Summarizer.Delta
    val pcstCost = EdgeCost.uniform(0.25)
    val prizes = Array.fill(terms.length)(1.0)
    def allocated(run: => TreeResult): Long = {
      val before = bean.getCurrentThreadAllocatedBytes
      run
      bean.getCurrentThreadAllocatedBytes - before
    }
    SteinerTree.summarize(g, stCost, terms)
    Pcst.summarize(g, pcstCost, terms, prizes)
    val st = allocated(SteinerTree.summarize(g, stCost, terms))
    val pcst = allocated(Pcst.summarize(g, pcstCost, terms, prizes))
    info(s"|T| = $n: ST allocated $st B, PCST $pcst B, bound $bound B")
    assert(n >= 20, s"|T| = $n")
    assert(st < bound, s"ST allocated $st bytes, bound $bound (|T| = $n)")
    assert(pcst < bound, s"PCST allocated $pcst bytes, bound $bound (|T| = $n)")
  }

  private lazy val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** The least bytes allocated by 10 calls of `Summarizer.summarize` after
    * two warm-up calls, and the summary's edge count.
    */
  private def leastWarm(kg: KgIndex, scenario: Scenario, method: Summarizer.Method): (Long, Int) = {
    var least = Long.MaxValue
    var edges = 0
    var call = 0
    while (call < 12) {
      val before = bean.getCurrentThreadAllocatedBytes
      val r = Summarizer.summarize(kg, scenario, method, 10)
      val bytes = bean.getCurrentThreadAllocatedBytes - before
      if (call >= 2) least = math.min(least, bytes)
      edges = r.subgraph.edges.length
      call += 1
    }
    (least, edges)
  }

  test("a warm Summarizer.summarize allocates its result and O(|E_S| + |T|) more") {
    val group = tasks.collectFirst { case (s: UserGroup, _, _) if s.groupId == "g8" => s }.get
    for (method <- Seq(Summarizer.ST(1.0), Summarizer.PCST())) {
      // The result is about 50 bytes per summary edge (its SummaryEdge and
      // its slot in the edge array) plus a few small objects. The budget's
      // per-terminal term is slack: the test below holds the same summaries
      // to a budget without it.
      val (least, edges) = leastWarm(idx, group, method)
      val terminals = group.terminals.length
      val budget = 256L + 64L * edges + 32L * terminals
      info(s"${method.label}: |E_S| = $edges, |T| = $terminals, least of 10 calls $least B, budget $budget B")
      assert(terminals >= 20 && edges >= terminals - 1, s"|E_S| = $edges, |T| = $terminals")
      assert(least <= budget, s"${method.label} allocated $least bytes, budget $budget")
      // After a summary on the larger graph, the thread's space holds that
      // graph's cost buffer, triangle and vertex arrays: the first summary
      // back on this graph allocates none of them, each of three times.
      val (larger, largerScenarios) = others.head
      val largerGroup = largerScenarios.last._1
      val afterSwitch = Seq.fill(3) {
        Summarizer.summarize(larger, largerGroup, method, 10)
        val before = bean.getCurrentThreadAllocatedBytes
        Summarizer.summarize(idx, group, method, 10)
        bean.getCurrentThreadAllocatedBytes - before
      }
      info(s"${method.label}: first call after the larger graph ${afterSwitch.mkString(", ")} B")
      assert(afterSwitch.forall(_ <= budget), s"${method.label} allocated $afterSwitch bytes, budget $budget")
    }
  }

  test("a warm Summarizer.summarize allocates only its result, with no per-terminal term") {
    // The terminal indices, PCST's prize and sorted terminals and the
    // kernel's edge set stay in the thread's workspace: what a warm summary
    // allocates is its Result, Subgraph, SummaryEdge array and edges, and
    // for ST the one iterator over its paths: 44 bytes per edge (a 40-byte
    // SummaryEdge and its array slot) and about 150 more. g8 reads ST 4,104 B
    // (|E_S| = 89) and PCST 3,008 B (|E_S| = 66) at |T| = 61.
    val g8 = tasks.collectFirst { case (s: UserGroup, _, _) if s.groupId == "g8" => s }.get
    val userCentric = tasks.collectFirst { case (s: UserCentric, _, 10) => s }.get
    val (larger, largerScenarios) = others.head
    val largerGroup = largerScenarios.last._1
    assert(largerGroup.isInstanceOf[UserGroup])
    val cases = Seq(("g8", idx, g8), ("the larger graph's g8", larger, largerGroup),
      ("user-centric k=10", idx, userCentric))
    for ((name, kg, scenario) <- cases; method <- Seq(Summarizer.ST(1.0), Summarizer.PCST())) {
      val (least, edges) = leastWarm(kg, scenario, method)
      val budget = 256L + 48L * edges
      info(s"$name ${method.label}: |E_S| = $edges, |T| = ${scenario.terminals.length}, " +
        s"least of 10 calls $least B, budget $budget B")
      assert(edges > 0, s"$name ${method.label}: empty summary")
      assert(least <= budget, s"$name ${method.label} allocated $least bytes, budget $budget")
    }
  }

  test("summarizeBatch over parallel executor threads gives the same fingerprint") {
    val kgB = spark.sparkContext.broadcast(idx)
    val batch = Summarizer.summarizeBatch(spark.sparkContext, kgB, tasks)
    assert(fingerprint(batch) == Golden)
    assert(fingerprint(batch, kernelOrder = true) == GoldenOrder)
  }
}
