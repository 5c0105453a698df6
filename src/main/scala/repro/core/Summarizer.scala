package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import repro.graph.{CompactGraph, EdgeCost, SearchSpace}
import repro.kg.KgIndex

/** Orchestrates summary computation: scenario → terminal resolution →
  * Eq. (1) weight adjustment → tree kernel → [[Subgraph]].
  *
  * The batch API broadcasts the [[KgIndex]] once and fans the independent
  * summary tasks out over executors (DESIGN.md §3) — the distributed
  * dimension of this workload is the number of summaries, as in the
  * paper's 200-user × k ∈ [1,10] × {methods} experimental grid.
  */
object Summarizer {

  /** Positive floor keeping Dijkstra costs > 0 and penalising every extra
    * edge (the |E_S| minimisation half of the bi-objective).
    */
  val Delta = 1e-6

  sealed trait Method extends Serializable { def label: String }

  /** Algorithm 1 with Eq. (1) path-frequency boosting at strength λ.
    * A non-finite λ would make every edge cost +∞ or NaN, so it is
    * rejected here, on the driver, naming the field.
    */
  final case class ST(lambda: Double) extends Method {
    require(java.lang.Double.isFinite(lambda), s"ST.lambda must be finite, got $lambda")
    override val label: String = s"st(λ=$lambda)"
  }

  /** Algorithm 2 in the paper's experimental configuration: edge weights
    * ignored (uniform `edgeCost`), prize 1 per terminal, 0 elsewhere. The
    * search needs every cost > 0, so a non-finite or non-positive
    * `edgeCost` is rejected here, naming the field.
    */
  final case class PCST(edgeCost: Double = 0.25) extends Method {
    require(java.lang.Double.isFinite(edgeCost), s"PCST.edgeCost must be finite, got $edgeCost")
    require(edgeCost > 0, s"PCST.edgeCost must be > 0, got $edgeCost")
    override def label: String = "pcst"
    private[core] val cost: EdgeCost = EdgeCost.uniform(edgeCost)
  }

  /** No summarization: the union of the individual explanation paths —
    * the baseline every figure compares against.
    */
  case object Paths extends Method { override def label: String = "paths" }

  /** One summary computation with its performance measurements.
    *
    * `memModelBytes` is a working-set *model* of the kernel, not a
    * measurement (the paper measures process memory on their testbed).
    * It charges ST |T|·|V|·12 bytes, as if each of its |T| SSSPs kept its
    * own state, and PCST's single Voronoi pass |V|·16 bytes; that formula
    * is unchanged. The kernels in fact reuse one search space per thread,
    * whatever graphs it serves, which holds the Θ(|V|) search state and
    * vertex marks and the kernels' scratch: ST's Θ(|T|²) metric closure
    * with its paths lives there, grown to the largest summary the thread
    * has run. So do, grown to the largest graph, the Θ(|E|) cost buffer
    * (one double per arc) and PCST's proposal triangle (one int per
    * terminal pair, at least |E| of them). ST's Eq. (1) overlay is
    * written into the numbered scratch buffers before its kernel runs; ST
    * fills the cost buffer once per summary, by a gather of the base costs
    * and a patch of the overlay edges' arcs ([[WeightAdjust.costs]]), and
    * all of its searches ([[repro.graph.SearchSpace.search]]) read it.
    * The terminal indices are written into the space's terminal buffer,
    * PCST's prize is one value, and the kernel's edge set is read where the
    * kernel left it. So a warm summary allocates this result, its
    * subgraph's arrays and edges, and for ST the one iterator over its
    * paths: nothing per terminal.
    */
  final case class Result(scenarioId: String, family: String, method: String, k: Int,
                          subgraph: Subgraph, timeNs: Long, memModelBytes: Long)

  /** Compute one summary on the calling thread. `k` is only carried
    * through to the result for harness grouping.
    */
  def summarize(kg: KgIndex, scenario: Scenario, method: Method, k: Int = 0): Result = {
    val g = kg.graph
    val t0 = System.nanoTime()
    var mem = 0L
    val sub = method match {
      case Paths =>
        mem = scenario.paths.iterator.map(_.nodes.length * 8L).sum
        pathsUnion(kg, scenario)

      case ST(lambda) =>
        val ws = g.workspace
        val n = terminalIndices(g, scenario.terminals, ws)
        mem = n.toLong * g.numVertices * 12L
        val costs = WeightAdjust.costs(kg, scenario.paths, scenario.anchors, lambda, ws)
        val occurrences = SteinerTree.kernel(g, costs, ws.terminals(n), n)
        resolve(g, scenario, ws, n, occurrences, keepIsolated = true)

      case pcst: PCST =>
        val ws = g.workspace
        val n = terminalIndices(g, scenario.terminals, ws)
        mem = g.numVertices * 16L
        val occurrences = Pcst.kernel(g, ws.fillCosts(g, pcst.cost), ws.terminals(n), n, UnitPrize)
        resolve(g, scenario, ws, n, occurrences, keepIsolated = false)
    }
    Result(scenario.id, scenario.family, method.label, k, sub, System.nanoTime() - t0, mem)
  }

  /** Batch API: independent summaries computed in parallel on executors. */
  def summarizeBatch(sc: SparkContext, kgB: Broadcast[KgIndex],
                     tasks: Seq[(Scenario, Method, Int)]): Seq[Result] = {
    if (tasks.isEmpty) return Seq.empty
    val parallelism = math.max(1, math.min(tasks.size, sc.defaultParallelism * 2))
    sc.parallelize(tasks, parallelism)
      .map { case (scenario, method, k) => summarize(kgB.value, scenario, method, k) }
      .collect()
      .toSeq
  }

  /** Baseline "summary": the raw path union, duplicates retained, each hop as its edge's one [[SummaryEdge]]. */
  private def pathsUnion(kg: KgIndex, scenario: Scenario): Subgraph = {
    val distinct = scala.collection.mutable.LinkedHashMap.empty[(Long, Long), SummaryEdge]
    val all = scenario.paths.iterator.flatMap(_.hops).map { case (a, b) =>
      // Hallucinated PLM hops are not KG edges: they are part of the
      // shown explanation but contribute no interaction weight.
      distinct.getOrElseUpdate(if (a <= b) (a, b) else (b, a),
        SummaryEdge(a, b, kg.edgeBetween(a, b).map(kg.graph.edgeWeight).getOrElse(0.0)))
    }.toArray
    Subgraph(
      terminals = scenario.terminals,
      edges = distinct.values.toArray,
      allEdges = all,
      isolated = Array.empty,
      pathNodeOccurrences = scenario.paths.iterator.map(_.nodes.length).sum,
    )
  }

  /** PCST's prize, 1 for every terminal: one value, never written. */
  private val UnitPrize = Array(1.0)

  /** Writes the vertex indices of the terminals that are in G to the front
    * of `ws`'s terminal buffer, each once, in order of first occurrence
    * (ST's Kruskal tie-break follows this order), and returns their number.
    */
  private def terminalIndices(g: CompactGraph, terminals: Array[Long], ws: SearchSpace): Int = {
    val idx = ws.terminals(terminals.length)
    var n = 0
    var i = 0
    while (i < terminals.length) {
      val v = g.find(terminals(i))
      if (v >= 0) { idx(n) = v; n += 1 }
      i += 1
    }
    ws.distinctVertices(idx, n)
  }

  /** Turn the kernel's edge set in `ws` back into a node-id [[Subgraph]].
    * The scenario's `n` terminal indices are in `ws`'s terminal buffer, as
    * the kernel left them.
    */
  private def resolve(g: CompactGraph, scenario: Scenario, ws: SearchSpace, n: Int, occurrences: Int,
                      keepIsolated: Boolean): Subgraph = {
    val edges = new Array[SummaryEdge](ws.edgeCount)
    var k = 0
    while (k < edges.length) {
      val e = ws.edge(k)
      edges(k) = SummaryEdge(g.ids(g.edgeSrc(e)), g.ids(g.edgeDst(e)), g.edgeWeight(e))
      k += 1
    }
    // Only terminals that exist in G can appear in V_S; a terminal outside
    // the graph (e.g. a hallucinated PLM item) is dropped entirely.
    val isolated = if (keepIsolated) uncovered(g, ws, n) else Array.emptyLongArray
    Subgraph(
      terminals = scenario.terminals,
      edges = edges,
      allEdges = edges,
      isolated = isolated,
      pathNodeOccurrences = occurrences,
    )
  }

  /** Node ids of the `n` terminals in `ws`'s terminal buffer that no edge of
    * its edge set touches, in buffer order; the covered vertices are marked
    * in its vertex mark set.
    */
  private def uncovered(g: CompactGraph, ws: SearchSpace, n: Int): Array[Long] = {
    val terms = ws.terminals(n)
    ws.clearMarks()
    var k = 0
    while (k < ws.edgeCount) { ws.mark(g.edgeSrc(ws.edge(k))); ws.mark(g.edgeDst(ws.edge(k))); k += 1 }
    var count = 0
    k = 0
    while (k < n) { if (!ws.marked(terms(k))) count += 1; k += 1 }
    if (count == 0) return Array.emptyLongArray
    val out = new Array[Long](count)
    var m = 0
    k = 0
    while (k < n) { if (!ws.marked(terms(k))) { out(m) = g.ids(terms(k)); m += 1 }; k += 1 }
    out
  }
}
