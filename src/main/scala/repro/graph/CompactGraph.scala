package repro.graph

import org.apache.spark.sql.DataFrame

/** Per-edge cost oracle of the tree kernels' `EdgeCost` entries (PCST's
  * uniform cost, the `dijkstra`/`voronoi` adapters). Indexed by *edge id*
  * (position in the original directed edge list), not by arc. A kernel
  * reads the costs once per call ([[CompactGraph.fillCosts]]) and
  * searches on what that returns; `Summarizer` fills ST's Eq. (1) costs
  * with [[CompactGraph.fillOverlaidCosts]] instead.
  */
trait EdgeCost extends Serializable { def apply(edge: Int): Double }

object EdgeCost {
  /** Uniform cost `c` for every edge (the paper's unweighted PCST setting). */
  def uniform(c: Double): EdgeCost = Uniform(c)

  /** Searched as one cost for every arc: no fill, no per-arc read. */
  private[graph] final case class Uniform(c: Double) extends EdgeCost {
    override def apply(edge: Int): Double = c
  }
}

/** Result of a single-source Dijkstra run: `dist(v)` is the shortest-path
  * cost from the source to vertex index `v` (Double.PositiveInfinity if
  * unreachable) and `predArc(v)` is the arc index that last relaxed `v`
  * (−1 for the source and unreachable vertices).
  */
final case class SsspResult(source: Int, dist: Array[Double], predArc: Array[Int])

/** Compact CSR (compressed sparse row) view of the knowledge-based graph.
  *
  * The original graph is directed (user→item, item→external, …) but the
  * paper's summaries are *weakly connected* subgraphs, so the adjacency is
  * the undirected view: each directed edge contributes two arcs, both
  * pointing back at the same original edge id so weights/costs and the
  * original direction are preserved in the output. Each vertex's arcs are
  * in ascending edge-id order, so the first arc to a neighbour carries the
  * lowest-id edge between the two.
  *
  * The structure is immutable and serialisable, sized for broadcast
  * (≤ tens of MB at paper scale) so thousands of independent summary
  * computations can run in parallel on executors. It holds no search
  * state: searches run in the calling thread's [[SearchSpace]].
  *
  * @param ids        vertex index → external (KG) node id, sorted ascending
  * @param offsets    CSR offsets, length `numVertices + 1`
  * @param arcTarget  arc → target vertex index
  * @param arcEdge    arc → original edge id
  * @param edgeSrc    edge id → source vertex index (original direction)
  * @param edgeDst    edge id → destination vertex index (original direction)
  * @param edgeWeight edge id → base weight w(e) (after KG weighting, before Eq. 1)
  */
final class CompactGraph(
    val ids: Array[Long],
    val offsets: Array[Int],
    val arcTarget: Array[Int],
    val arcEdge: Array[Int],
    val edgeSrc: Array[Int],
    val edgeDst: Array[Int],
    val edgeWeight: Array[Double],
) extends Serializable {

  val numVertices: Int = ids.length
  val numEdges: Int    = edgeSrc.length

  /** External node id → vertex index, or −1 if the id is not in the graph
    * (binary search over the sorted ids).
    */
  def find(id: Long): Int = {
    val i = java.util.Arrays.binarySearch(ids, id)
    if (i >= 0) i else -1
  }

  /** External node id → vertex index; the id must be in the graph. */
  def indexOf(id: Long): Int = {
    val i = find(id)
    require(i >= 0, s"node id $id not in graph")
    i
  }

  /** True iff the external node id is present in the graph. */
  def contains(id: Long): Boolean = find(id) >= 0

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** The calling thread's reusable [[SearchSpace]], its per-vertex arrays
    * grown to this graph's vertices. A thread has one space, whatever
    * graphs it serves, and concurrent summaries on one broadcast graph
    * never share search state. Its results stay valid until the thread's
    * next [[search]]; its kernel scratch belongs to the kernel call
    * running on the thread.
    */
  def workspace: SearchSpace = SearchSpace.perThread.get().fitVertices(numVertices)

  /** Multi-source Dijkstra over the undirected view with per-edge costs,
    * the one shortest-path loop of the code base. Results are read from
    * `ws` afterwards: `dist`, `predArc` and `owner`, the index *into
    * `terms`* of the closest source.
    *
    * A search with n ≥ 2 sources also leaves in `ws.proposals` the
    * boundary proposals of Algorithm 2, the cheapest connection between
    * each pair of regions (Mehlhorn's construction): for regions a < b,
    * slot [[SearchSpace.pairSlot]]`(n, a, b)` holds an arc of the edge of
    * least [[proposalCost]], then lowest id, among the edges whose ends
    * settle with owners a and b (−1 if none). Each edge is offered once,
    * when its later endpoint settles, so both distances are final; a search
    * that stops early offers only the edges it scanned. A single-source
    * search leaves the proposals alone.
    *
    * The sources and the settle-set are ranges of one array, so a kernel
    * passes slices of its terminal array without copying them.
    *
    * @param ws      the search space to run in, its per-vertex arrays at least
    *                this graph's vertices long (as [[workspace]] returns it); its
    *                previous results are discarded
    * @param terms   the sources `terms(from until until)`, distinct and all
    *                at distance 0, then the settle-set
    *                `terms(until until terms.length)`: the search stops once
    *                every reachable target has been settled (a full search
    *                if that range is empty). Early stopping is what keeps
    *                Algorithm 1 fast — terminals of one summary live within
    *                a few hops.
    * @param cost    arc → cost of its edge, or one cost that every arc has,
    *                as [[fillCosts]] returns it; every cost must be ≥ 0 (the
    *                kernels' are > 0), which the fill checks
    * @param maxDist vertices farther than this are never reached
    */
  def search(ws: SearchSpace, terms: Array[Int], from: Int, until: Int, cost: Array[Double],
             maxDist: Double): Unit = {
    val perArc = if (cost.length == 1) 0 else -1 // index mask: a lone cost is every arc's
    val regions = until - from
    val pairArcs = if (regions >= 2) ws.resetProposals(regions, numEdges) else null
    ws.begin()
    var s = from
    while (s < until) {
      val v = terms(s)
      // Not `require`: its message thunk would be allocated for every source.
      if (ws.reached(v)) throw new IllegalArgumentException(s"source vertex $v listed twice")
      ws.relax(v, 0.0, -1, s)
      s += 1
    }
    var remaining = 0
    var t = until
    while (t < terms.length) {
      if (ws.markTarget(terms(t))) remaining += 1
      t += 1
    }
    var done = false
    while (!done && !ws.heapEmpty) {
      val d = ws.topKey
      val u = ws.pop()
      // Lazy deletion: only the entry carrying u's current distance is live.
      if (!ws.settled(u) && d <= ws.dist(u)) {
        ws.settle(u)
        if (ws.isTarget(u)) {
          remaining -= 1
          if (remaining == 0) done = true
        }
        if (!done) {
          val du = ws.dist(u)
          val ou = ws.owner(u)
          var a = offsets(u)
          val end = offsets(u + 1)
          while (a < end) {
            val v = arcTarget(a)
            if (!ws.settled(v)) {
              val nd = du + cost(a & perArc)
              if (nd < ws.dist(v) && nd <= maxDist) ws.relax(v, nd, a, ou)
            } else if (pairArcs != null) {
              val ov = ws.owner(v)
              if (ov != ou) propose(ws, pairArcs, SearchSpace.pairSlot(regions, ou min ov, ou max ov), a, v, du, cost)
            }
            a += 1
          }
        }
      }
    }
  }

  /** The cost of the connection through arc `a`'s edge `e` after a [[search]] on `cost`,
    * `dist(edgeSrc(e)) + cost(e) + dist(edgeDst(e))`: in the edge's own direction.
    */
  def proposalCost(ws: SearchSpace, a: Int, cost: Array[Double]): Double = {
    val e = arcEdge(a)
    ws.dist(edgeSrc(e)) + cost(if (cost.length == 1) 0 else a) + ws.dist(edgeDst(e))
  }

  // Keeps in `slot` the arc of the cheaper connection. Arc a runs from u, at du, to v; the two
  // orders of its proposalCost agree whenever the sum is exact (a uniform 0.25 and its
  // multiples), and only when they differ is its edge's far-off source read.
  private def propose(ws: SearchSpace, arcs: Array[Int], slot: Int, a: Int, v: Int, du: Double,
                      cost: Array[Double]): Unit =
    if (arcs(slot) < 0) arcs(slot) = a
    else {
      val dv = ws.dist(v); val c = cost(if (cost.length == 1) 0 else a)
      val fromU = du + c + dv; val fromV = dv + c + du
      val total = if (fromU == fromV || edgeSrc(arcEdge(a)) != v) fromU else fromV
      val best = proposalCost(ws, arcs(slot), cost)
      if (total < best || (total == best && arcEdge(a) < arcEdge(arcs(slot)))) arcs(slot) = a
    }

  /** The costs for the [[search]]es of one kernel call, in `ws`: the
    * oracle runs 2|E| times per call instead of once per arc relaxation.
    * Writes `cost(arcEdge(a))` for every arc `a` into the cost buffer, so a
    * relaxation reads its cost next to its arc; a uniform cost is returned
    * as a one-entry array instead, which [[search]] applies to every arc
    * and which costs no fill. A NaN or negative cost would break
    * Dijkstra's settled invariant without a trace, so it throws here,
    * naming the edge.
    */
  def fillCosts(ws: SearchSpace, cost: EdgeCost): Array[Double] = cost match {
    case EdgeCost.Uniform(c) =>
      if (numEdges > 0) checkCost(0, c)
      val one = ws.uniformCost
      one(0) = c
      one
    case _ =>
      val arcs = arcEdge.length
      val buf = ws.costs(arcs)
      var a = 0
      while (a < arcs) {
        val e = arcEdge(a)
        val c = cost(e)
        checkCost(e, c)
        buf(a) = c
        a += 1
      }
      buf
  }

  /** ST's Eq. (1) costs for the [[search]]es of one kernel call, in `ws`'s
    * cost buffer: arc `a` of edge `e` gets `(wm − w(e)) + delta`, where
    * `w(e)` is `weights(i)` for an overlay edge `e = edges(i)`, `i < m`,
    * and `edgeWeight(e)` otherwise. The overlay's edges must ascend. The
    * base cost is gathered for every arc, then the two arcs of each overlay
    * edge are patched, in ascending edge order, found by binary search in
    * their endpoints' ascending edge ids; so no arc pays an overlay lookup,
    * and the values are those of [[fillCosts]] on the same formula. A NaN or
    * negative cost throws, naming the edge, as in [[fillCosts]].
    */
  def fillOverlaidCosts(ws: SearchSpace, wm: Double, edges: Array[Int], weights: Array[Double], m: Int,
                        delta: Double): Array[Double] = {
    val arcs = arcEdge.length
    val buf = ws.costs(arcs)
    var a = 0
    while (a < arcs) {
      val e = arcEdge(a)
      val c = (wm - edgeWeight(e)) + delta
      // A bad base cost counts only if no overlay weight replaces it.
      if (!(c >= 0) && java.util.Arrays.binarySearch(edges, 0, m, e) < 0) checkCost(e, c)
      buf(a) = c
      a += 1
    }
    var i = 0
    while (i < m) {
      val e = edges(i)
      val c = (wm - weights(i)) + delta
      checkCost(e, c)
      patchArcs(buf, edgeSrc(e), e, c)
      if (edgeDst(e) != edgeSrc(e)) patchArcs(buf, edgeDst(e), e, c)
      i += 1
    }
    buf
  }

  // Writes c at the arcs of edge e in v's row: one, or the adjacent two of a self-loop.
  private def patchArcs(buf: Array[Double], v: Int, e: Int, c: Double): Unit = {
    val from = offsets(v); val until = offsets(v + 1)
    val hit = java.util.Arrays.binarySearch(arcEdge, from, until, e)
    var a = hit
    while (a >= from && arcEdge(a) == e) { buf(a) = c; a -= 1 }
    a = hit + 1
    while (a < until && arcEdge(a) == e) { buf(a) = c; a += 1 }
  }

  private def checkCost(e: Int, c: Double): Unit =
    if (!(c >= 0)) throw new IllegalArgumentException(s"edge $e has cost $c; edge costs must be >= 0")

  /** Single-source Dijkstra: [[search]] from `source`, copied out of the
    * calling thread's workspace.
    *
    * @param targets optional settle-set (pass null for a full SSSP)
    */
  def dijkstra(source: Int, cost: EdgeCost, targets: Array[Int] = null): SsspResult = {
    val ws = workspace
    val terms = if (targets == null) Array(source) else source +: targets
    search(ws, terms, 0, 1, fillCosts(ws, cost), Double.PositiveInfinity)
    val (dist, predArc, _) = copyOut(ws)
    SsspResult(source, dist, predArc)
  }

  /** Number of edges on the shortest path from the last [[search]]'s
    * sources to `v`.
    */
  def pathLength(ws: SearchSpace, v: Int): Int = {
    var len = 0
    var cur = v
    while (ws.predArc(cur) != -1) { cur = otherEnd(arcEdge(ws.predArc(cur)), cur); len += 1 }
    len
  }

  /** Writes the edge ids of that path, in source→v order, into
    * `dst(end - pathLength(ws, v) until end)`, so that callers can pack
    * many paths into one array without allocating one per path.
    */
  def writePath(ws: SearchSpace, v: Int, dst: Array[Int], end: Int): Unit = {
    var k = end
    var cur = v
    while (ws.predArc(cur) != -1) {
      k -= 1
      dst(k) = arcEdge(ws.predArc(cur))
      cur = otherEnd(dst(k), cur)
    }
  }

  // The arc into `v` carries edge e, so its other endpoint is the parent.
  private def otherEnd(e: Int, v: Int): Int = if (edgeSrc(e) == v) edgeDst(e) else edgeSrc(e)

  /** Multi-source Dijkstra: Voronoi partition around `sources`, copied out
    * of the calling thread's workspace.
    *
    * Returns (dist, predArc, owner) where `owner(v)` is the index *into
    * `sources`* of the closest source (−1 if unreachable). This is the
    * engine of the PCST growth (Algorithm 2): one pass, independent of the
    * number of terminals.
    */
  def voronoi(sources: Array[Int], cost: EdgeCost,
              maxDist: Double = Double.PositiveInfinity): (Array[Double], Array[Int], Array[Int]) = {
    val ws = workspace
    search(ws, sources, 0, sources.length, fillCosts(ws, cost), maxDist)
    copyOut(ws)
  }

  private def copyOut(ws: SearchSpace): (Array[Double], Array[Int], Array[Int]) = {
    val dist    = new Array[Double](numVertices)
    val predArc = new Array[Int](numVertices)
    val owner   = new Array[Int](numVertices)
    var v = 0
    while (v < numVertices) {
      dist(v) = ws.dist(v); predArc(v) = ws.predArc(v); owner(v) = ws.owner(v)
      v += 1
    }
    (dist, predArc, owner)
  }
}

object CompactGraph {

  /** Build from in-memory directed edge triples `(srcId, dstId, weight)`. */
  def fromTriples(triples: Seq[(Long, Long, Double)]): CompactGraph =
    assemble(triples.map(_._1).toArray, triples.map(_._2).toArray, triples.map(_._3).toArray)

  /** Build from an edges DataFrame with columns (src: long, dst: long,
    * weight: double). The collect is deliberate: the CSR is the broadcast
    * payload for executor-parallel summarisation (see DESIGN.md §3), and
    * `KGraph.graph` runs it once per knowledge graph.
    */
  def fromEdges(edges: DataFrame): CompactGraph = {
    val rows = edges.selectExpr("cast(src as long)", "cast(dst as long)", "cast(weight as double)")
      .collect()
    assemble(rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getDouble(2)))
  }

  // Every kernel adds edge costs derived from these weights, so one NaN or
  // infinite weight would corrupt every summary that reaches its edge;
  // building the graph, before any executor task runs, is where it can
  // still be named.
  private def assemble(srcIds: Array[Long], dstIds: Array[Long], edgeW: Array[Double]): CompactGraph = {
    val m = edgeW.length
    var w = 0
    while (w < m) {
      require(java.lang.Double.isFinite(edgeW(w)),
        s"edge ${srcIds(w)} -> ${dstIds(w)} has weight ${edgeW(w)}; edge weights must be finite")
      w += 1
    }
    // Vertex index = rank of the node id among the distinct endpoint ids.
    val all = srcIds ++ dstIds
    java.util.Arrays.sort(all)
    var n = 0
    var i = 0
    while (i < all.length) {
      if (n == 0 || all(n - 1) != all(i)) { all(n) = all(i); n += 1 }
      i += 1
    }
    val ids = java.util.Arrays.copyOf(all, n)
    val edgeSrc = srcIds.map(java.util.Arrays.binarySearch(ids, _))
    val edgeDst = dstIds.map(java.util.Arrays.binarySearch(ids, _))
    val deg = new Array[Int](n + 1)
    var e = 0
    while (e < m) { deg(edgeSrc(e) + 1) += 1; deg(edgeDst(e) + 1) += 1; e += 1 }
    var v = 0
    while (v < n) { deg(v + 1) += deg(v); v += 1 }
    val offsets = deg
    val arcTarget = new Array[Int](2 * m)
    val arcEdge   = new Array[Int](2 * m)
    // Edges in id order, so each vertex's arcs are in ascending edge-id order.
    val cursor = offsets.clone()
    e = 0
    while (e < m) {
      val s = edgeSrc(e); val d = edgeDst(e)
      arcTarget(cursor(s)) = d; arcEdge(cursor(s)) = e; cursor(s) += 1
      arcTarget(cursor(d)) = s; arcEdge(cursor(d)) = e; cursor(d) += 1
      e += 1
    }
    new CompactGraph(ids, offsets, arcTarget, arcEdge, edgeSrc, edgeDst, edgeW)
  }
}
