package repro.graph

import org.apache.spark.sql.DataFrame
import scala.collection.mutable.ArrayBuilder

/** Per-edge cost oracle of the tree kernels' `EdgeCost` entries (PCST's
  * uniform cost, the `dijkstra`/`voronoi` adapters). Indexed by *edge id*
  * (position in the original directed edge list), not by arc. A kernel
  * reads the costs once per call ([[SearchSpace.fillCosts]]) and
  * searches on what that returns; `Summarizer` fills ST's Eq. (1) costs
  * with [[SearchSpace.fillOverlaidCosts]] instead.
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
  * code or state: searches run in, and are run by, the calling thread's
  * [[SearchSpace]].
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

  /** The calling thread's one [[SearchSpace]], shared by every graph the
    * thread serves, its per-vertex arrays grown to this graph's vertices:
    * concurrent summaries on one broadcast graph never share search state.
    */
  def workspace: SearchSpace = SearchSpace.perThread.get().fitVertices(numVertices)

  /** Single-source Dijkstra: [[SearchSpace.search]] from `source`, copied
    * out of the calling thread's workspace.
    *
    * @param targets optional settle-set (pass null for a full SSSP)
    */
  def dijkstra(source: Int, cost: EdgeCost, targets: Array[Int] = null): SsspResult = {
    val ws = workspace
    val terms = if (targets == null) Array(source) else source +: targets
    ws.search(this, terms, 0, 1, terms.length, ws.fillCosts(this, cost), Double.PositiveInfinity)
    val (dist, predArc, _) = copyOut(ws)
    SsspResult(source, dist, predArc)
  }

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
    ws.search(this, sources, 0, sources.length, sources.length, ws.fillCosts(this, cost), maxDist)
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
    *
    * Each partition comes back as three primitive columns, read from
    * Spark's internal rows, in the row order of `collect()`; no `Row` is
    * built. A null src, dst or weight is rejected on the driver, naming
    * its row.
    */
  def fromEdges(edges: DataFrame): CompactGraph = {
    val parts = edges.selectExpr("cast(src as long)", "cast(dst as long)", "cast(weight as double)")
      .queryExecution.toRdd
      .mapPartitionsWithIndex { (p, rows) =>
        val (src, dst, w) = (new ArrayBuilder.ofLong, new ArrayBuilder.ofLong, new ArrayBuilder.ofDouble)
        var nullRow: String = null
        var i = 0
        while (nullRow == null && rows.hasNext) {
          val r = rows.next()
          if (r.isNullAt(0) || r.isNullAt(1) || r.isNullAt(2)) {
            def field(c: Int) = if (r.isNullAt(c)) "null" else if (c == 2) r.getDouble(c).toString else r.getLong(c).toString
            nullRow = s"edge row $i of partition $p, (src, dst, weight) = (${field(0)}, ${field(1)}, ${field(2)}), " +
              "has a null; every edge needs a src, a dst and a weight"
          } else {
            src += r.getLong(0); dst += r.getLong(1); w += r.getDouble(2)
          }
          i += 1
        }
        Iterator.single((src.result(), dst.result(), w.result(), nullRow))
      }
      .collect()
    parts.foreach(part => require(part._4 == null, part._4))
    assemble(Array.concat(parts.map(_._1).toSeq: _*), Array.concat(parts.map(_._2).toSeq: _*),
      Array.concat(parts.map(_._3).toSeq: _*))
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
