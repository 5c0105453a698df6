package repro.kg

import repro.graph.CompactGraph

/** Broadcastable query-side view of a knowledge-based graph: the CSR
  * structure plus per-vertex node types, degree-ordered popularity ranks
  * (used by the LM-style baseline simulators), and undirected
  * (src, dst) → edge-id lookups over the CSR itself.
  *
  * Built on the driver around the knowledge graph's one CSR and broadcast to
  * executors; every per-user/per-item summary or recommendation query then
  * runs in parallel over the sample (DESIGN.md §3).
  */
final class KgIndex(val graph: CompactGraph) extends Serializable {

  /** Vertex index → node type (derived from the global id ranges). */
  val vtype: Array[Byte] = graph.ids.map(NodeIds.typeOf)

  /** Largest base edge weight in the graph (W_max before Eq. 1). */
  val maxBaseWeight: Double =
    if (graph.numEdges == 0) 0.0 else graph.edgeWeight.max

  /** Vertex indices of each type, sorted by descending undirected degree
    * (ties by vertex index) — the popularity ranking the PLM/PEARLM
    * simulators sample from.
    */
  val byPopularity: Map[Byte, Array[Int]] = {
    val all = (0 until graph.numVertices).toArray
    Seq(NodeType.User, NodeType.Item, NodeType.External).map { t =>
      t -> all.filter(v => vtype(v) == t).sortBy(v => (-graph.degree(v), v))
    }.toMap
  }

  /** Edge id between two vertex indices, in either direction, or −1 if
    * they are not adjacent. Of parallel edges between one pair, the one
    * with the lowest id wins: it scans the arcs of the endpoint with the
    * lower degree, which are in ascending edge-id order.
    */
  def edgeId(a: Int, b: Int): Int = {
    val from = if (graph.degree(a) <= graph.degree(b)) a else b
    val to = if (from == a) b else a
    var arc = graph.offsets(from)
    val end = graph.offsets(from + 1)
    while (arc < end && graph.arcTarget(arc) != to) arc += 1
    if (arc < end) graph.arcEdge(arc) else -1
  }

  /** Edge id between two node ids, in either direction, if present. */
  def edgeBetween(aId: Long, bId: Long): Option[Int] = {
    val a = graph.find(aId); val b = graph.find(bId)
    val e = if (a < 0 || b < 0) -1 else edgeId(a, b)
    if (e < 0) None else Some(e)
  }

  /** Iterate the undirected neighbourhood of `v` as (neighbor, edgeId). */
  @inline def foreachNeighbor(v: Int)(f: (Int, Int) => Unit): Unit = {
    var a = graph.offsets(v)
    val end = graph.offsets(v + 1)
    while (a < end) { f(graph.arcTarget(a), graph.arcEdge(a)); a += 1 }
  }

  /** Neighbours of `v` of node type `t`, with the connecting edge ids,
    * ranked by descending edge weight (`byWeight`) or by descending
    * neighbour degree, ties by vertex index; parallel edges keep arc order.
    */
  def rankedNeighbors(v: Int, t: Byte, byWeight: Boolean): Array[(Int, Int)] = {
    val buf = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    foreachNeighbor(v) { (u, e) => if (vtype(u) == t) buf += ((u, e)) }
    val ranked =
      if (byWeight) buf.sortBy { case (u, e) => (-graph.edgeWeight(e), u) }
      else buf.sortBy { case (u, _) => (-graph.degree(u), u) }
    ranked.toArray
  }

  /** Item vertices adjacent to user vertex `u` (= the items `u` rated),
    * with the connecting edge id, sorted by descending edge weight. An item
    * touches a user only through a rating, so `edgeId(u, i) >= 0` is the
    * test that `u` rated item `i`.
    */
  def ratedItems(u: Int): Array[(Int, Int)] = rankedNeighbors(u, NodeType.Item, byWeight = true)
}

object KgIndex {
  /** The query view of a knowledge-based graph, around its CSR `kg.graph`. */
  def fromKGraph(kg: KGraph): KgIndex = new KgIndex(kg.graph)

  /** Edges between vertex `v` of `g` and vertices of node type `t`, parallel
    * ones included. Endpoint types fix the etype, so this is a user's rating
    * count (t = item), an item's popularity (t = user) and every layer count.
    */
  def typedDegree(g: CompactGraph, v: Int, t: Byte): Int =
    (g.offsets(v) until g.offsets(v + 1)).count(a => NodeIds.typeOf(g.ids(g.arcTarget(a))) == t)
}
