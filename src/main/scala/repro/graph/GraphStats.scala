package repro.graph

import repro.kg.{KGraph, KgIndex, NodeIds, NodeType}

/** Graph statistics of Tables II and III, computed the way the paper
  * reports them: edge counts by layer, average degrees, density over the
  * undirected simple-graph pair count, and sampled average path length /
  * diameter over the undirected view.
  */
object GraphStats {

  /** One row per Table II property. */
  final case class Stats(
      nUsers: Long, nItems: Long, nExternal: Long, nNodes: Long,
      userItemEdges: Long, itemExternalEdges: Long, userExternalEdges: Long, totalEdges: Long,
      avgUserDegree: Double,     // ratings per user
      avgItemDegreeFromUsers: Double,
      avgItemDegreeToExternal: Double,
      avgExternalDegree: Double,
      density: Double,
      avgPathLength: Double,
      diameter: Int,
  )

  /** Edge-layer counts as sums of typed degrees over the knowledge graph's
    * CSR, `kg.graph` (oracle-checked in GraphStatsSpec); path-length stats
    * from unit-cost searches on it, whose distances are hop counts.
    */
  def compute(kg: KGraph, sampleSources: Int = 24, seed: Long = 42L): Stats = {
    val g = kg.graph
    def layer(from: Byte, to: Byte): Long =
      (0 until g.numVertices).iterator.filter(v => NodeIds.typeOf(g.ids(v)) == from)
        .map(v => KgIndex.typedDegree(g, v, to).toLong).sum
    val ui = layer(NodeType.User, NodeType.Item)
    val ie = layer(NodeType.Item, NodeType.External)
    val ue = layer(NodeType.User, NodeType.External)
    val total = ui + ie + ue

    val n = kg.numNodes
    val density = if (n < 2) 0.0 else total.toDouble / (n.toDouble * (n - 1) / 2.0)

    val rnd = new scala.util.Random(seed)
    val sources = Array.fill(math.min(sampleSources, g.numVertices))(rnd.nextInt(g.numVertices))
    val ws = g.workspace
    var sumDist = 0.0; var nPairs = 0L; var diameter = 0
    sources.foreach { s =>
      g.search(ws, Array(s), 0, 1, EdgeCost.uniform(1.0), Double.PositiveInfinity)
      var v = 0
      while (v < g.numVertices) {
        val h = ws.dist(v)
        if (h > 0 && !h.isInfinite) { sumDist += h; nPairs += 1; diameter = math.max(diameter, h.toInt) }
        v += 1
      }
    }

    Stats(
      nUsers = kg.nUsers, nItems = kg.nItems, nExternal = kg.nExternal, nNodes = n,
      userItemEdges = ui, itemExternalEdges = ie, userExternalEdges = ue, totalEdges = total,
      avgUserDegree = if (kg.nUsers == 0) 0 else ui.toDouble / kg.nUsers,
      avgItemDegreeFromUsers = if (kg.nItems == 0) 0 else ui.toDouble / kg.nItems,
      avgItemDegreeToExternal = if (kg.nItems == 0) 0 else ie.toDouble / kg.nItems,
      avgExternalDegree = if (kg.nExternal == 0) 0 else (ie + ue).toDouble / kg.nExternal,
      density = density,
      avgPathLength = if (nPairs == 0) 0.0 else sumDist / nPairs,
      diameter = diameter,
    )
  }
}
