package repro.graph

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import repro.kg.KGraph

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

  /** Edge-layer counts and degree averages via DataFrame aggregation
    * (oracle-checked in GraphStatsSpec); path-length stats via sampled BFS
    * on the knowledge graph's CSR, `kg.graph`.
    */
  def compute(kg: KGraph, sampleSources: Int = 24, seed: Long = 42L): Stats = {
    val counts: Map[String, Long] = kg.edges.groupBy("etype").agg(count(lit(1)) as "n")
      .collect().map((r: Row) => r.getString(0) -> r.getLong(1)).toMap
    val ui = counts.getOrElse("user-item", 0L)
    val ie = counts.getOrElse("item-external", 0L)
    val ue = counts.getOrElse("user-external", 0L)
    val total = ui + ie + ue

    val n = kg.numNodes
    val density = if (n < 2) 0.0 else total.toDouble / (n.toDouble * (n - 1) / 2.0)

    val g = kg.graph
    val rnd = new scala.util.Random(seed)
    val sources = Array.fill(math.min(sampleSources, g.numVertices))(rnd.nextInt(g.numVertices))
    var sumDist = 0.0; var nPairs = 0L; var diameter = 0
    sources.foreach { s =>
      val hops = g.bfsHops(s)
      var v = 0
      while (v < hops.length) {
        val h = hops(v)
        if (h > 0) { sumDist += h; nPairs += 1; if (h > diameter) diameter = h }
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
