package repro.kg

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.graph.CompactGraph

/** The knowledge-based graph G(V, E, w) as Spark DataFrames, with the
  * driver-side values derived from them computed once, on first read.
  *
  * @param nodes (id: long, ntype: string, gender: string|null) — gender only
  *              for user nodes (ML1M publishes it; used by the paper's
  *              100M/100F sampling)
  * @param edges (src: long, dst: long, etype: string, rating: double|null,
  *              ts: long|null, weight: double) — etype ∈
  *              {user-item, item-external, user-external}
  */
final case class KGraph(nodes: DataFrame, edges: DataFrame) {

  /** Node count of each type: one Spark job each, over that type's rows
    * only (the filter prunes the other types' branches of `nodes`).
    */
  lazy val nUsers: Int    = ofType("user").count().toInt
  lazy val nItems: Int    = ofType("item").count().toInt
  lazy val nExternal: Int = ofType("external").count().toInt

  def numNodes: Long = nUsers.toLong + nItems + nExternal

  /** The CSR of `edges`: the one collect of the edge table, shared by
    * every [[KgIndex]] and by the graph statistics.
    */
  lazy val graph: CompactGraph = CompactGraph.fromEdges(edges)

  private[kg] def ofType(ntype: String): DataFrame = nodes.filter(col("ntype") === ntype)
}
