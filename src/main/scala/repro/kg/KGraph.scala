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

  /** Node count of each type, over that type's rows only (the filter
    * prunes the other types' branches of `nodes`). The rows are counted
    * per partition on the executors and summed on the driver, so the user
    * count is one Spark job of one stage with no shuffle; `Dataset.count`
    * would plan a partial count, a shuffle to one partition and a final
    * count. The item and external rows come from distincts, which shuffle
    * either way.
    */
  lazy val nUsers: Int    = count("user")
  lazy val nItems: Int    = count("item")
  lazy val nExternal: Int = count("external")

  def numNodes: Long = nUsers.toLong + nItems + nExternal

  /** The CSR of `edges`, the one collect of the edge table: every [[KgIndex]],
    * sample and graph statistic derived from the edges reads it.
    */
  lazy val graph: CompactGraph = CompactGraph.fromEdges(edges)

  private[repro] def ofType(ntype: String): DataFrame = nodes.filter(col("ntype") === ntype)

  private def count(ntype: String): Int = Math.toIntExact(ofType(ntype).queryExecution.toRdd.count())
}
