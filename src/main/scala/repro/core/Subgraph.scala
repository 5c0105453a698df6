package repro.core

/** One edge of a summary subgraph, in its original KG direction, carrying
  * the *base* weight w_M(e) (relevance is defined on w_M, not on the
  * Eq. (1)-adjusted weight).
  */
final case class SummaryEdge(src: Long, dst: Long, wM: Double)

/** A summary explanation: the weakly connected subgraph S = (V_S, E_S, w)
  * produced by a summarizer, or the plain union of baseline explanation
  * paths when no summarization is applied.
  *
  * @param terminals            the scenario's terminal set T (what had to
  *                             be connected)
  * @param edges                distinct edges of S
  * @param allEdges             the constituent edge *multiset*: for
  *                             baseline path sets every hop as its edge's
  *                             one [[SummaryEdge]] (so Table I's "length
  *                             13" counts duplicates); for ST/PCST `edges`
  * @param isolated             terminal nodes included in V_S without any
  *                             incident summary edge (ST keeps unreachable
  *                             terminals; PCST forfeits them)
  * @param pathNodeOccurrences  Σ node count over the constituent paths
  *                             before dedup — the redundancy denominator
  */
final case class Subgraph(
    terminals: Array[Long],
    edges: Array[SummaryEdge],
    allEdges: Array[SummaryEdge],
    isolated: Array[Long],
    pathNodeOccurrences: Int,
) {

  /** V_S: distinct nodes of the subgraph. */
  lazy val nodes: Array[Long] =
    (edges.iterator.flatMap(e => Iterator(e.src, e.dst)) ++ isolated.iterator)
      .toArray.distinct

  /** |E_S| counted as the explanation is presented: total length for path
    * unions, distinct edge count for summaries.
    */
  def edgeOccurrences: Int = allEdges.length
}
