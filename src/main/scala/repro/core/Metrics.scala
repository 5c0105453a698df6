package repro.core

import repro.kg.{NodeIds, NodeType}

/** The seven explanation-quality metrics of §V-B, defined over a summary
  * subgraph S = (V_S, E_S, w) and equally applicable to a baseline
  * explanation (the union of its paths, duplicates retained).
  */
object Metrics {

  /** C(S) = 1 / |E_S| — inversely proportional to explanation size; for
    * path sets the size is the total path length (duplicates counted), as
    * in Table I's "total length of 13".
    */
  def comprehensibility(s: Subgraph): Double =
    1.0 / math.max(1, s.edgeOccurrences)

  /** A(S) = (# item nodes in S) / |V_S| — items are actionable (a user can
    * re-rate them), user and external nodes are not.
    */
  def actionability(s: Subgraph): Double = {
    if (s.nodes.isEmpty) return 0.0
    s.nodes.count(NodeIds.isItem).toDouble / s.nodes.length
  }

  /** D(S): mean over all edge pairs of 1 − J(e_i, e_j), where J is the
    * Jaccard similarity of the node pairs the edges connect. Computed on
    * the constituent edge multiset so repeated baseline hops lower
    * diversity, exactly as repeated 3-hop paths do in the paper.
    */
  def diversity(s: Subgraph): Double = {
    val es = s.allEdges
    val n = es.length
    if (n < 2) return 0.0
    var sum = 0.0
    var i = 0
    while (i < n) {
      val a1 = es(i).src; val b1 = es(i).dst
      var j = i + 1
      while (j < n) {
        val a2 = es(j).src; val b2 = es(j).dst
        val shared =
          (if (a1 == a2 || a1 == b2) 1 else 0) + (if (b1 == a2 || b1 == b2) 1 else 0)
        // Node sets have size 2 (self loops don't occur in the KG).
        val jac = shared match {
          case 0 => 0.0
          case 1 => 1.0 / 3.0
          case _ => 1.0
        }
        sum += 1.0 - jac
        j += 1
      }
      i += 1
    }
    sum / (n.toLong * (n - 1) / 2).toDouble
  }

  /** R(S): proportion of duplicate node mentions — 1 − |unique| / |total|
    * over the constituent paths' node occurrences (0 when every mention is
    * unique; high when paths keep revisiting the same hubs).
    */
  def redundancy(s: Subgraph): Double = {
    val total = math.max(s.pathNodeOccurrences, s.nodes.length)
    if (total == 0) 0.0 else 1.0 - s.nodes.length.toDouble / total
  }

  /** Consistency: mean Jaccard similarity of V_{S_k} and V_{S_{k+1}} over
    * consecutive k. `byK` must be ordered by ascending k.
    */
  def consistency(byK: Seq[Subgraph]): Double = {
    if (byK.size < 2) return 1.0
    val sims = byK.sliding(2).map { case Seq(a, b) =>
      val va = a.nodes.toSet; val vb = b.nodes.toSet
      val union = (va ++ vb).size
      if (union == 0) 1.0 else (va & vb).size.toDouble / union
    }
    sims.sum / (byK.size - 1)
  }

  /** R(S) = Σ_{e∈E_S} w_M(e) — alignment with historical interactions. */
  def relevance(s: Subgraph): Double = s.edges.iterator.map(_.wM).sum

  /** P(S) = 1 − (# user nodes) / |V_S| — fewer exposed users is better. */
  def privacy(s: Subgraph): Double = {
    if (s.nodes.isEmpty) return 1.0
    1.0 - s.nodes.count(NodeIds.isUser).toDouble / s.nodes.length
  }
}
