package repro.core

import repro.graph.{CompactGraph, DisjointSet, EdgeCost}

/** Result of a tree kernel run.
  *
  * @param edgeIds              distinct edge ids of the summary subgraph
  * @param pathNodeOccurrences  Σ node count over the constituent expansion
  *                             paths (before dedup) — basis of the paper's
  *                             redundancy metric for summaries
  */
final case class TreeResult(edgeIds: Array[Int], pathNodeOccurrences: Int)

/** Algorithm 1 of the paper: ST-based summary explanations via the
  * Kou–Markowsky–Berman 2-approximation —
  *
  *  1. shortest paths between all terminal pairs (one early-stopped
  *     Dijkstra per terminal but the last),
  *  2. MST of the metric closure over the terminals (Kruskal),
  *  3. MST edges expanded back to their underlying graph paths.
  *
  * The bi-objective "minimise |E_S|, maximise Σw(e)" enters through the
  * cost oracle: callers pass cost(e) = W_max − w(e) + δ (see
  * [[Summarizer]] and DESIGN.md §3), keeping Dijkstra's positivity
  * requirement while trading edge count against total weight.
  *
  * Terminals in different weak components yield a Steiner forest: each
  * component is spanned, no cross-component edge is invented.
  * Complexity O(|T|·(|E| + |V|·log|V|)), the bound stated in §IV-A.
  */
object SteinerTree {

  def summarize(g: CompactGraph, cost: EdgeCost, terminals: Array[Int]): TreeResult = {
    val terms = terminals.distinct
    if (terms.length <= 1) return TreeResult(Array.empty, terms.length)

    // Step 1-2: metric closure. One SSSP per terminal in the calling
    // thread's search space, early-stopped once the later terminals are
    // settled: pair (i, j) with i < j reads only SSSP i, and a settled
    // vertex's distance and predecessor never change, so stopping there
    // loses nothing. The last terminal's SSSP would serve no pair.
    val n = terms.length
    val ws = g.workspace
    // (closure distance, i, j, source→terminal edge ids) of pairs i < j
    val pairs = scala.collection.mutable.ArrayBuffer.empty[(Double, Int, Int, Array[Int])]
    var i = 0
    while (i < n - 1) {
      g.search(ws, Array(terms(i)), cost, terms.drop(i + 1), Double.PositiveInfinity)
      var j = i + 1
      while (j < n) {
        val d = ws.dist(terms(j))
        if (d.isFinite) pairs += ((d, i, j, g.pathEdges(ws, terms(j))))
        j += 1
      }
      i += 1
    }

    // Step 3-7: MST of the terminal metric closure (Kruskal over all
    // finite terminal pairs; deterministic tie-breaking by indices).
    val ds = new DisjointSet(n)
    val edgeSet = new java.util.LinkedHashSet[Integer]()
    var occurrences = 0

    // Steps 8-14: expand each accepted closure edge into its graph path.
    // Kruskal order (d, i, j), compared field by field: a key tuple built
    // per comparison would allocate Θ(|T|² log |T|) objects.
    val byClosure: Ordering[(Double, Int, Int, Array[Int])] = (x, y) => {
      val c = java.lang.Double.compare(x._1, y._1)
      if (c != 0) c else if (x._2 != y._2) Integer.compare(x._2, y._2) else Integer.compare(x._3, y._3)
    }
    pairs.sorted(byClosure).foreach { case (_, a, b, path) =>
      if (ds.union(a, b)) {
        // Count only the nodes of newly added segments: a segment of L new
        // edges introduces at most L + 1 node mentions, and re-walking an
        // already summarized edge is not a duplicate "mention" — the tree
        // is presented once, which is what keeps ST redundancy below the
        // baselines' (§V-B4).
        val newEdges = path.count(e => !edgeSet.contains(e))
        occurrences += newEdges + 1
        path.foreach(e => edgeSet.add(e))
      }
    }

    val out = new Array[Int](edgeSet.size())
    val it = edgeSet.iterator(); var k = 0
    while (it.hasNext) { out(k) = it.next().intValue(); k += 1 }
    TreeResult(out, occurrences)
  }
}
