package repro.core

import repro.graph.{CompactGraph, EdgeCost}

/** Result of a tree kernel run through its public entry
  * ([[SteinerTree.summarize]], [[Pcst.summarize]]), copied out of the
  * calling thread's workspace; `Summarizer` reads the kernel's edge set in
  * the workspace instead and builds none.
  *
  * @param edgeIds              distinct edge ids of the summary subgraph, in
  *                             the order the kernel added them; a fresh
  *                             array, never a workspace buffer
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

  // This kernel's buffers in the calling thread's SearchSpace.
  private final val PairDist = 0 // doubles
  private final val PairI = 0    // ints from here on
  private final val PairJ = 1
  private final val PathAt = 2
  private final val Pool = 3

  /** [[kernel]] on the cost oracle `cost`, read once per arc into the
    * thread's cost buffer, with its result copied out. Repeated terminals
    * count once, at their first occurrence.
    */
  def summarize(g: CompactGraph, cost: EdgeCost, terminals: Array[Int]): TreeResult = {
    val ws = g.workspace
    val terms = ws.terminals(terminals.length)
    System.arraycopy(terminals, 0, terms, 0, terminals.length)
    val n = ws.distinctVertices(terms, terminals.length)
    val occurrences = kernel(g, ws.fillCosts(g, cost), terms, n)
    TreeResult(ws.edgeIds, occurrences)
  }

  /** The kernel on the distinct terminals `terms(0 until n)` and arc costs
    * `arcCosts`, as a fill of the calling thread's workspace returns them
    * ([[repro.graph.SearchSpace.fillCosts]], [[WeightAdjust.costs]]). It
    * leaves the summary's edges in the workspace's edge set and returns
    * their [[TreeResult.pathNodeOccurrences]]; `terms` is only read.
    */
  def kernel(g: CompactGraph, arcCosts: Array[Double], terms: Array[Int], n: Int): Int = {
    val ws = g.workspace
    ws.clearEdges(g.numEdges)
    if (n <= 1) return n

    // Step 1-2: metric closure. One SSSP per terminal in the calling
    // thread's search space, early-stopped once the later terminals are
    // settled: pair (i, j) with i < j reads only SSSP i, and a settled
    // vertex's distance and predecessor never change, so stopping there
    // loses nothing. The last terminal's SSSP would serve no pair.
    //
    // Each finite pair i < j is kept in parallel workspace buffers sized
    // for all n(n−1)/2 pairs: closure distance, i, j and the offset of its
    // source→terminal edge ids in one shared pool, so the Θ(|T|²) closure
    // costs no object per pair and, once the buffers have grown, no
    // allocation.
    val bound = Math.toIntExact(n.toLong * (n - 1) / 2)
    val pairDist = ws.doubles(PairDist, bound)
    val pairI = ws.ints(PairI, bound)
    val pairJ = ws.ints(PairJ, bound)
    val pathAt = ws.ints(PathAt, bound + 1) // pair p's path is pool(pathAt(p) until pathAt(p + 1))
    var pool = ws.ints(Pool, bound)         // every finite pair has at least one edge
    pathAt(0) = 0
    var pairs = 0
    var i = 0
    while (i < n - 1) {
      ws.search(g, terms, i, i + 1, n, arcCosts, Double.PositiveInfinity)
      var j = i + 1
      while (j < n) {
        val d = ws.dist(terms(j))
        if (d.isFinite) {
          val end = pathAt(pairs) + ws.pathLength(g, terms(j))
          if (end > pool.length) pool = ws.ints(Pool, end)
          ws.writePath(g, terms(j), pool, end)
          pairDist(pairs) = d; pairI(pairs) = i; pairJ(pairs) = j
          pairs += 1
          pathAt(pairs) = end
        }
        j += 1
      }
      i += 1
    }

    // Step 3-7: MST of the terminal metric closure (Kruskal over all
    // finite terminal pairs). Pairs were appended in (i, j) order and the
    // index sort is stable, so the order is (d, i, j).
    val ds = ws.terminalSets
    ds.reset(n)
    var occurrences = 0

    // Steps 8-14: expand each accepted closure edge into its graph path.
    val order = ws.sortByKey(pairDist, pairs)
    var k = 0
    while (k < pairs) {
      val p = order(k)
      if (ds.union(pairI(p), pairJ(p))) {
        // Count only the nodes of newly added segments: a segment of L new
        // edges introduces at most L + 1 node mentions, and re-walking an
        // already summarized edge is not a duplicate "mention" — the tree
        // is presented once, which is what keeps ST redundancy below the
        // baselines' (§V-B4).
        var newEdges = 0
        var a = pathAt(p)
        while (a < pathAt(p + 1)) { if (ws.addEdge(pool(a))) newEdges += 1; a += 1 }
        occurrences += newEdges + 1
      }
      k += 1
    }
    occurrences
  }
}
