package repro.core

import repro.graph.{CompactGraph, EdgeCost}

/** Algorithm 2 of the paper: PCST-based summary explanations.
  *
  * The prize-collecting relaxation lets the summary *forego* a terminal
  * whose connection would cost more than its prize — the mechanism the
  * paper uses to keep group summaries (hundreds/thousands of terminals)
  * tractable: minimise C(S) = Σ_{e∈E_S} w'(e) − Σ_{v∈V_S} p(v).
  *
  * The printed pseudo-code is a Prim/Kruskal-style growth sketch whose
  * priority-key semantics do not type-check as written (DESIGN.md §3); we
  * implement the scheme it describes — regions grow out of prized
  * terminals and merge while a connection pays for itself — as a
  * Mehlhorn-style Voronoi realisation of the Goemans–Williamson growth
  * (the 2-approximation the paper cites [54]):
  *
  *  1. one multi-source Dijkstra from all terminals partitions the graph
  *     into Voronoi regions (single pass ⇒ runtime independent of |T|,
  *     the scalability behaviour reported in Figs 9–11);
  *  2. in the same pass, every edge joining two regions proposes a
  *     connection of cost dist(u) + w'(e) + dist(v); the cheapest proposal
  *     per region pair survives ([[repro.graph.SearchSpace.search]]);
  *  3. proposals are scanned in Kruskal order and accepted while
  *     cost ≤ remaining prize budget of the two components; an accepted
  *     merge spends that budget.
  *
  * Terminals never merged into a component forfeit their prize and are
  * omitted from the summary (V_S), per the problem definition.
  * Complexity O((|V| + |E|)·log|V|), as stated in §IV-B.
  */
object Pcst {

  // This kernel's buffers in the calling thread's SearchSpace.
  private final val Costs = 0     // doubles; first the terminals as sort keys
  private final val Remaining = 1
  private final val Bridges = 0   // ints

  /** [[kernel]] on the cost oracle `cost` with its result copied out.
    *
    * @param g       the knowledge-based graph (CSR view)
    * @param cost    edge cost oracle w'(e); the paper's experiments ignore
    *                edge weights and use a uniform cost (§V-A)
    * @param terminals terminal vertex indices (deduplicated internally)
    * @param prizes  prize p(t) per terminal, aligned with `terminals`
    *                (non-terminals implicitly have the paper's p = β ≈ 0);
    *                +∞ is legal, a NaN or negative prize throws, naming its position
    */
  def summarize(g: CompactGraph, cost: EdgeCost, terminals: Array[Int],
                prizes: Array[Double]): TreeResult = {
    require(terminals.length == prizes.length, "one prize per terminal")
    val ws = g.workspace
    val terms = ws.terminals(terminals.length)
    System.arraycopy(terminals, 0, terms, 0, terminals.length)
    val occurrences = kernel(g, ws.fillCosts(g, cost), terms, terminals.length, prizes)
    TreeResult(ws.edgeIds, occurrences)
  }

  /** The kernel on the terminals `terms(0 until len)`, repeats allowed, and
    * arc costs `arcCosts` as [[repro.graph.SearchSpace.fillCosts]] returns
    * them. It rewrites `terms` as the distinct terminals in ascending vertex
    * order, which are the regions' order, leaves the summary's edges in the
    * workspace's edge set and returns their [[TreeResult.pathNodeOccurrences]].
    *
    * @param prizes p(t) aligned with `terms(0 until len)`, or one entry that
    *               every terminal has; a terminal given twice keeps the
    *               larger prize. A NaN or negative prize throws, naming its
    *               position
    */
  def kernel(g: CompactGraph, arcCosts: Array[Double], terms: Array[Int], len: Int,
             prizes: Array[Double]): Int = {
    val ws = g.workspace
    ws.clearEdges(g.numEdges)
    // Distinct terminals in ascending vertex order, each with the largest
    // of its prizes (the first of equal ones): a stable sort by vertex
    // groups a terminal's occurrences in input order. The keys hold the
    // vertices while `terms` is rewritten.
    val keys = ws.doubles(Costs, len)
    var i = 0
    while (i < len) { keys(i) = terms(i); i += 1 }
    val byVertex = ws.sortByKey(keys, len)
    def vertexAt(k: Int): Int = keys(byVertex(k)).toInt
    // p(t) per distinct terminal, then each region's unspent budget while merging.
    val remaining = ws.doubles(Remaining, len)
    val perTerminal = if (prizes.length == 1) 0 else -1 // index mask: a lone prize is every terminal's
    var t = -1
    i = 0
    while (i < len) {
      val p = prizes(byVertex(i) & perTerminal)
      // A NaN prize would make the growth radius NaN and the search reach nothing.
      if (!(p >= 0)) throw new IllegalArgumentException(s"prize at position ${byVertex(i)} is $p")
      if (i == 0 || vertexAt(i) != vertexAt(i - 1)) { t += 1; terms(t) = vertexAt(i); remaining(t) = p }
      else if (remaining(t) < p) remaining(t) = p
      i += 1
    }
    val n = t + 1
    if (n <= 1) return n

    // A connection dearer than the total prize pool can never be accepted,
    // so the growth radius is capped at the pool (prunes huge graphs).
    var budgetCap = 0.0
    i = 0
    while (i < n) { budgetCap += remaining(i); i += 1 }
    ws.search(g, terms, 0, n, n, arcCosts, budgetCap)

    // Kruskal-ordered prize-aware merging, in (cost, a, b) order: the proposal
    // triangle's slots ascend with the region pair (a, b), and the sort is stable.
    val pairs = (n.toLong * (n - 1) / 2).toInt // the search checked that it fits
    val bound = math.min(pairs, g.numEdges) // one proposal per pair and per edge at most
    val costs = ws.doubles(Costs, bound)
    val bridges = ws.ints(Bridges, bound)
    var m = 0; var s = 0
    while (s < pairs) {
      val a = ws.proposals(s)
      if (a >= 0) { costs(m) = ws.proposalCost(g, a, arcCosts); bridges(m) = g.arcEdge(a); m += 1 }
      s += 1
    }
    val order = ws.sortByKey(costs, m)

    val ds = ws.terminalSets
    ds.reset(n)
    var occurrences = 0
    var k = 0
    while (k < m) {
      val p = order(k)
      val c = costs(p); val be = bridges(p)
      val a = ws.owner(g.edgeSrc(be)); val b = ws.owner(g.edgeDst(be)) // the two regions it joins
      val ra = ds.find(a); val rb = ds.find(b)
      if (ra != rb && c <= remaining(ra) + remaining(rb)) {
        val budget = remaining(ra) + remaining(rb) - c
        ds.union(a, b)
        remaining(ds.find(a)) = budget
        ws.addEdge(be) // the bridge, then each endpoint's path back to its terminal
        val edges = 1 + ws.addPath(g, g.edgeSrc(be)) + ws.addPath(g, g.edgeDst(be))
        occurrences += edges + 1 // nodes of the full connection path
      }
      k += 1
    }
    occurrences
  }
}
