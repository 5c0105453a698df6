package repro.core

import repro.graph.{CompactGraph, EdgeCost, IndexSort}

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
  *  2. every edge joining two regions proposes a connection of cost
  *     dist(u) + w'(e) + dist(v); the cheapest proposal per region pair
  *     survives;
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
  private final val Costs = 0     // doubles
  private final val Remaining = 1
  private final val Keys = 0      // longs
  private final val Packed = 1
  private final val Bridges = 0   // ints
  private final val Perm = 1
  private final val SortBuf = 2
  private final val Path = 3

  /** @param g       the knowledge-based graph (CSR view)
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
    // Distinct terminals in ascending vertex order, each with the largest
    // of its prizes (the first of equal ones): (vertex, position) packed so
    // one primitive sort groups a terminal's occurrences in input order.
    val len = terminals.length
    val packed = ws.longs(Packed, len)
    var i = 0
    while (i < len) { packed(i) = (terminals(i).toLong << 32) | i; i += 1 }
    java.util.Arrays.sort(packed, 0, len)
    def vertexAt(k: Int): Int = (packed(k) >> 32).toInt
    def firstOf(k: Int): Boolean = k == 0 || vertexAt(k) != vertexAt(k - 1)
    var distinct = 0
    i = 0
    while (i < len) { if (firstOf(i)) distinct += 1; i += 1 }
    val terms = new Array[Int](distinct)
    val prize = new Array[Double](distinct)
    var t = -1
    i = 0
    while (i < len) {
      val p = prizes(packed(i).toInt)
      // A NaN prize would make the growth radius NaN and the search reach nothing.
      if (!(p >= 0)) throw new IllegalArgumentException(s"prize at position ${packed(i).toInt} is $p")
      if (firstOf(i)) { t += 1; terms(t) = vertexAt(i); prize(t) = p }
      else if (prize(t) < p) prize(t) = p
      i += 1
    }
    if (terms.length <= 1) return TreeResult(Array.empty, terms.length)

    // A connection dearer than the total prize pool can never be accepted,
    // so the growth radius is capped at the pool (prunes huge graphs).
    val n = terms.length
    var budgetCap = 0.0
    i = 0
    while (i < n) { budgetCap += prize(i); i += 1 }
    g.search(ws, terms, 0, n, cost, budgetCap)

    // Cheapest boundary proposal per region pair: (cost, edge id), the
    // lower edge id on equal cost. There are at most n(n−1)/2 region pairs
    // and |E| boundary edges, so the table never rehashes.
    val proposals = ws.proposals
    proposals.reset(math.min(n.toLong * (n - 1) / 2, g.numEdges.toLong).toInt)
    var e = 0
    while (e < g.numEdges) {
      val u = g.edgeSrc(e); val v = g.edgeDst(e)
      val ou = ws.owner(u); val ov = ws.owner(v)
      if (ou >= 0 && ov >= 0 && ou != ov) {
        val c = ws.dist(u) + cost(e) + ws.dist(v)
        val key = if (ou < ov) (ou.toLong << 32) | ov else (ov.toLong << 32) | ou
        val cur = proposals.find(key)
        if (cur < 0 || c < proposals.doubleAt(cur) || (c == proposals.doubleAt(cur) && e < proposals.intAt(cur)))
          proposals.put(key, c, e)
      }
      e += 1
    }

    // Kruskal-ordered prize-aware merging, in (cost, key) order: the keys
    // sorted ascending, then a stable index sort by cost. The sort also
    // keeps the table's slot order out of the result.
    val m = proposals.size
    val keys = ws.longs(Keys, m)
    var s = 0; var k = 0
    while (s < proposals.capacity) {
      if (proposals.isOccupied(s)) { keys(k) = proposals.keyAt(s); k += 1 }
      s += 1
    }
    java.util.Arrays.sort(keys, 0, m)
    val costs = ws.doubles(Costs, m)
    val bridges = ws.ints(Bridges, m)
    k = 0
    while (k < m) {
      val slot = proposals.find(keys(k))
      costs(k) = proposals.doubleAt(slot); bridges(k) = proposals.intAt(slot)
      k += 1
    }
    val order = IndexSort.byKey(costs, m, ws.ints(Perm, m), ws.ints(SortBuf, m))

    val ds = ws.terminalSets
    ds.reset(n)
    val remaining = ws.doubles(Remaining, n)
    System.arraycopy(prize, 0, remaining, 0, n)
    ws.clearEdges(g.numEdges)
    var occurrences = 0

    def walkUp(start: Int): Int = { // add path from `start` back to its terminal
      val pathLen = g.pathLength(ws, start)
      val path = ws.ints(Path, pathLen)
      g.writePath(ws, start, path, pathLen)
      var i = pathLen
      while (i > 0) { i -= 1; ws.addEdge(path(i)) }
      pathLen
    }

    k = 0
    while (k < m) {
      val p = order(k)
      val c = costs(p); val be = bridges(p)
      val a = (keys(p) >> 32).toInt; val b = keys(p).toInt
      val ra = ds.find(a); val rb = ds.find(b)
      if (ra != rb && c <= remaining(ra) + remaining(rb)) {
        val budget = remaining(ra) + remaining(rb) - c
        ds.union(a, b)
        remaining(ds.find(a)) = budget
        ws.addEdge(be)
        val lu = walkUp(g.edgeSrc(be))
        val lv = walkUp(g.edgeDst(be))
        occurrences += lu + lv + 2 // nodes of the full connection path
      }
      k += 1
    }
    TreeResult(ws.edgeIds, occurrences)
  }
}
