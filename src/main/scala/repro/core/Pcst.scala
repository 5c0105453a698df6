package repro.core

import repro.graph.{CompactGraph, DisjointSet, EdgeCost, IndexSort, LongKeyTable}

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

  /** @param g       the knowledge-based graph (CSR view)
    * @param cost    edge cost oracle w'(e); the paper's experiments ignore
    *                edge weights and use a uniform cost (§V-A)
    * @param terminals terminal vertex indices (deduplicated internally)
    * @param prizes  prize p(t) per terminal, aligned with `terminals`
    *                (non-terminals implicitly have the paper's p = β ≈ 0)
    */
  def summarize(g: CompactGraph, cost: EdgeCost, terminals: Array[Int],
                prizes: Array[Double]): TreeResult = {
    require(terminals.length == prizes.length, "one prize per terminal")
    // Distinct terminals in ascending vertex order, each with the largest
    // of its prizes (the first of equal ones): (vertex, position) packed so
    // one primitive sort groups a terminal's occurrences in input order.
    val packed = new Array[Long](terminals.length)
    var i = 0
    while (i < terminals.length) { packed(i) = (terminals(i).toLong << 32) | i; i += 1 }
    java.util.Arrays.sort(packed)
    def vertexAt(k: Int): Int = (packed(k) >> 32).toInt
    def firstOf(k: Int): Boolean = k == 0 || vertexAt(k) != vertexAt(k - 1)
    var distinct = 0
    i = 0
    while (i < packed.length) { if (firstOf(i)) distinct += 1; i += 1 }
    val terms = new Array[Int](distinct)
    val prize = new Array[Double](distinct)
    var t = -1
    i = 0
    while (i < packed.length) {
      val p = prizes(packed(i).toInt)
      if (firstOf(i)) { t += 1; terms(t) = vertexAt(i); prize(t) = p }
      else if (prize(t) < p) prize(t) = p
      i += 1
    }
    if (terms.length <= 1) return TreeResult(Array.empty, terms.length)

    // A connection dearer than the total prize pool can never be accepted,
    // so the growth radius is capped at the pool (prunes huge graphs).
    val budgetCap = prize.sum
    val ws = g.workspace
    g.search(ws, terms, cost, null, budgetCap)

    // Cheapest boundary proposal per region pair: (cost, edge id), the
    // lower edge id on equal cost. There are at most n(n−1)/2 region pairs
    // and |E| boundary edges, so the table never rehashes.
    val n = terms.length
    val proposals = new LongKeyTable(math.min(n.toLong * (n - 1) / 2, g.numEdges.toLong).toInt)
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
    // sorted ascending, then a stable index sort by cost.
    val m = proposals.size
    val keys = new Array[Long](m)
    var s = 0; var k = 0
    while (s < proposals.capacity) {
      if (proposals.isOccupied(s)) { keys(k) = proposals.keyAt(s); k += 1 }
      s += 1
    }
    java.util.Arrays.sort(keys)
    val costs = new Array[Double](m)
    val bridges = new Array[Int](m)
    k = 0
    while (k < m) {
      val slot = proposals.find(keys(k))
      costs(k) = proposals.doubleAt(slot); bridges(k) = proposals.intAt(slot)
      k += 1
    }
    val order = IndexSort.byKey(costs, m)

    val ds = new DisjointSet(terms.length)
    val remaining = prize.clone()
    val edgeSet = new java.util.LinkedHashSet[Integer]()
    var occurrences = 0

    def walkUp(start: Int): Int = { // add path from `start` back to its terminal
      val path = g.pathEdges(ws, start)
      var i = path.length
      while (i > 0) { i -= 1; edgeSet.add(path(i)) }
      path.length
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
        edgeSet.add(be)
        val lu = walkUp(g.edgeSrc(be))
        val lv = walkUp(g.edgeDst(be))
        occurrences += lu + lv + 2 // nodes of the full connection path
      }
      k += 1
    }

    val out = new Array[Int](edgeSet.size())
    val it = edgeSet.iterator(); var o = 0
    while (it.hasNext) { out(o) = it.next().intValue(); o += 1 }
    TreeResult(out, occurrences)
  }
}
