package repro.graph

import org.scalacheck.Gen

/** Shared graph fixtures and reference algorithms for property tests. */
object TestGraphs {

  /** A workspace for `g` that no thread has used. */
  def freshWorkspace(g: CompactGraph): SearchSpace = new SearchSpace(g.numVertices)

  /** Floyd–Warshall all-pairs shortest paths over the undirected view —
    * the brute-force reference for Dijkstra.
    */
  def floydWarshall(g: CompactGraph, cost: EdgeCost): Array[Array[Double]] = {
    val n = g.numVertices
    val d = Array.fill(n, n)(Double.PositiveInfinity)
    (0 until n).foreach(i => d(i)(i) = 0.0)
    (0 until g.numEdges).foreach { e =>
      val (u, v, c) = (g.edgeSrc(e), g.edgeDst(e), cost(e))
      if (c < d(u)(v)) { d(u)(v) = c; d(v)(u) = c }
    }
    for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (d(i)(k) + d(k)(j) < d(i)(j)) d(i)(j) = d(i)(k) + d(k)(j)
    d
  }

  /** The boundary proposals as a scan over all edges computes them after a
    * multi-source search in `ws`: in edge-id order, every edge whose two
    * endpoints were reached with different owners `a < b` offers
    * `dist(src) + cost(e) + dist(dst)` to key `(a << 32) | b`, and a lower
    * cost, then a lower edge id, wins. This is the reference for the
    * proposals the search records itself.
    */
  def scanProposals(g: CompactGraph, ws: SearchSpace, cost: EdgeCost): Map[Long, (Double, Int)] = {
    val best = scala.collection.mutable.Map.empty[Long, (Double, Int)]
    (0 until g.numEdges).foreach { e =>
      val u = g.edgeSrc(e); val v = g.edgeDst(e)
      val ou = ws.owner(u); val ov = ws.owner(v)
      if (ou >= 0 && ov >= 0 && ou != ov) {
        val c = ws.dist(u) + cost(e) + ws.dist(v)
        val key = (math.min(ou, ov).toLong << 32) | math.max(ou, ov)
        best.get(key) match {
          case Some((bc, be)) if bc < c || (bc == c && be < e) =>
          case _ => best(key) = (c, e)
        }
      }
    }
    best.toMap
  }

  /** The proposals a search from `n` sources with arc costs `cost` left in
    * `ws`, read from its triangle as key `(a << 32) | b` → (cost, edge id).
    */
  def proposalsOf(g: CompactGraph, ws: SearchSpace, n: Int, cost: Array[Double]): Map[Long, (Double, Int)] =
    (for (a <- 0 until n; b <- a + 1 until n; arc = ws.proposals(SearchSpace.pairSlot(n, a, b)) if arc >= 0)
      yield ((a.toLong << 32) | b) -> ((ws.proposalCost(g, arc, cost), g.arcEdge(arc)))).toMap

  /** Exact Steiner tree cost via the Dreyfus–Wagner DP (test-only; for
    * tiny graphs). Returns the optimal cost of a tree spanning
    * `terminals`, or +∞ if they are not all connected.
    */
  def exactSteinerCost(g: CompactGraph, cost: EdgeCost, terminals: Array[Int]): Double = {
    val terms = terminals.distinct
    if (terms.length <= 1) return 0.0
    val n = g.numVertices
    val t = terms.length
    val d = floydWarshall(g, cost)
    val full = (1 << t) - 1
    val dp = Array.fill(1 << t, n)(Double.PositiveInfinity)
    for (i <- 0 until t; v <- 0 until n) dp(1 << i)(v) = d(terms(i))(v)
    for (s <- 1 to full) {
      if (Integer.bitCount(s) > 1) {
        // Combine proper sub-splits rooted at v.
        for (v <- 0 until n) {
          var sub = (s - 1) & s
          while (sub > 0) {
            val c = dp(sub)(v) + dp(s ^ sub)(v)
            if (c < dp(s)(v)) dp(s)(v) = c
            sub = (sub - 1) & s
          }
        }
        // Relax through intermediate vertices (Dijkstra would do; FW dist ok).
        for (v <- 0 until n; u <- 0 until n) {
          val c = dp(s)(u) + d(u)(v)
          if (c < dp(s)(v)) dp(s)(v) = c
        }
      }
    }
    (0 until n).map(v => dp(full)(v)).min
  }

  /** Random connected-ish undirected graph on `minNodes` to `maxNodes`
    * vertices as directed triples with distinct random weights
    * (distinctness makes shortest paths unique w.h.p., so
    * cross-implementation tests can compare edge sets).
    */
  def randomGraphGen(maxNodes: Int, extraEdgeFactor: Double = 1.5,
                     minNodes: Int = 2): Gen[Seq[(Long, Long, Double)]] =
    for {
      n <- Gen.choose(minNodes, maxNodes)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      // Random spanning tree first, then extra edges.
      val tree = (1 until n).map { v => (rnd.nextInt(v).toLong, v.toLong) }
      val extra = (0 until (n * extraEdgeFactor).toInt).flatMap { _ =>
        val a = rnd.nextInt(n); val b = rnd.nextInt(n)
        if (a == b) None else Some((math.min(a, b).toLong, math.max(a, b).toLong))
      }
      (tree ++ extra).distinct.map { case (a, b) => (a, b, 0.5 + rnd.nextDouble()) }
    }

  /** Random multigraph on vertices `0 to n`, as directed unit-weight
    * triples in random order: `n` is a hub joined to every other vertex,
    * and repeated pairs, reversed repeats and self-loops give parallel
    * edges in both directions.
    */
  def multigraphGen(maxNodes: Int): Gen[Seq[(Long, Long, Double)]] =
    for {
      n <- Gen.choose(2, maxNodes)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      val hub = n.toLong
      val spokes = (0 until n).map(v => if (rnd.nextBoolean()) (hub, v.toLong) else (v.toLong, hub))
      val others = Seq.fill(rnd.nextInt(3 * n))((rnd.nextInt(n + 1).toLong, rnd.nextInt(n + 1).toLong))
      val base = spokes ++ others
      val repeats = Seq.fill(rnd.nextInt(2 * n)) {
        val (a, b) = base(rnd.nextInt(base.size))
        if (rnd.nextBoolean()) (b, a) else (a, b)
      }
      rnd.shuffle(base ++ repeats).map { case (a, b) => (a, b, 1.0) }
    }

  /** Random multigraph on vertices `0 to n` with long shortest paths, as
    * directed unit-weight triples in random order: a chain 0–1–…–n in
    * random directions plus a few random pairs, where repeated pairs,
    * reversed repeats and self-loops give parallel edges in both directions.
    */
  def chainMultigraphGen(maxNodes: Int): Gen[Seq[(Long, Long, Double)]] =
    for {
      n <- Gen.choose(2, maxNodes)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield {
      val rnd = new scala.util.Random(seed)
      val chain = (0 until n).map(v => if (rnd.nextBoolean()) (v.toLong, v + 1L) else (v + 1L, v.toLong))
      val others = Seq.fill(rnd.nextInt(n / 2 + 1))((rnd.nextInt(n + 1).toLong, rnd.nextInt(n + 1).toLong))
      val base = chain ++ others
      val repeats = Seq.fill(rnd.nextInt(n)) {
        val (a, b) = base(rnd.nextInt(base.size))
        if (rnd.nextBoolean()) (b, a) else (a, b)
      }
      rnd.shuffle(base ++ repeats).map { case (a, b) => (a, b, 1.0) }
    }
}
