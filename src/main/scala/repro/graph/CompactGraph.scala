package repro.graph

import org.apache.spark.sql.DataFrame

/** Per-edge cost oracle used by the tree kernels. Indexed by *edge id*
  * (position in the original directed edge list), not by arc.
  */
trait EdgeCost extends Serializable { def apply(edge: Int): Double }

object EdgeCost {
  /** Uniform cost `c` for every edge (the paper's unweighted PCST setting). */
  def uniform(c: Double): EdgeCost = (_: Int) => c
}

/** Result of a single-source Dijkstra run: `dist(v)` is the shortest-path
  * cost from the source to vertex index `v` (Double.PositiveInfinity if
  * unreachable) and `predArc(v)` is the arc index that last relaxed `v`
  * (−1 for the source and unreachable vertices).
  */
final case class SsspResult(source: Int, dist: Array[Double], predArc: Array[Int])

/** Compact CSR (compressed sparse row) view of the knowledge-based graph.
  *
  * The original graph is directed (user→item, item→external, …) but the
  * paper's summaries are *weakly connected* subgraphs, so the adjacency is
  * the undirected view: each directed edge contributes two arcs, both
  * pointing back at the same original edge id so weights/costs and the
  * original direction are preserved in the output. Each vertex's arcs are
  * in ascending edge-id order, so the first arc to a neighbour carries the
  * lowest-id edge between the two.
  *
  * The structure is immutable and serialisable, sized for broadcast
  * (≤ tens of MB at paper scale) so thousands of independent summary
  * computations can run in parallel on executors.
  *
  * @param ids        vertex index → external (KG) node id, sorted ascending
  * @param offsets    CSR offsets, length `numVertices + 1`
  * @param arcTarget  arc → target vertex index
  * @param arcEdge    arc → original edge id
  * @param edgeSrc    edge id → source vertex index (original direction)
  * @param edgeDst    edge id → destination vertex index (original direction)
  * @param edgeWeight edge id → base weight w(e) (after KG weighting, before Eq. 1)
  */
final class CompactGraph(
    val ids: Array[Long],
    val offsets: Array[Int],
    val arcTarget: Array[Int],
    val arcEdge: Array[Int],
    val edgeSrc: Array[Int],
    val edgeDst: Array[Int],
    val edgeWeight: Array[Double],
) extends Serializable {

  val numVertices: Int = ids.length
  val numEdges: Int    = edgeSrc.length

  /** External node id → vertex index, or −1 if the id is not in the graph
    * (binary search over the sorted ids).
    */
  def find(id: Long): Int = {
    val i = java.util.Arrays.binarySearch(ids, id)
    if (i >= 0) i else -1
  }

  /** External node id → vertex index; the id must be in the graph. */
  def indexOf(id: Long): Int = {
    val i = find(id)
    require(i >= 0, s"node id $id not in graph")
    i
  }

  /** True iff the external node id is present in the graph. */
  def contains(id: Long): Boolean = find(id) >= 0

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** This thread's search space. Rebuilt lazily on each executor after
    * deserialisation and never shipped: one per thread, so concurrent
    * summaries on one broadcast graph never share search state.
    */
  @transient private lazy val workspaces: ThreadLocal[SearchSpace] =
    ThreadLocal.withInitial(() => new SearchSpace(numVertices))

  /** The calling thread's reusable [[SearchSpace]]. Its results stay valid
    * until the thread's next [[search]]; its kernel scratch belongs to the
    * kernel call running on the thread.
    */
  def workspace: SearchSpace = workspaces.get()

  /** Multi-source Dijkstra over the undirected view with per-edge costs,
    * the one shortest-path loop of the code base. Results are read from
    * `ws` afterwards: `dist`, `predArc` and `owner`, the index *into
    * `terms`* of the closest source.
    *
    * The sources and the settle-set are ranges of one array, so a kernel
    * passes slices of its terminal array without copying them.
    *
    * @param ws      the search space to run in; its previous results are discarded
    * @param terms   the sources `terms(from until until)`, distinct and all
    *                at distance 0, then the settle-set
    *                `terms(until until terms.length)`: the search stops once
    *                every reachable target has been settled (a full search
    *                if that range is empty). Early stopping is what keeps
    *                Algorithm 1 fast — terminals of one summary live within
    *                a few hops.
    * @param cost    edge cost oracle; must be > 0 for every edge
    * @param maxDist vertices farther than this are never reached
    */
  def search(ws: SearchSpace, terms: Array[Int], from: Int, until: Int, cost: EdgeCost,
             maxDist: Double): Unit = {
    ws.begin()
    var s = from
    while (s < until) {
      val v = terms(s)
      require(!ws.reached(v), s"source vertex $v listed twice")
      ws.relax(v, 0.0, -1, s)
      s += 1
    }
    var remaining = 0
    var t = until
    while (t < terms.length) {
      if (ws.markTarget(terms(t))) remaining += 1
      t += 1
    }
    var done = false
    while (!done && !ws.heapEmpty) {
      val d = ws.topKey
      val u = ws.pop()
      // Lazy deletion: only the entry carrying u's current distance is live.
      if (!ws.settled(u) && d <= ws.dist(u)) {
        ws.settle(u)
        if (ws.isTarget(u)) {
          remaining -= 1
          if (remaining == 0) done = true
        }
        if (!done) {
          val du = ws.dist(u)
          val ou = ws.owner(u)
          var a = offsets(u)
          val end = offsets(u + 1)
          while (a < end) {
            val v = arcTarget(a)
            if (!ws.settled(v)) {
              val nd = du + cost(arcEdge(a))
              if (nd < ws.dist(v) && nd <= maxDist) ws.relax(v, nd, a, ou)
            }
            a += 1
          }
        }
      }
    }
  }

  /** Single-source Dijkstra: [[search]] from `source`, copied out of the
    * calling thread's workspace.
    *
    * @param targets optional settle-set (pass null for a full SSSP)
    */
  def dijkstra(source: Int, cost: EdgeCost, targets: Array[Int] = null): SsspResult = {
    val ws = workspace
    val terms = if (targets == null) Array(source) else source +: targets
    search(ws, terms, 0, 1, cost, Double.PositiveInfinity)
    val (dist, predArc, _) = copyOut(ws)
    SsspResult(source, dist, predArc)
  }

  /** Number of edges on the shortest path from the last [[search]]'s
    * sources to `v`.
    */
  def pathLength(ws: SearchSpace, v: Int): Int = {
    var len = 0
    var cur = v
    while (ws.predArc(cur) != -1) { cur = otherEnd(arcEdge(ws.predArc(cur)), cur); len += 1 }
    len
  }

  /** Writes the edge ids of that path, in source→v order, into
    * `dst(end - pathLength(ws, v) until end)`, so that callers can pack
    * many paths into one array without allocating one per path.
    */
  def writePath(ws: SearchSpace, v: Int, dst: Array[Int], end: Int): Unit = {
    var k = end
    var cur = v
    while (ws.predArc(cur) != -1) {
      k -= 1
      dst(k) = arcEdge(ws.predArc(cur))
      cur = otherEnd(dst(k), cur)
    }
  }

  // The arc into `v` carries edge e, so its other endpoint is the parent.
  private def otherEnd(e: Int, v: Int): Int = if (edgeSrc(e) == v) edgeDst(e) else edgeSrc(e)

  /** Multi-source Dijkstra: Voronoi partition around `sources`, copied out
    * of the calling thread's workspace.
    *
    * Returns (dist, predArc, owner) where `owner(v)` is the index *into
    * `sources`* of the closest source (−1 if unreachable). This is the
    * engine of the PCST growth (Algorithm 2): one pass, independent of the
    * number of terminals.
    */
  def voronoi(sources: Array[Int], cost: EdgeCost,
              maxDist: Double = Double.PositiveInfinity): (Array[Double], Array[Int], Array[Int]) = {
    val ws = workspace
    search(ws, sources, 0, sources.length, cost, maxDist)
    copyOut(ws)
  }

  private def copyOut(ws: SearchSpace): (Array[Double], Array[Int], Array[Int]) = {
    val dist    = new Array[Double](numVertices)
    val predArc = new Array[Int](numVertices)
    val owner   = new Array[Int](numVertices)
    var v = 0
    while (v < numVertices) {
      dist(v) = ws.dist(v); predArc(v) = ws.predArc(v); owner(v) = ws.owner(v)
      v += 1
    }
    (dist, predArc, owner)
  }
}

/** Reusable state of [[CompactGraph.search]]: distances, predecessor arcs,
  * owners, settled and target flags, and the heap, sized once for the
  * graph so that a search allocates nothing.
  *
  * Each per-vertex slot is valid only while its stamp equals the current
  * search's epoch, so starting a search costs O(1), not O(|V|); the
  * stamps are cleared only when the epoch counter wraps.
  *
  * The heap is a binary min-heap on parallel `Array[Double]` keys and
  * `Array[Int]` vertices. Its sift steps are those of
  * `java.util.PriorityQueue` comparing keys only with
  * `java.lang.Double.compare`, so entries with tied keys pop in exactly
  * the order that queue pops them. Tied vertices settle in that order,
  * which decides `predArc` and `owner`, hence the summaries' edge sets.
  * Only the last push of a vertex can pop live (every earlier one has a
  * larger key), so the owner a vertex settles with is kept per vertex,
  * not per heap entry.
  *
  * It also holds the tree kernels' per-summary scratch (numbered primitive
  * buffers, a union–find, a proposal table and the summary edge set), so
  * that a summary allocates only its result. A kernel owns all of the
  * scratch for the length of its call; kernels do not nest on a thread, so
  * `SteinerTree` and `Pcst` share it. Like the per-vertex arrays, the
  * scratch lives as long as the thread: it grows geometrically to the
  * largest summary the thread has run and is never shrunk.
  */
final class SearchSpace private[graph] (n: Int, startEpoch: Int = 0) {
  private var epoch      = startEpoch
  private val reachedAt  = new Array[Int](n)
  private val settledAt  = new Array[Int](n)
  private val targetAt   = new Array[Int](n)
  private val distOf     = new Array[Double](n)
  private val predArcOf  = new Array[Int](n)
  private val ownerOf    = new Array[Int](n)
  private var heapKey    = new Array[Double](64)
  private var heapVertex = new Array[Int](64)
  private var heapSize   = 0

  private val intBufs    = Array.fill(SearchSpace.IntBuffers)(new Array[Int](0))
  private val doubleBufs = Array.fill(SearchSpace.DoubleBuffers)(new Array[Double](0))
  private val longBufs   = Array.fill(SearchSpace.LongBuffers)(new Array[Long](0))
  private var edgeMarkAt = new Array[Int](0)
  private var edgeEpoch  = 0
  private var edgeList   = new Array[Int](16)
  private var edgeCount  = 0

  /** Union–find over a summary's terminals; `reset` it before use. */
  val terminalSets = new DisjointSet(0)

  /** PCST's cheapest boundary proposal per region pair; `reset` it before use. */
  val proposals = new LongKeyTable(0)

  /** `Int` buffer number `slot` (`0 until IntBuffers`), with at least
    * `size` entries. Growing it keeps its contents.
    */
  def ints(slot: Int, size: Int): Array[Int] = {
    val a = intBufs(slot)
    if (a.length >= size) a
    else { val b = java.util.Arrays.copyOf(a, SearchSpace.grownSize(a.length, size)); intBufs(slot) = b; b }
  }

  /** `Double` buffer number `slot` (`0 until DoubleBuffers`), as [[ints]]. */
  def doubles(slot: Int, size: Int): Array[Double] = {
    val a = doubleBufs(slot)
    if (a.length >= size) a
    else { val b = java.util.Arrays.copyOf(a, SearchSpace.grownSize(a.length, size)); doubleBufs(slot) = b; b }
  }

  /** `Long` buffer number `slot` (`0 until LongBuffers`), as [[ints]]. */
  def longs(slot: Int, size: Int): Array[Long] = {
    val a = longBufs(slot)
    if (a.length >= size) a
    else { val b = java.util.Arrays.copyOf(a, SearchSpace.grownSize(a.length, size)); longBufs(slot) = b; b }
  }

  /** Empties the summary edge set, an insertion-ordered set of edge ids in
    * `[0, numEdges)`. Membership is an epoch stamp per edge, so clearing
    * costs O(1).
    */
  def clearEdges(numEdges: Int): Unit = {
    if (edgeMarkAt.length < numEdges) { edgeMarkAt = new Array[Int](numEdges); edgeEpoch = 0 }
    if (edgeEpoch == Int.MaxValue) { java.util.Arrays.fill(edgeMarkAt, 0); edgeEpoch = 0 }
    edgeEpoch += 1
    edgeCount = 0
  }

  /** Adds edge `e` to the summary edge set; false if it is already in. */
  def addEdge(e: Int): Boolean =
    if (edgeMarkAt(e) == edgeEpoch) false
    else {
      edgeMarkAt(e) = edgeEpoch
      if (edgeCount == edgeList.length)
        edgeList = java.util.Arrays.copyOf(edgeList, SearchSpace.grownSize(edgeCount, edgeCount + 1))
      edgeList(edgeCount) = e
      edgeCount += 1
      true
    }

  /** The summary edge set in insertion order, as a fresh array that no
    * later use of this space can change.
    */
  def edgeIds: Array[Int] = java.util.Arrays.copyOf(edgeList, edgeCount)

  /** Distance from the nearest source (+∞ if unreached). */
  def dist(v: Int): Double = if (reachedAt(v) == epoch) distOf(v) else Double.PositiveInfinity

  /** Arc that last relaxed `v` (−1 for a source or an unreached vertex). */
  def predArc(v: Int): Int = if (reachedAt(v) == epoch) predArcOf(v) else -1

  /** Index into the search's sources of `v`'s nearest source (−1 if unreached). */
  def owner(v: Int): Int = if (reachedAt(v) == epoch) ownerOf(v) else -1

  def settled(v: Int): Boolean = settledAt(v) == epoch

  private[graph] def begin(): Unit = {
    if (epoch == Int.MaxValue) {
      java.util.Arrays.fill(reachedAt, 0)
      java.util.Arrays.fill(settledAt, 0)
      java.util.Arrays.fill(targetAt, 0)
      epoch = 0
    }
    epoch += 1
    heapSize = 0
  }

  private[graph] def reached(v: Int): Boolean = reachedAt(v) == epoch

  private[graph] def relax(v: Int, d: Double, arc: Int, owner: Int): Unit = {
    reachedAt(v) = epoch
    distOf(v) = d
    predArcOf(v) = arc
    ownerOf(v) = owner
    push(d, v)
  }

  private[graph] def settle(v: Int): Unit = settledAt(v) = epoch

  /** Marks `v` as a target; false if it already was one. */
  private[graph] def markTarget(v: Int): Boolean =
    if (targetAt(v) == epoch) false else { targetAt(v) = epoch; true }

  private[graph] def isTarget(v: Int): Boolean = targetAt(v) == epoch

  private[graph] def heapEmpty: Boolean = heapSize == 0

  private[graph] def topKey: Double = heapKey(0)

  /** `PriorityQueue.offer`: sift up while strictly below the parent. */
  private[graph] def push(key: Double, v: Int): Unit = {
    if (heapSize == heapKey.length) {
      heapKey = java.util.Arrays.copyOf(heapKey, 2 * heapSize)
      heapVertex = java.util.Arrays.copyOf(heapVertex, 2 * heapSize)
    }
    var k = heapSize
    heapSize += 1
    var moving = true
    while (moving && k > 0) {
      val parent = (k - 1) >>> 1
      if (java.lang.Double.compare(key, heapKey(parent)) >= 0) moving = false
      else {
        heapKey(k) = heapKey(parent); heapVertex(k) = heapVertex(parent)
        k = parent
      }
    }
    heapKey(k) = key; heapVertex(k) = v
  }

  /** `PriorityQueue.poll`: remove the root, sift the last entry down from
    * the root, preferring the left child unless the right is strictly smaller.
    */
  private[graph] def pop(): Int = {
    val top = heapVertex(0)
    heapSize -= 1
    val last = heapSize
    if (last > 0) {
      val key = heapKey(last); val v = heapVertex(last)
      val half = last >>> 1
      var k = 0
      var moving = true
      while (moving && k < half) {
        var child = 2 * k + 1
        val right = child + 1
        if (right < last && java.lang.Double.compare(heapKey(child), heapKey(right)) > 0) child = right
        if (java.lang.Double.compare(key, heapKey(child)) <= 0) moving = false
        else {
          heapKey(k) = heapKey(child); heapVertex(k) = heapVertex(child)
          k = child
        }
      }
      heapKey(k) = key; heapVertex(k) = v
    }
    top
  }
}

object SearchSpace {
  /** Numbers of scratch buffers of each type. */
  final val IntBuffers = 6
  final val DoubleBuffers = 2
  final val LongBuffers = 2

  /** Geometric growth: at least `need`, and at least twice `have`. */
  private[graph] def grownSize(have: Int, need: Int): Int =
    math.max(need, math.min(2L * have, Int.MaxValue - 8L).toInt)
}

object CompactGraph {

  /** Build from in-memory directed edge triples `(srcId, dstId, weight)`. */
  def fromTriples(triples: Seq[(Long, Long, Double)]): CompactGraph =
    assemble(triples.map(_._1).toArray, triples.map(_._2).toArray, triples.map(_._3).toArray)

  /** Build from an edges DataFrame with columns (src: long, dst: long,
    * weight: double). The collect is deliberate: the CSR is the broadcast
    * payload for executor-parallel summarisation (see DESIGN.md §3), and
    * `KGraph.graph` runs it once per knowledge graph.
    */
  def fromEdges(edges: DataFrame): CompactGraph = {
    val rows = edges.selectExpr("cast(src as long)", "cast(dst as long)", "cast(weight as double)")
      .collect()
    assemble(rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getDouble(2)))
  }

  // Every kernel adds edge costs derived from these weights, so one NaN or
  // infinite weight would corrupt every summary that reaches its edge;
  // building the graph, before any executor task runs, is where it can
  // still be named.
  private def assemble(srcIds: Array[Long], dstIds: Array[Long], edgeW: Array[Double]): CompactGraph = {
    val m = edgeW.length
    var w = 0
    while (w < m) {
      require(java.lang.Double.isFinite(edgeW(w)),
        s"edge ${srcIds(w)} -> ${dstIds(w)} has weight ${edgeW(w)}; edge weights must be finite")
      w += 1
    }
    // Vertex index = rank of the node id among the distinct endpoint ids.
    val all = srcIds ++ dstIds
    java.util.Arrays.sort(all)
    var n = 0
    var i = 0
    while (i < all.length) {
      if (n == 0 || all(n - 1) != all(i)) { all(n) = all(i); n += 1 }
      i += 1
    }
    val ids = java.util.Arrays.copyOf(all, n)
    val edgeSrc = srcIds.map(java.util.Arrays.binarySearch(ids, _))
    val edgeDst = dstIds.map(java.util.Arrays.binarySearch(ids, _))
    val deg = new Array[Int](n + 1)
    var e = 0
    while (e < m) { deg(edgeSrc(e) + 1) += 1; deg(edgeDst(e) + 1) += 1; e += 1 }
    var v = 0
    while (v < n) { deg(v + 1) += deg(v); v += 1 }
    val offsets = deg
    val arcTarget = new Array[Int](2 * m)
    val arcEdge   = new Array[Int](2 * m)
    // Edges in id order, so each vertex's arcs are in ascending edge-id order.
    val cursor = offsets.clone()
    e = 0
    while (e < m) {
      val s = edgeSrc(e); val d = edgeDst(e)
      arcTarget(cursor(s)) = d; arcEdge(cursor(s)) = e; cursor(s) += 1
      arcTarget(cursor(d)) = s; arcEdge(cursor(d)) = e; cursor(d) += 1
      e += 1
    }
    new CompactGraph(ids, offsets, arcTarget, arcEdge, edgeSrc, edgeDst, edgeW)
  }
}
