package repro.graph

/** A thread's search: the one shortest-path loop ([[search]]) on a graph
  * passed to each call, the cost fills it reads, all the state they
  * write and the only walks of its shortest-path tree ([[pathLength]],
  * [[writePath]], [[addPath]]), so that a warm search allocates nothing.
  *
  * A thread has one space ([[CompactGraph.workspace]]), shared by every
  * graph the thread serves. Every buffer follows one sizing rule: it is
  * grown to the largest need the thread has seen and never shrunk. The
  * per-vertex arrays grow to the graph's vertex count when the graph asks
  * for the space, the cost buffer and the edge stamps to its edges when a
  * kernel fills or clears them, the scratch to the largest summary.
  *
  * Each per-vertex slot is valid only while its stamp equals the current
  * search's epoch, so starting a search costs O(1), not O(|V|); the
  * stamps are cleared only when the epoch counter wraps. No epoch is ever
  * 0, the stamp of a slot never written, so a space that has not searched
  * reads every vertex as unreached. Each search and each [[clearMarks]]
  * starts a new epoch, so a stamp left by a search on another graph never
  * matches, and switching graphs needs no reset.
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
  * It also holds the tree kernels' per-summary scratch (numbered int and
  * double buffers, a union–find, the summary edge set and the buffers of
  * the one sort, [[sortByKey]]), so that a summary allocates only its
  * result. A kernel owns all of the scratch for the length of its call;
  * kernels do not nest on a thread, so `SteinerTree` and `Pcst` share it.
  * ST's Eq. (1) overlay (`WeightAdjust.overlayTable`) uses the numbered
  * buffers too: it is written before the kernel runs and dead once
  * [[fillOverlaidCosts]] has read it.
  *
  * A summary's terminal indices have their own buffer ([[terminals]]),
  * which its caller fills before the kernel runs, and a kernel leaves its
  * edge set in the space ([[edgeCount]], [[edge]]) for the caller to read,
  * so neither is copied. A vertex mark set, epoch-stamped like the search
  * arrays, dedupes terminals ([[distinctVertices]]) and finds the
  * terminals a summary leaves isolated. A search keeps its settle-set
  * there, so marks are valid until the thread's next [[search]].
  *
  * Two more pieces are sized by a graph's edges, not by a summary: the
  * cost buffer that [[fillCosts]] or [[fillOverlaidCosts]] writes once per
  * kernel call with a non-uniform cost and every [[search]] of the call
  * reads (2|E| doubles in arc order, allocated on first use), and the
  * proposal triangle (≥ |E| ints).
  *
  * @param n          the initial length of the per-vertex arrays
  * @param startEpoch the epoch counters' start, ≥ 1 (tests start near the wrap)
  */
final class SearchSpace private[graph] (n: Int, startEpoch: Int = 1) {
  private var epoch      = startEpoch
  private var markEpoch  = startEpoch
  private var markedAt   = new Array[Int](n)
  private var reachedAt  = new Array[Int](n)
  private var settledAt  = new Array[Int](n)
  private var distOf     = new Array[Double](n)
  private var predArcOf  = new Array[Int](n)
  private var ownerOf    = new Array[Int](n)
  private var heapKey    = new Array[Double](64)
  private var heapVertex = new Array[Int](64)
  private var heapSize   = 0

  private val intBufs    = Array.fill(SearchSpace.IntBuffers)(new Array[Int](0))
  private val doubleBufs = Array.fill(SearchSpace.DoubleBuffers)(new Array[Double](0))
  private var edgeMarkAt = new Array[Int](0)
  private var edgeEpoch  = 1
  private var edgeList   = new Array[Int](16)
  private var edgeSize   = 0
  private var termBuf    = new Array[Int](0)
  private var costBuf    = new Array[Double](0)
  private var pairArcs   = new Array[Int](0)
  private var sortPerm   = new Array[Int](0)
  private var sortBuf    = new Array[Int](0)

  /** Union–find over a summary's terminals; `reset` it before use. */
  val terminalSets = new DisjointSet(0)

  /** Grows the per-vertex arrays to at least `numVertices` slots, keeping
    * their contents: a slot past the old length has stamp 0, which no
    * epoch equals, before the space's first search as after a wrap, so it
    * reads as unreached and unmarked.
    */
  private[graph] def fitVertices(numVertices: Int): SearchSpace = {
    if (reachedAt.length < numVertices) {
      markedAt = java.util.Arrays.copyOf(markedAt, numVertices)
      reachedAt = java.util.Arrays.copyOf(reachedAt, numVertices)
      settledAt = java.util.Arrays.copyOf(settledAt, numVertices)
      distOf = java.util.Arrays.copyOf(distOf, numVertices)
      predArcOf = java.util.Arrays.copyOf(predArcOf, numVertices)
      ownerOf = java.util.Arrays.copyOf(ownerOf, numVertices)
    }
    this
  }

  /** The boundary proposals of the last multi-source [[search]]. */
  def proposals: Array[Int] = pairArcs

  // The triangle with its first n(n−1)/2 slots at −1. It is grown to at
  // least the graph's |E| slots, so on any graph only an n with
  // n(n−1)/2 > |E| grows it after the first multi-source search there.
  private def resetProposals(n: Int, numEdges: Int): Unit = {
    val pairs = Math.toIntExact(n.toLong * (n - 1) / 2)
    if (pairArcs.length < math.max(pairs, numEdges))
      pairArcs = new Array[Int](if (pairs > numEdges) SearchSpace.grownSize(pairArcs.length, pairs) else numEdges)
    java.util.Arrays.fill(pairArcs, 0, pairs, -1)
  }

  /** The arc-cost buffer, with at least `arcs` entries. Arcs come in
    * pairs, so it never has the one entry of a uniform cost.
    */
  private def costs(arcs: Int): Array[Double] = {
    if (costBuf.length < arcs) costBuf = new Array[Double](arcs)
    costBuf
  }

  /** The one-entry cost array of a uniform cost. */
  private val uniformCost = new Array[Double](1)

  /** `Int` buffer number `slot` (`0 until IntBuffers`), with at least `size` entries; growing keeps them. */
  def ints(slot: Int, size: Int): Array[Int] = {
    val a = intBufs(slot)
    if (a.length >= size) a
    else { val b = java.util.Arrays.copyOf(a, SearchSpace.grownSize(a.length, size)); intBufs(slot) = b; b }
  }

  /** The summary's terminal buffer, with at least `size` entries; growing
    * keeps them. A summary's caller writes its terminal indices here before
    * its kernel runs and reads them after it: ST leaves them as they are,
    * PCST rewrites them as its distinct terminals in ascending order. No
    * overlay, sort or kernel scratch uses it.
    */
  def terminals(size: Int): Array[Int] = {
    if (termBuf.length < size)
      termBuf = java.util.Arrays.copyOf(termBuf, SearchSpace.grownSize(termBuf.length, size))
    termBuf
  }

  /** `Double` buffer number `slot` (`0 until DoubleBuffers`), as [[ints]]. */
  def doubles(slot: Int, size: Int): Array[Double] = {
    val a = doubleBufs(slot)
    if (a.length >= size) a
    else { val b = java.util.Arrays.copyOf(a, SearchSpace.grownSize(a.length, size)); doubleBufs(slot) = b; b }
  }

  /** [[IndexSort.byKey]] in this space's sort buffers; the permutation is valid until the thread's next sort. */
  def sortByKey(keys: Array[Double], n: Int): Array[Int] = {
    if (sortPerm.length < n) {
      sortPerm = new Array[Int](SearchSpace.grownSize(sortPerm.length, n))
      sortBuf = new Array[Int](sortPerm.length)
    }
    IndexSort.byKey(keys, n, sortPerm, sortBuf)
  }

  /** Empties the summary edge set, an insertion-ordered set of edge ids in
    * `[0, numEdges)`. Membership is an epoch stamp per edge, so clearing
    * costs O(1).
    */
  def clearEdges(numEdges: Int): Unit = {
    if (edgeMarkAt.length < numEdges) { edgeMarkAt = new Array[Int](numEdges); edgeEpoch = 0 }
    if (edgeEpoch == Int.MaxValue) { java.util.Arrays.fill(edgeMarkAt, 0); edgeEpoch = 0 }
    edgeEpoch += 1
    edgeSize = 0
  }

  /** Adds edge `e` to the summary edge set; false if it is already in. */
  def addEdge(e: Int): Boolean =
    if (edgeMarkAt(e) == edgeEpoch) false
    else {
      edgeMarkAt(e) = edgeEpoch
      if (edgeSize == edgeList.length)
        edgeList = java.util.Arrays.copyOf(edgeList, SearchSpace.grownSize(edgeSize, edgeSize + 1))
      edgeList(edgeSize) = e
      edgeSize += 1
      true
    }

  /** Size of the summary edge set. */
  def edgeCount: Int = edgeSize

  /** Edge `k` of the summary edge set, `0 <= k < edgeCount`, in insertion order. */
  def edge(k: Int): Int = edgeList(k)

  /** The summary edge set in insertion order, as a fresh array that no
    * later use of this space can change.
    */
  def edgeIds: Array[Int] = java.util.Arrays.copyOf(edgeList, edgeSize)

  /** Empties the vertex mark set, a set of vertex indices valid until the
    * thread's next [[search]], which keeps its settle-set there. Membership
    * is an epoch stamp per vertex, so clearing costs O(1); the kernels'
    * terminal dedupe and ST's isolated-terminal check run on it.
    */
  def clearMarks(): Unit = {
    if (markEpoch == Int.MaxValue) { java.util.Arrays.fill(markedAt, 0); markEpoch = 0 }
    markEpoch += 1
  }

  /** Adds vertex `v` to the mark set; false if it is already in. */
  def mark(v: Int): Boolean =
    if (markedAt(v) == markEpoch) false else { markedAt(v) = markEpoch; true }

  def marked(v: Int): Boolean = markedAt(v) == markEpoch

  /** Moves the distinct vertex indices of `a(0 until n)`, each at its
    * first occurrence, to the front of `a`, in the order of those
    * occurrences, and returns their number; `a` past it is left as it was.
    * Leaves them in the mark set.
    */
  def distinctVertices(a: Array[Int], n: Int): Int = {
    clearMarks()
    var count = 0
    var i = 0
    while (i < n) { if (mark(a(i))) { a(count) = a(i); count += 1 }; i += 1 }
    count
  }

  /** Distance from the nearest source (+∞ if unreached). */
  def dist(v: Int): Double = if (reachedAt(v) == epoch) distOf(v) else Double.PositiveInfinity

  /** Arc that last relaxed `v` (−1 for a source or an unreached vertex). */
  def predArc(v: Int): Int = if (reachedAt(v) == epoch) predArcOf(v) else -1

  /** Index into the search's sources of `v`'s nearest source (−1 if unreached). */
  def owner(v: Int): Int = if (reachedAt(v) == epoch) ownerOf(v) else -1

  def settled(v: Int): Boolean = settledAt(v) == epoch

  /** Number of edges on the last [[search]]'s shortest path from its sources to `v`. */
  def pathLength(g: CompactGraph, v: Int): Int = {
    var len = 0
    var cur = v
    while (predArc(cur) != -1) { cur = parent(g, cur); len += 1 }
    len
  }

  /** Writes the edge ids of that path, in source→v order, into
    * `dst(end - pathLength(g, v) until end)`, so that callers can pack
    * many paths into one array without allocating one per path.
    */
  def writePath(g: CompactGraph, v: Int, dst: Array[Int], end: Int): Unit = {
    var k = end
    var cur = v
    while (predArc(cur) != -1) { k -= 1; dst(k) = g.arcEdge(predArc(cur)); cur = parent(g, cur) }
  }

  /** Adds the edges of that path to the summary edge set, nearest `v`
    * first, and returns its edge count.
    */
  def addPath(g: CompactGraph, v: Int): Int = {
    var len = 0
    var cur = v
    while (predArc(cur) != -1) { addEdge(g.arcEdge(predArc(cur))); cur = parent(g, cur); len += 1 }
    len
  }

  // The arc into v carries its tree edge, so the edge's other endpoint is v's parent.
  private def parent(g: CompactGraph, v: Int): Int = {
    val e = g.arcEdge(predArcOf(v))
    if (g.edgeSrc(e) == v) g.edgeDst(e) else g.edgeSrc(e)
  }

  /** Multi-source Dijkstra over `g`'s undirected view with per-edge costs,
    * the one shortest-path loop of the code base. Results are read from
    * this space afterwards: [[dist]], [[predArc]] and [[owner]], the index
    * *into `terms`* of the closest source.
    *
    * A search with n ≥ 2 sources also leaves in [[proposals]] the
    * boundary proposals of Algorithm 2, the cheapest connection between
    * each pair of regions (Mehlhorn's construction): for regions a < b,
    * slot [[SearchSpace.pairSlot]]`(n, a, b)` holds an arc of the edge of
    * least [[proposalCost]], then lowest id, among the edges whose ends
    * settle with owners a and b (−1 if none). Each edge is offered once,
    * when its later endpoint settles, so both distances are final; a search
    * that stops early offers only the edges it scanned. A single-source
    * search leaves the proposals alone.
    *
    * The sources and the settle-set are ranges of one array, so a kernel
    * passes slices of its terminal buffer without copying them; the buffer
    * may be longer than the terminals in it. The settle-set is kept in the
    * vertex mark set, so a search empties it.
    *
    * @param g       the graph, at most as many vertices as this space's
    *                per-vertex arrays (as [[CompactGraph.workspace]] returns
    *                the space); the previous search's results are discarded
    * @param terms   the sources `terms(from until until)`, distinct and all
    *                at distance 0, then the settle-set `terms(until until end)`:
    *                the search stops once every reachable target has been
    *                settled (a full search if that range is empty). Early
    *                stopping is what keeps Algorithm 1 fast — terminals of
    *                one summary live within a few hops.
    * @param cost    arc → cost of its edge, or one cost that every arc has,
    *                as [[fillCosts]] returns it; every cost must be ≥ 0 (the
    *                kernels' are > 0), which the fill checks
    * @param maxDist vertices farther than this are never reached
    */
  def search(g: CompactGraph, terms: Array[Int], from: Int, until: Int, end: Int, cost: Array[Double],
             maxDist: Double): Unit = {
    clearMarks()
    val perArc = if (cost.length == 1) 0 else -1 // index mask: a lone cost is every arc's
    val regions = until - from
    if (regions >= 2) resetProposals(regions, g.numEdges)
    if (epoch == Int.MaxValue) {
      java.util.Arrays.fill(reachedAt, 0)
      java.util.Arrays.fill(settledAt, 0)
      epoch = 0
    }
    epoch += 1
    heapSize = 0
    var s = from
    while (s < until) {
      val v = terms(s)
      // Not `require`: its message thunk would be allocated for every source.
      if (reachedAt(v) == epoch) throw new IllegalArgumentException(s"source vertex $v listed twice")
      relax(v, 0.0, -1, s)
      s += 1
    }
    var remaining = 0
    var t = until
    while (t < end) {
      if (mark(terms(t))) remaining += 1
      t += 1
    }
    var done = false
    while (!done && !heapEmpty) {
      val d = topKey
      val u = pop()
      // Lazy deletion: only the entry carrying u's current distance is live.
      if (!settled(u) && d <= dist(u)) {
        settledAt(u) = epoch
        if (marked(u)) {
          remaining -= 1
          if (remaining == 0) done = true
        }
        if (!done) {
          val du = dist(u)
          val ou = owner(u)
          var a = g.offsets(u)
          val end = g.offsets(u + 1)
          while (a < end) {
            val v = g.arcTarget(a)
            if (!settled(v)) {
              val nd = du + cost(a & perArc)
              if (nd < dist(v) && nd <= maxDist) relax(v, nd, a, ou)
            } else if (regions >= 2) {
              val ov = owner(v)
              if (ov != ou) propose(g, SearchSpace.pairSlot(regions, ou min ov, ou max ov), a, v, du, cost)
            }
            a += 1
          }
        }
      }
    }
  }

  /** The cost of the connection through arc `a`'s edge `e` after a [[search]] on `cost`,
    * `dist(edgeSrc(e)) + cost(e) + dist(edgeDst(e))`: in the edge's own direction.
    */
  def proposalCost(g: CompactGraph, a: Int, cost: Array[Double]): Double = {
    val e = g.arcEdge(a)
    dist(g.edgeSrc(e)) + cost(if (cost.length == 1) 0 else a) + dist(g.edgeDst(e))
  }

  // Keeps in `slot` the arc of the cheaper connection. Arc a runs from u, at du, to v; the two
  // orders of its proposalCost agree whenever the sum is exact (a uniform 0.25 and its
  // multiples), and only when they differ is its edge's far-off source read.
  private def propose(g: CompactGraph, slot: Int, a: Int, v: Int, du: Double, cost: Array[Double]): Unit =
    if (pairArcs(slot) < 0) pairArcs(slot) = a
    else {
      val dv = dist(v); val c = cost(if (cost.length == 1) 0 else a)
      val fromU = du + c + dv; val fromV = dv + c + du
      val total = if (fromU == fromV || g.edgeSrc(g.arcEdge(a)) != v) fromU else fromV
      val best = proposalCost(g, pairArcs(slot), cost)
      if (total < best || (total == best && g.arcEdge(a) < g.arcEdge(pairArcs(slot)))) pairArcs(slot) = a
    }

  /** The costs for the [[search]]es of one kernel call on `g`: the oracle
    * runs 2|E| times per call instead of once per arc relaxation. Writes
    * `cost(arcEdge(a))` for every arc `a` into the cost buffer, so a
    * relaxation reads its cost next to its arc; a uniform cost is returned
    * as a one-entry array instead, which [[search]] applies to every arc
    * and which costs no fill. A NaN or negative cost would break
    * Dijkstra's settled invariant without a trace, so it throws here,
    * naming the edge.
    */
  def fillCosts(g: CompactGraph, cost: EdgeCost): Array[Double] = cost match {
    case EdgeCost.Uniform(c) =>
      if (g.numEdges > 0) checkCost(0, c)
      uniformCost(0) = c
      uniformCost
    case _ =>
      val arcs = g.arcEdge.length
      val buf = costs(arcs)
      var a = 0
      while (a < arcs) {
        val e = g.arcEdge(a)
        val c = cost(e)
        checkCost(e, c)
        buf(a) = c
        a += 1
      }
      buf
  }

  /** ST's Eq. (1) costs for the [[search]]es of one kernel call on `g`, in
    * the cost buffer: arc `a` of edge `e` gets `(wm − w(e)) + delta`, where
    * `w(e)` is `weights(i)` for an overlay edge `e = edges(i)`, `i < m`,
    * and `edgeWeight(e)` otherwise. The overlay's edges must ascend. The
    * base cost is gathered for every arc, then the two arcs of each overlay
    * edge are patched, in ascending edge order, found by binary search in
    * their endpoints' ascending edge ids; so no arc pays an overlay lookup,
    * and the values are those of [[fillCosts]] on the same formula. A NaN or
    * negative cost throws, naming the edge, as in [[fillCosts]].
    */
  def fillOverlaidCosts(g: CompactGraph, wm: Double, edges: Array[Int], weights: Array[Double], m: Int,
                        delta: Double): Array[Double] = {
    val arcs = g.arcEdge.length
    val buf = costs(arcs)
    var a = 0
    while (a < arcs) {
      val e = g.arcEdge(a)
      val c = (wm - g.edgeWeight(e)) + delta
      // A bad base cost counts only if no overlay weight replaces it.
      if (!(c >= 0) && java.util.Arrays.binarySearch(edges, 0, m, e) < 0) checkCost(e, c)
      buf(a) = c
      a += 1
    }
    var i = 0
    while (i < m) {
      val e = edges(i)
      val c = (wm - weights(i)) + delta
      checkCost(e, c)
      patchArcs(g, buf, g.edgeSrc(e), e, c)
      if (g.edgeDst(e) != g.edgeSrc(e)) patchArcs(g, buf, g.edgeDst(e), e, c)
      i += 1
    }
    buf
  }

  // Writes c at the arcs of edge e in v's row: one, or the adjacent two of a self-loop.
  private def patchArcs(g: CompactGraph, buf: Array[Double], v: Int, e: Int, c: Double): Unit = {
    val from = g.offsets(v); val until = g.offsets(v + 1)
    val hit = java.util.Arrays.binarySearch(g.arcEdge, from, until, e)
    var a = hit
    while (a >= from && g.arcEdge(a) == e) { buf(a) = c; a -= 1 }
    a = hit + 1
    while (a < until && g.arcEdge(a) == e) { buf(a) = c; a += 1 }
  }

  private def checkCost(e: Int, c: Double): Unit =
    if (!(c >= 0)) throw new IllegalArgumentException(s"edge $e has cost $c; edge costs must be >= 0")

  private def relax(v: Int, d: Double, arc: Int, owner: Int): Unit = {
    reachedAt(v) = epoch
    distOf(v) = d
    predArcOf(v) = arc
    ownerOf(v) = owner
    push(d, v)
  }

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
  final val IntBuffers = 4
  final val DoubleBuffers = 2

  /** The one space of each thread, whatever graphs it serves ([[CompactGraph.workspace]]). */
  private[graph] val perThread: ThreadLocal[SearchSpace] = ThreadLocal.withInitial(() => new SearchSpace(0))

  /** Slot of region pair a < b of n in the row-major upper triangle: ascends with (a, b). */
  private[graph] def pairSlot(n: Int, a: Int, b: Int): Int = (a.toLong * (2 * n - a - 1) / 2).toInt + (b - a - 1)

  /** Geometric growth: at least `need`, and at least twice `have`. */
  private[graph] def grownSize(have: Int, need: Int): Int =
    math.max(need, math.min(2L * have, Int.MaxValue - 8L).toInt)
}
