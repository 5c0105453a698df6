package repro.graph

/** Reusable state of [[CompactGraph.search]]: distances, predecessor arcs,
  * owners, settled and target flags, the heap and the boundary proposals,
  * so that a warm search allocates nothing.
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
  * stamps are cleared only when the epoch counter wraps. Each search and
  * each [[clearMarks]] starts a new epoch, so a stamp left by a search on
  * another graph never matches, and switching graphs needs no reset.
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
  * double buffers, a union–find and the summary edge set), so that a
  * summary allocates only its result. A kernel owns all of the
  * scratch for the length of its call; kernels do not nest on a thread, so
  * `SteinerTree` and `Pcst` share it. ST's Eq. (1) overlay
  * (`WeightAdjust.overlayTable`) uses the numbered buffers too: it is
  * written before the kernel runs and dead once
  * [[CompactGraph.fillOverlaidCosts]] has read it. Like the per-vertex
  * arrays, the scratch lives as long as the thread: it grows geometrically
  * to the largest summary the thread has run and is never shrunk.
  *
  * A vertex mark set, epoch-stamped like the search arrays but untouched
  * by a search, dedupes terminals ([[distinctVertices]]) and finds the
  * terminals a summary leaves isolated.
  *
  * Two more pieces are sized by a graph's edges, not by a summary: the
  * cost buffer that [[CompactGraph.fillCosts]] or
  * [[CompactGraph.fillOverlaidCosts]] writes once per kernel call with a
  * non-uniform cost and every [[CompactGraph.search]] of the call reads
  * (2|E| doubles in arc order, allocated on first use), and the proposal
  * triangle (≥ |E| ints).
  *
  * @param n          the initial length of the per-vertex arrays
  * @param startEpoch the epoch counters' start (tests start near the wrap)
  */
final class SearchSpace private[graph] (n: Int, startEpoch: Int = 0) {
  private var epoch      = startEpoch
  private var markEpoch  = startEpoch
  private var markedAt   = new Array[Int](n)
  private var reachedAt  = new Array[Int](n)
  private var settledAt  = new Array[Int](n)
  private var targetAt   = new Array[Int](n)
  private var distOf     = new Array[Double](n)
  private var predArcOf  = new Array[Int](n)
  private var ownerOf    = new Array[Int](n)
  private var heapKey    = new Array[Double](64)
  private var heapVertex = new Array[Int](64)
  private var heapSize   = 0

  private val intBufs    = Array.fill(SearchSpace.IntBuffers)(new Array[Int](0))
  private val doubleBufs = Array.fill(SearchSpace.DoubleBuffers)(new Array[Double](0))
  private var edgeMarkAt = new Array[Int](0)
  private var edgeEpoch  = 0
  private var edgeList   = new Array[Int](16)
  private var edgeCount  = 0
  private var costBuf    = new Array[Double](0)
  private var pairArcs   = new Array[Int](0)

  /** Union–find over a summary's terminals; `reset` it before use. */
  val terminalSets = new DisjointSet(0)

  /** Grows the per-vertex arrays to at least `numVertices` slots, keeping
    * their contents: a slot past the old length has stamp 0, which no
    * epoch of a search or a mark set equals.
    */
  private[graph] def fitVertices(numVertices: Int): SearchSpace = {
    if (reachedAt.length < numVertices) {
      markedAt = java.util.Arrays.copyOf(markedAt, numVertices)
      reachedAt = java.util.Arrays.copyOf(reachedAt, numVertices)
      settledAt = java.util.Arrays.copyOf(settledAt, numVertices)
      targetAt = java.util.Arrays.copyOf(targetAt, numVertices)
      distOf = java.util.Arrays.copyOf(distOf, numVertices)
      predArcOf = java.util.Arrays.copyOf(predArcOf, numVertices)
      ownerOf = java.util.Arrays.copyOf(ownerOf, numVertices)
    }
    this
  }

  /** The boundary proposals of the last multi-source [[CompactGraph.search]]. */
  def proposals: Array[Int] = pairArcs

  // The triangle with its first n(n−1)/2 slots at −1. It is grown to at
  // least the graph's |E| slots, so on any graph only an n with
  // n(n−1)/2 > |E| grows it after the first multi-source search there.
  private[graph] def resetProposals(n: Int, numEdges: Int): Array[Int] = {
    val pairs = Math.toIntExact(n.toLong * (n - 1) / 2)
    if (pairArcs.length < math.max(pairs, numEdges))
      pairArcs = new Array[Int](if (pairs > numEdges) SearchSpace.grownSize(pairArcs.length, pairs) else numEdges)
    java.util.Arrays.fill(pairArcs, 0, pairs, -1)
    pairArcs
  }

  /** The arc-cost buffer, with at least `arcs` entries. Arcs come in
    * pairs, so it never has the one entry of a uniform cost.
    */
  private[graph] def costs(arcs: Int): Array[Double] = {
    if (costBuf.length < arcs) costBuf = new Array[Double](arcs)
    costBuf
  }

  /** The one-entry cost array of a uniform cost. */
  private[graph] val uniformCost = new Array[Double](1)

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

  /** Empties the vertex mark set, a set of vertex indices that no search
    * touches. Membership is an epoch stamp per vertex, so clearing costs
    * O(1); the kernels' terminal dedupe and ST's isolated-terminal check
    * run on it.
    */
  def clearMarks(): Unit = {
    if (markEpoch == Int.MaxValue) { java.util.Arrays.fill(markedAt, 0); markEpoch = 0 }
    markEpoch += 1
  }

  /** Adds vertex `v` to the mark set; false if it is already in. */
  def mark(v: Int): Boolean =
    if (markedAt(v) == markEpoch) false else { markedAt(v) = markEpoch; true }

  def marked(v: Int): Boolean = markedAt(v) == markEpoch

  /** The distinct vertex indices of `a(0 until n)`, each at its first
    * occurrence, in the order of those occurrences: `a` itself when
    * `n == a.length` and no vertex repeats, a fresh array otherwise. Leaves
    * them in the mark set.
    */
  def distinctVertices(a: Array[Int], n: Int): Array[Int] = {
    clearMarks()
    var count = 0
    var i = 0
    while (i < n) { if (mark(a(i))) count += 1; i += 1 }
    if (count == a.length) a
    else {
      val out = new Array[Int](count)
      clearMarks()
      var m = 0
      i = 0
      while (i < n) { if (mark(a(i))) { out(m) = a(i); m += 1 }; i += 1 }
      out
    }
  }

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

  /** The one space of each thread, whatever graphs it serves ([[CompactGraph.workspace]]). */
  private[graph] val perThread: ThreadLocal[SearchSpace] = ThreadLocal.withInitial(() => new SearchSpace(0))

  /** Slot of region pair a < b of n in the row-major upper triangle: ascends with (a, b). */
  private[graph] def pairSlot(n: Int, a: Int, b: Int): Int = (a.toLong * (2 * n - a - 1) / 2).toInt + (b - a - 1)

  /** Geometric growth: at least `need`, and at least twice `have`. */
  private[graph] def grownSize(have: Int, need: Int): Int =
    math.max(need, math.min(2L * have, Int.MaxValue - 8L).toInt)
}
