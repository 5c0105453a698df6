package repro.core

import repro.graph.SearchSpace
import repro.kg.KgIndex
import repro.rec.ExplanationPath

/** Eq. (1) of the paper: boost the weight of edges that appear in the
  * individual explanation paths so the summarizer *summarizes* rather than
  * invents explanations.
  *
  *   w(e) = w_M(e) · (1 + λ · (Σ_{x∈S} 1_{e ∈ P_x}) / |S|)
  *
  * i.e. the boost of edge `e` is proportional to the fraction of the
  * anchor set S (recommended items / target users) whose explanation path
  * contains `e`. λ = 0 nullifies the input paths; λ = 100 makes the
  * summary follow them almost exclusively.
  *
  * [[overlayTable]] is the per-summary kernel form: a sparse overlay of
  * edge ids and their weights on the broadcast CSR graph, since only path
  * edges change, written into numbered buffers of a caller's workspace (the
  * summarizer passes its thread's, so a warm summary allocates no overlay).
  * [[overlay]] copies it into a `HashMap` for the benchmark's replay; the
  * tests check both against a DataFrame form of the formula and DuckDB.
  */
object WeightAdjust {

  /** The workspace buffers that hold the overlay: its edges (`ints`) and their weights (`doubles`). */
  private[core] final val Edges = 3
  private[core] final val Weights = 1

  // Scratch while counting: one entry per KG hop.
  private final val HopEdges = 0 // doubles
  private final val HopPaths = 0 // ints

  /** Kernel form: writes the edges that occur in `paths`, ascending, to
    * `ws.ints(Edges, m)` and their adjusted weights to
    * `ws.doubles(Weights, m)`, and returns their number m (every other
    * edge keeps its base weight). Hops that are not KG edges (PLM's
    * hallucinated hops) boost nothing — they cannot be traversed by a
    * subgraph of G.
    *
    * The paths are walked once, appending each KG hop's edge id (exact as
    * a double below 2^53) and path index; a stable sort by edge id then
    * keeps each edge's run in path order, so an edge counts once per path,
    * however often the path walks it. The overlay uses buffers that the
    * tree kernels also use: it is dead once the costs are filled.
    */
  def overlayTable(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int,
                   lambda: Double, ws: SearchSpace): Int = {
    val g = kg.graph
    var hopEdges = ws.doubles(HopEdges, 0)
    var hopPaths = ws.ints(HopPaths, 0)
    var hops = 0
    var path = 0
    val it = paths.iterator
    while (it.hasNext) {
      val nodes = it.next().nodes
      var a = g.find(nodes(0))
      var h = 1
      while (h < nodes.length) {
        val b = g.find(nodes(h))
        val e = if (a < 0 || b < 0) -1 else kg.edgeId(a, b)
        if (e >= 0) {
          if (hops == hopEdges.length) hopEdges = ws.doubles(HopEdges, hops + 1)
          if (hops == hopPaths.length) hopPaths = ws.ints(HopPaths, hops + 1)
          hopEdges(hops) = e; hopPaths(hops) = path; hops += 1
        }
        a = b
        h += 1
      }
      path += 1
    }
    val order = ws.sortByKey(hopEdges, hops)
    val edges = ws.ints(Edges, hops)
    val weights = ws.doubles(Weights, hops)
    val n = math.max(1, anchors).toDouble
    var m = 0
    var k = 0
    while (k < hops) {
      val key = hopEdges(order(k))
      var c = 0
      var last = -1
      while (k < hops && hopEdges(order(k)) == key) {
        if (hopPaths(order(k)) != last) { c += 1; last = hopPaths(order(k)) }
        k += 1
      }
      val e = key.toInt
      edges(m) = e
      weights(m) = g.edgeWeight(e) * (1.0 + lambda * c.toDouble / n)
      m += 1
    }
    m
  }

  /** ST's arc costs (W_max − w(e)) + [[Summarizer.Delta]] in `ws`'s cost buffer: the [[overlayTable]],
    * W_max over `kg.maxBaseWeight` and its weights, then [[SearchSpace.fillOverlaidCosts]].
    */
  def costs(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int, lambda: Double,
            ws: SearchSpace): Array[Double] = {
    val m = overlayTable(kg, paths, anchors, lambda, ws)
    val edges = ws.ints(Edges, m)
    val weights = ws.doubles(Weights, m)
    var wMax = kg.maxBaseWeight
    var i = 0
    while (i < m) { if (weights(i) > wMax) wMax = weights(i); i += 1 }
    ws.fillOverlaidCosts(kg.graph, wMax, edges, weights, m, Summarizer.Delta)
  }

  /** [[overlayTable]] in the calling thread's workspace, copied out as a map edge id → adjusted weight. */
  def overlay(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int,
              lambda: Double): java.util.HashMap[Integer, java.lang.Double] = {
    val ws = kg.graph.workspace
    val m = overlayTable(kg, paths, anchors, lambda, ws)
    val edges = ws.ints(Edges, m)
    val weights = ws.doubles(Weights, m)
    val out = new java.util.HashMap[Integer, java.lang.Double](m)
    var i = 0
    while (i < m) { out.put(edges(i), weights(i)); i += 1 }
    out
  }
}
