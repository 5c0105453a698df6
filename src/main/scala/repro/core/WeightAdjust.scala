package repro.core

import repro.graph.LongKeyTable
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
  * [[overlayTable]] is the per-summary kernel form: a sparse edge-id →
  * weight overlay on the broadcast CSR graph, since only path edges change.
  * [[overlay]] copies it into a `HashMap` for the benchmark's replay; the
  * tests check both against a DataFrame form of the formula and DuckDB.
  */
object WeightAdjust {

  /** Kernel form: sparse overlay edge id → (adjusted weight, number of
    * paths containing the edge), holding only the edges that occur in
    * `paths` (every other edge keeps its base weight). Hops that are not KG
    * edges (PLM's hallucinated hops) boost nothing — they cannot be
    * traversed by a subgraph of G.
    */
  def overlayTable(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int,
                   lambda: Double): LongKeyTable = {
    val g = kg.graph
    val longest = paths.foldLeft(0)((m, p) => math.max(m, p.length))
    // Paths of one scenario share many edges, so the distinct edges number
    // about the paths (1.1–1.3 per path on ML1M-sim), far fewer than the
    // hops; the table grows if there are more.
    val table = new LongKeyTable(paths.length)
    val seen = new Array[Int](longest) // edge ids met so far on the current path
    paths.foreach { p =>
      val nodes = p.nodes
      var distinct = 0
      var a = g.find(nodes(0))
      var h = 1
      while (h < nodes.length) {
        val b = g.find(nodes(h))
        val e = if (a < 0 || b < 0) -1 else kg.edgeId(a, b)
        if (e >= 0) {
          // An edge counts once per path, however often the path walks it.
          var k = 0
          while (k < distinct && seen(k) != e) k += 1
          if (k == distinct) {
            seen(distinct) = e; distinct += 1
            val s = table.find(e)
            table.put(e, 0.0, if (s < 0) 1 else table.intAt(s) + 1)
          }
        }
        a = b
        h += 1
      }
    }
    val n = math.max(1, anchors).toDouble
    var s = 0
    while (s < table.capacity) {
      if (table.isOccupied(s)) {
        val c = table.intAt(s)
        table.put(table.keyAt(s), g.edgeWeight(table.keyAt(s).toInt) * (1.0 + lambda * c.toDouble / n), c)
      }
      s += 1
    }
    table
  }

  /** [[overlayTable]] as a map edge id → adjusted weight. */
  def overlay(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int,
              lambda: Double): java.util.HashMap[Integer, java.lang.Double] = {
    val table = overlayTable(kg, paths, anchors, lambda)
    val out = new java.util.HashMap[Integer, java.lang.Double](table.size)
    var s = 0
    while (s < table.capacity) {
      if (table.isOccupied(s)) out.put(table.keyAt(s).toInt, table.doubleAt(s))
      s += 1
    }
    out
  }
}
