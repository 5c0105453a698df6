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
  * weight overlay on the broadcast CSR graph, since only path edges change,
  * written into a table the caller owns (the summarizer passes its thread's
  * workspace table, so a summary allocates no overlay). [[overlay]] copies
  * it into a `HashMap` for the benchmark's replay; the tests check both
  * against a DataFrame form of the formula and DuckDB.
  */
object WeightAdjust {

  /** Kernel form: sparse overlay edge id → (adjusted weight, number of
    * paths containing the edge), holding only the edges that occur in
    * `paths` (every other edge keeps its base weight). Hops that are not KG
    * edges (PLM's hallucinated hops) boost nothing — they cannot be
    * traversed by a subgraph of G.
    *
    * `table` is reset and returned. It is sized for the paths' total hop
    * count, which bounds the distinct edges, so it never grows mid-fill.
    */
  def overlayTable(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int,
                   lambda: Double, table: LongKeyTable): LongKeyTable = {
    val g = kg.graph
    var hops = 0
    var it = paths.iterator
    while (it.hasNext) hops += it.next().length
    table.reset(hops)
    // While counting, an entry's double holds the index of the last path
    // that counted it: an edge counts once per path, however often the
    // path walks it.
    var path = 0
    it = paths.iterator
    while (it.hasNext) {
      val nodes = it.next().nodes
      var a = g.find(nodes(0))
      var h = 1
      while (h < nodes.length) {
        val b = g.find(nodes(h))
        val e = if (a < 0 || b < 0) -1 else kg.edgeId(a, b)
        if (e >= 0) {
          val s = table.find(e)
          if (s < 0) table.put(e, path, 1)
          else if (table.doubleAt(s) != path) table.put(e, path, table.intAt(s) + 1)
        }
        a = b
        h += 1
      }
      path += 1
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

  /** [[overlayTable]] in a fresh table, as a map edge id → adjusted weight. */
  def overlay(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int,
              lambda: Double): java.util.HashMap[Integer, java.lang.Double] = {
    val table = overlayTable(kg, paths, anchors, lambda, new LongKeyTable(0))
    val out = new java.util.HashMap[Integer, java.lang.Double](table.size)
    var s = 0
    while (s < table.capacity) {
      if (table.isOccupied(s)) out.put(table.keyAt(s).toInt, table.doubleAt(s))
      s += 1
    }
    out
  }
}
