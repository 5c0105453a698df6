package repro.rec

import repro.kg.{KgIndex, NodeType}

/** Simulated PGPR (Xian et al., SIGIR'19).
  *
  * The real PGPR trains an RL policy whose reward correlates with
  * interaction strength and walks ≤3 hops from the user to an unrated
  * item. The simulator reproduces the structural properties the paper's
  * metrics react to — fixed 3-hop KG-valid paths that seek high-weight
  * (high-rating) edges and therefore concentrate on popular hub nodes —
  * with a deterministic beam search maximising cumulative edge weight
  * (see DESIGN.md §2).
  *
  * The search runs on per-call primitive arrays: a partial path is a row
  * of `BestPaths.Width` ints, user first, its score a double beside it.
  * Both rankings are stable insertion selections, which keep the first
  * `Fanout` (or `BeamWidth`) entries of a stable sort on the same key.
  */
final class Pgpr extends PathRecommender {
  import Pgpr._
  import PathRecommender.BestPaths.Width

  override def name: String = "pgpr"

  override def recommend(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] = {
    // The beam: `size` partial paths of `len` vertices, with their
    // cumulative weight scores.
    val beam = new Array[Int](BeamWidth * Width)
    val beamScore = new Array[Double](BeamWidth)
    var size = 1
    beam(0) = userIdx
    // One hop's expansions, in the order they are made, and the beam's pick.
    val next = new Array[Int](BeamWidth * Fanout * Width)
    val nextScore = new Array[Double](BeamWidth * Fanout)
    val kept = new Array[Int](BeamWidth)
    val cand = new Candidates
    // Best-scoring complete path per candidate item.
    val best = new PathRecommender.BestPaths

    var len = 1
    while (len <= Hops) {
      var m = 0
      var b = 0
      while (b < size) {
        // Expand the top-`Fanout` neighbours by edge weight; external edges
        // carry w_A = 0, so break their ties by hub degree — PGPR's learned
        // embeddings likewise favour well-connected entities.
        cand.select(kg, beam, b * Width, len)
        var j = 0
        while (j < cand.count) {
          val v = cand.vertex(j)
          val at = m * Width
          System.arraycopy(beam, b * Width, next, at, len)
          next(at + len) = v
          nextScore(m) = beamScore(b) + cand.weight(j) + 1e-6 * math.log1p(cand.degree(j).toDouble)
          if (kg.vtype(v) == NodeType.Item && kg.edgeId(userIdx, v) < 0) best.offer(next, at, len + 1, nextScore(m))
          m += 1
          j += 1
        }
        b += 1
      }
      len += 1
      size = topOfBeam(next, nextScore, m, len, kept)
      var i = 0
      while (i < size) {
        System.arraycopy(next, kept(i) * Width, beam, i * Width, len)
        beamScore(i) = nextScore(kept(i))
        i += 1
      }
    }

    best.topK(kg.graph, k)
  }

  /** Writes to `kept` the first `BeamWidth` of the `m` expansions in the
    * order (−score, last vertex), ties in expansion order; returns how many.
    */
  private def topOfBeam(next: Array[Int], score: Array[Double], m: Int, len: Int, kept: Array[Int]): Int = {
    var count = 0
    var i = 0
    while (i < m) {
      val s = score(i)
      val v = next(i * Width + len - 1)
      var p = count
      while (p > 0 && {
        val q = kept(p - 1)
        val c = java.lang.Double.compare(-s, -score(q))
        c < 0 || c == 0 && v < next(q * Width + len - 1)
      }) p -= 1
      if (p < BeamWidth) {
        var q = math.min(count, BeamWidth - 1)
        while (q > p) { kept(q) = kept(q - 1); q -= 1 }
        kept(p) = i
        if (count < BeamWidth) count += 1
      }
      i += 1
    }
    count
  }
}

object Pgpr {
  /** Partial paths kept after each hop. */
  final val BeamWidth = 24

  /** Neighbours each partial path expands to. */
  final val Fanout = 12

  /** Hops from the user to a recommended item. */
  final val Hops = 3

  /** One partial path's top-`Fanout` neighbours off the path, in the order
    * (−edge weight, −degree, vertex), ties (parallel edges) in arc order.
    */
  private final class Candidates {
    val vertex = new Array[Int](Fanout)
    val weight = new Array[Double](Fanout)
    val degree = new Array[Int](Fanout)
    var count = 0

    /** Selects among the neighbours of the last of the `len` vertices at
      * `path(row)` that are not on the path.
      */
    def select(kg: KgIndex, path: Array[Int], row: Int, len: Int): Unit = {
      val g = kg.graph
      val u = path(row + len - 1)
      count = 0
      var a = g.offsets(u)
      while (a < g.offsets(u + 1)) {
        val v = g.arcTarget(a)
        if (!onPath(path, row, len, v)) {
          val w = g.edgeWeight(g.arcEdge(a))
          val d = g.degree(v)
          // After every kept neighbour that this one does not precede.
          var p = count
          while (p > 0 && {
            val c = java.lang.Double.compare(-w, -weight(p - 1))
            c < 0 || c == 0 && (d > degree(p - 1) || d == degree(p - 1) && v < vertex(p - 1))
          }) p -= 1
          if (p < Fanout) {
            var q = math.min(count, Fanout - 1)
            while (q > p) {
              vertex(q) = vertex(q - 1); weight(q) = weight(q - 1); degree(q) = degree(q - 1)
              q -= 1
            }
            vertex(p) = v; weight(p) = w; degree(p) = d
            if (count < Fanout) count += 1
          }
        }
        a += 1
      }
    }
  }

  private def onPath(path: Array[Int], row: Int, len: Int, v: Int): Boolean = {
    var i = 0
    while (i < len && path(row + i) != v) i += 1
    i < len
  }
}
