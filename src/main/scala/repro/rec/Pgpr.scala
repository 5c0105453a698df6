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
  */
final class Pgpr extends PathRecommender {
  import Pgpr._

  override def name: String = "pgpr"

  override def recommend(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] = {
    val g = kg.graph
    val rated = kg.ratedItemSet(userIdx)

    // Beam of partial paths: (vertices walked, cumulative weight score).
    var beam: Vector[(List[Int], Double)] = Vector((List(userIdx), 0.0))
    val hops = 3
    // Best-scoring complete path per candidate item.
    val best = scala.collection.mutable.HashMap.empty[Int, (List[Int], Double)]

    for (_ <- 1 to hops) {
      val next = scala.collection.mutable.ArrayBuffer.empty[(List[Int], Double)]
      beam.foreach { case (path, score) =>
        val u = path.head
        val visited = path.toSet
        // Expand the top-`Fanout` neighbours by edge weight; external edges
        // carry w_A = 0, so break their ties by hub degree — PGPR's learned
        // embeddings likewise favour well-connected entities.
        val cand = scala.collection.mutable.ArrayBuffer.empty[(Int, Double, Double)]
        kg.foreachNeighbor(u) { (v, e) =>
          if (!visited.contains(v))
            cand += ((v, g.edgeWeight(e), g.degree(v).toDouble))
        }
        cand.sortBy { case (v, w, d) => (-w, -d, v) }
          .take(Fanout)
          .foreach { case (v, w, d) =>
            val np = v :: path
            val ns = score + w + 1e-6 * math.log1p(d)
            next += ((np, ns))
            if (kg.vtype(v) == NodeType.Item && !rated.contains(v)) {
              val cur = best.get(v)
              if (cur.isEmpty || cur.get._2 < ns) best(v) = (np, ns)
            }
          }
      }
      beam = next.sortBy { case (p, s) => (-s, p.head) }.take(BeamWidth).toVector
    }

    PathRecommender.topK(g, best.view.mapValues { case (revPath, score) => (revPath.reverse, score) }, k)
  }
}

object Pgpr {
  /** Partial paths kept after each hop. */
  final val BeamWidth = 24

  /** Neighbours each partial path expands to. */
  final val Fanout = 12
}
