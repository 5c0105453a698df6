package repro.rec

import repro.kg.{KgIndex, NodeType}

/** Simulated CAFE (Xian et al., CIKM'20).
  *
  * The real CAFE does coarse-to-fine neural-symbolic reasoning: it first
  * picks user profile–conditioned metapath templates, then searches for the
  * best instantiation of each template. The simulator keeps exactly that
  * structure with the two dominant ML1M templates:
  *
  *   T1: user → rated item → co-rating user → their item   (U-I-U-I)
  *   T2: user → rated item → shared entity  → related item (U-I-E-I)
  *
  * Coarse step: the preferred template is chosen from the user's profile
  * (T2 if the user's top-rated items are entity-rich, else T1) and its
  * candidates get a score boost. Fine step: per template, the best-weight
  * completions are enumerated. Deterministic; all hops are valid KG edges.
  */
final class Cafe extends PathRecommender {
  import Cafe._

  override def name: String = "cafe"

  override def recommend(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] = {
    val g = kg.graph
    val topRated = kg.ratedItems(userIdx).take(RatedFan)

    // Coarse step: entity-richness of the user's profile decides the
    // preferred template.
    val extLinks = topRated.map(a => KgIndex.typedDegree(g, g.arcTarget(a), NodeType.External)).sum
    val entityRich = topRated.nonEmpty && extLinks.toDouble / topRated.length >= 5.0
    val boostT1 = if (entityRich) 0.0 else 0.5
    val boostT2 = if (entityRich) 0.5 else 0.0

    val best = new PathRecommender.BestPaths
    // The path offered: user, rated item, co-rating user or entity, item.
    val path = Array(userIdx, 0, 0, 0)
    def unrated(i2: Int): Boolean = kg.edgeId(userIdx, i2) < 0

    topRated.foreach { a1 =>
      val i1 = g.arcTarget(a1)
      val w1 = g.edgeWeight(g.arcEdge(a1))
      path(1) = i1

      // T1: via a co-rating user.
      kg.rankedNeighbors(i1, NodeType.User, byWeight = true).take(MidFan).foreach { a2 =>
        val u2 = g.arcTarget(a2)
        if (u2 != userIdx) {
          val w2 = g.edgeWeight(g.arcEdge(a2))
          path(2) = u2
          kg.rankedNeighbors(u2, NodeType.Item, byWeight = true).take(LeafFan).foreach { a3 =>
            val i2 = g.arcTarget(a3)
            if (i2 != i1 && unrated(i2)) {
              path(3) = i2
              best.offer(path, 0, 4, w1 + w2 + g.edgeWeight(g.arcEdge(a3)) + boostT1)
            }
          }
        }
      }

      // T2: via a shared external entity. External edges have w_A = 0, so
      // the fine step ranks entities and related items by hub degree, as
      // CAFE's symbolic module ranks by embedding affinity.
      kg.rankedNeighbors(i1, NodeType.External, byWeight = false).take(MidFan).foreach { a2 =>
        val x = g.arcTarget(a2)
        path(2) = x
        kg.rankedNeighbors(x, NodeType.Item, byWeight = false).take(LeafFan).foreach { a3 =>
          val i2 = g.arcTarget(a3)
          if (i2 != i1 && unrated(i2)) {
            val pop = 1e-3 * math.log1p(g.degree(i2).toDouble)
            path(3) = i2
            best.offer(path, 0, 4, w1 + pop + boostT2)
          }
        }
      }
    }

    best.topK(g, k)
  }
}

object Cafe {
  /** The user's top-rated items each template starts from. */
  final val RatedFan = 10

  /** Co-rating users or shared entities per rated item. */
  final val MidFan = 8

  /** Completing items per co-rating user or entity. */
  final val LeafFan = 8
}
