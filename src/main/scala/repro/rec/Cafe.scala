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
    val extLinks = topRated.map { case (i1, _) => KgIndex.typedDegree(g, i1, NodeType.External) }.sum
    val entityRich = topRated.nonEmpty && extLinks.toDouble / topRated.length >= 5.0
    val boostT1 = if (entityRich) 0.0 else 0.5
    val boostT2 = if (entityRich) 0.5 else 0.0

    val best = new PathRecommender.BestPaths
    def unrated(i2: Int): Boolean = kg.edgeId(userIdx, i2) < 0

    topRated.foreach { case (i1, e1) =>
      val w1 = g.edgeWeight(e1)

      // T1: via a co-rating user.
      val coUsers = kg.rankedNeighbors(i1, NodeType.User, byWeight = true).take(MidFan)
        .filter(_._1 != userIdx)
      coUsers.foreach { case (u2, e2) =>
        val w2 = g.edgeWeight(e2)
        kg.rankedNeighbors(u2, NodeType.Item, byWeight = true).take(LeafFan).foreach { case (i2, e3) =>
          if (i2 != i1 && unrated(i2))
            best.offer(i2, Vector(userIdx, i1, u2, i2), w1 + w2 + g.edgeWeight(e3) + boostT1)
        }
      }

      // T2: via a shared external entity. External edges have w_A = 0, so
      // the fine step ranks entities and related items by hub degree, as
      // CAFE's symbolic module ranks by embedding affinity.
      kg.rankedNeighbors(i1, NodeType.External, byWeight = false).take(MidFan).foreach { case (x, _) =>
        kg.rankedNeighbors(x, NodeType.Item, byWeight = false).take(LeafFan).foreach { case (i2, _) =>
          if (i2 != i1 && unrated(i2)) {
            val pop = 1e-3 * math.log1p(g.degree(i2).toDouble)
            best.offer(i2, Vector(userIdx, i1, x, i2), w1 + pop + boostT2)
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
